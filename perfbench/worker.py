"""One workload in one process: set up, run closed-loop units, check, report.

Started by ``run.py`` with the BLAS thread variables already in its
environment, so numpy sees them at import.  Prints one JSON object as its
last stdout line.  Usage (from the repository root):

    python3 perfbench/worker.py --workload nearfield --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload nearfield --seed 1 --seconds 20 --setup-only
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

from spans import Tracer, installed, layer_metrics, span_records

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def _import_library():
    """Import helmbie from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import helmbie

    if not pathlib.Path(helmbie.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"helmbie imported from {helmbie.__file__}, not from src/")
    return helmbie


def _call(op, tracer=None, op_id=None):
    """Run one op; returns (output or None if it raised, wall seconds)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.operation(op_id, op.kind):
                out = op.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - t0


def _traced_call(tracer, hb, op, op_id):
    with installed(tracer, hb):
        return _call(op, tracer, op_id)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_units(workload, seconds, trace=False, hb=None):
    """Closed loop over units until ``seconds`` would be exceeded.

    At least one unit runs; another starts only while the previous unit's
    duration still fits in the time left.  With ``trace`` every operation
    runs twice, untraced and traced, in alternating order: the outputs must
    agree bit for bit, and the difference in wall time is the tracing
    overhead.  The traced run first calls one operation untimed, so that the
    one-off costs of a fresh process do not land on either side of that
    difference.
    """
    tracer = Tracer() if trace else None
    records = []       # (kind, seconds, work, failed) per untraced operation
    traced_s = []      # wall seconds per traced operation
    units = []         # operation ids of each unit
    worst = 0.0
    mismatches = 0
    if trace:
        _call(workload.unit(0)[0])
    start = time.perf_counter()
    index = 0
    while True:
        t_unit = time.perf_counter()
        ops = workload.unit(index)
        first = len(records)
        outputs, times, bad = [], [], []
        for n, op in enumerate(ops):
            op_id = first + n
            if not trace:
                out, t = _call(op)
                bad.append(False)
            elif op_id % 2:
                traced_out, t_traced = _traced_call(tracer, hb, op, op_id)
                out, t = _call(op)
            else:
                out, t = _call(op)
                traced_out, t_traced = _traced_call(tracer, hb, op, op_id)
            if trace:
                traced_s.append(t_traced)
                bad.append(not _same_bits(out, traced_out))
            outputs.append(out)
            times.append(t)
        mismatches += sum(bad)
        failed, err = workload.check(ops, outputs)
        worst = max(worst, err)
        for op, t, f, b in zip(ops, times, failed, bad):
            records.append((op.kind, t, op.work, bool(f or b)))
        units.append(list(range(first, first + len(ops))))
        index += 1
        now = time.perf_counter()
        if now - start + (now - t_unit) > seconds:
            break
    return {
        "records": records,
        "worst_error": worst,
        "mismatches": mismatches,
        "tracer": tracer,
        "traced_s": traced_s,
        "units": units,
    }


def end_to_end(workload, records, worst_error):
    """End-to-end metrics of the untraced operations, plus workload detail."""
    by_kind = {}
    for kind, t, _, _ in records:
        by_kind.setdefault(kind, []).append(t)
    medians = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    times = [t for _, t, _, _ in records]
    metrics = {
        # each operation kind weighs the same, whatever its count in the run
        "op_s.p50": statistics.fmean(medians.values()),
        "work_per_s": sum(w for _, _, w, _ in records) / sum(times),
        "digits": -math.log10(max(worst_error, 1e-16)),
    }
    # the slowest operation is a single sample, too noisy to gate on
    detail = {"op_s.max": max(times)}
    values = {**metrics, **detail}
    detail.update({alias: values[name] for alias, name in workload.aliases.items()})
    if workload.kind_metric:
        for kind, value in medians.items():
            detail[workload.kind_metric.format(kind=kind)] = value
    failed = sum(f for *_, f in records)
    detail["failed_ratio"] = failed / len(records)
    detail["ops"] = len(records)
    return metrics, detail


def traced_metrics(result):
    tracer = result["tracer"]
    metrics = layer_metrics(tracer.spans, result["units"])
    untraced = sum(t for _, t, _, _ in result["records"])
    metrics["trace.overhead_s"] = (sum(result["traced_s"]) - untraced) / len(result["traced_s"])
    metrics["trace.mismatches"] = float(result["mismatches"])
    return metrics


def library_env(hb):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "helmbie": hb.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hb = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    setup_done = time.time()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    result = run_units(workload, args.seconds, bool(args.trace), hb)
    records = result["records"]
    failed = sum(f for *_, f in records)
    out = {
        "setup_done": setup_done,
        "attempted": len(records),
        "failed": failed,
        "samples": [[kind, t] for kind, t, _, _ in records],
        "env": library_env(hb),
    }
    if args.trace:
        metrics = traced_metrics(result)
        out["detail"] = {"ops": len(records)}
        # every span is accounted for and tracing changed no output
        out["checks_passed"] = metrics["trace.self_sum_gap_s"] < 1e-6 and not result["mismatches"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(span_records(result["tracer"].spans)))
    else:
        metrics, out["detail"] = end_to_end(workload, records, result["worst_error"])
        out["checks_passed"] = True
    out["metrics"] = metrics
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

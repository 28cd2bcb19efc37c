"""helmbie benchmark: seeded, oracle-checked workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload solve-kite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a worker process of its own, with the BLAS thread
variables set to the number of usable cores before numpy is imported.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, measured
untraced; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run.  Earlier lines print every metric with its unit, the
workload-specific names of README.md, and the environment.  The full result
is also written to .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
WORKLOADS = ("solve-kite", "multi-incidence", "nearfield")
SETUP_PROBES = 3          # extra fresh-process set-ups per run, for setup_s
DEADLINE_S = 170.0        # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def thread_env():
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in THREAD_VARS}


def git_commit():
    """Commit of the checkout from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, env, timeout):
    """Run the worker; returns (spawn wall time, its JSON result)."""
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, started):
    env = dict(os.environ)
    threads = thread_env()
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, probe = _worker([*common, "--setup-only"], env, 60.0)
        setups.append(probe["setup_done"] - t_spawn)
    remaining = DEADLINE_S - (time.monotonic() - started)
    t_spawn, result = _worker(
        [*common, "--trace", str(trace)], env, remaining
    )
    setups.append(result["setup_done"] - t_spawn)

    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    result["env"].update(
        nproc=os.cpu_count(),
        usable_cores=len(os.sched_getaffinity(0)),
        threads=threads,
        commit=git_commit(),
        seed=seed,
    )
    result["setups_s"] = setups
    result["workload"] = name
    return result


def _detail_unit(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    return {"failed_ratio": "ratio", "ops": "count"}.get(metric, "s")


def report(result, spec, trace):
    """Print every metric with its unit; return the contract's result object."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    name = result["workload"]
    for metric, entry in metrics.items():
        print(f"{name:16s} {metric:28s} {entry['value']:.6g} {entry['unit']}")
    for metric, value in result["detail"].items():
        print(f"{name:16s} {metric:28s} {value:.6g} {_detail_unit(metric)} (workload-specific)")
    print(f"{name:16s} failed {result['failed']} of {result['attempted']} operations")
    print("env " + json.dumps(result["env"], sort_keys=True))
    correct = result["checks_passed"] and result["failed"] == 0
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = []
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  time.monotonic() if args.workload == "all" else started)
        except WorkerError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        OUT_DIR.mkdir(exist_ok=True)
        out_file = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=1, sort_keys=True))
        summary.append(report(result, spec, args.trace))
    if len(summary) == 1:
        print(json.dumps(summary[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

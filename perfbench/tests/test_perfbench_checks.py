"""Oracle checks and failure accounting of the benchmark workloads.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import pathlib

import numpy as np

import helmbie as hb
import run
import workloads
from worker import end_to_end, run_units, traced_metrics
from workloads import MultiIncidence, Nearfield, SolveKite, majority_failures


BENCH = pathlib.Path(__file__).resolve().parent.parent


def _small_solve_kite(seed=1):
    return SolveKite(seed, N=32, k_plus=2.0, k_minus=3.0, n_angles=16)


def _small_multi(seed=1):
    return MultiIncidence(seed, N=32, k_plus=2.0, k_minus=3.0, incidences=4)


def _perturbed(workload_cls, which, delta):
    """Workload whose operation ``which`` of every unit returns output + delta."""

    class Perturbed(workload_cls):
        def unit(self, index):
            ops = super().unit(index)
            original = ops[which].run
            ops[which].run = lambda: original() + delta
            return ops

    return Perturbed


def _raising(workload_cls, which):
    class Raising(workload_cls):
        def unit(self, index):
            ops = super().unit(index)

            def boom():
                raise RuntimeError("deliberate failure")

            ops[which].run = boom
            return ops

    return Raising


def _failed(result):
    return [f for *_, f in result["records"]]


def test_majority_blames_only_the_odd_output():
    good = np.zeros(8)
    outputs = [good, good, good + 1e-6, good, good]
    errors = np.array([[np.max(np.abs(a - b)) for b in outputs] for a in outputs])
    assert majority_failures(errors, 1e-8) == [False, False, True, False, False]


def test_majority_fails_missing_nan_and_unchecked_outputs():
    errors = np.array([[0.0, 0.0, np.nan], [0.0, 0.0, np.nan], [np.nan] * 3])
    assert majority_failures(errors, 1e-8) == [False, False, True]
    assert majority_failures(np.array([[0.0]]), 1e-8) == [True]


def test_unperturbed_runs_pass_their_oracles():
    for workload in (_small_solve_kite(), _small_multi(), Nearfield(1, points=50)):
        result = run_units(workload, 0.0)
        assert not any(_failed(result)), workload.name
        assert result["worst_error"] < 1e-10


def test_perturbed_far_field_is_counted_failed():
    result = run_units(_perturbed(SolveKite, 2, 1e-6)(1, N=32, k_plus=2.0,
                                                      k_minus=3.0, n_angles=16), 0.0)
    assert _failed(result) == [False, False, True, False, False]
    assert result["worst_error"] > 1e-8


def test_perturbed_incidence_breaks_reciprocity_for_itself_only():
    cls = _perturbed(MultiIncidence, 1, 1e-6)
    result = run_units(cls(1, N=32, k_plus=2.0, k_minus=3.0, incidences=4), 0.0)
    assert _failed(result) == [False, True, False, False]


def test_perturbed_field_misses_green_oracle():
    result = run_units(_perturbed(Nearfield, 0, 1e-6)(1, points=50), 0.0)
    assert _failed(result) == [True]


def test_raising_operation_is_counted_and_the_run_goes_on(capsys):
    result = run_units(_raising(SolveKite, 0)(1, N=32, k_plus=2.0, k_minus=3.0,
                                              n_angles=16), 0.0)
    assert _failed(result) == [True, False, False, False, False]
    assert "deliberate failure" in capsys.readouterr().err


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = Nearfield(7, points=20), Nearfield(7, points=20), Nearfield(8, points=20)
    pa, pb, pc = (w.unit(3)[0].inputs[1] for w in (a, b, c))
    assert np.array_equal(pa, pb)
    assert not np.array_equal(pa, pc)


def test_field_points_clear_the_quadrature_guard():
    w = Nearfield(3)
    evaluator = w.evaluators[8.0]
    for index in range(4):
        pts = w.unit(index)[0].inputs[1]
        assert np.min(w.curve.distance(pts)) > evaluator.min_distance


def test_nearfield_terms_match_the_library_curve():
    """The oracle's hand-written kite agrees with helmbie's kite."""
    N = 16
    t = np.arange(2 * N) * (np.pi / N)
    (_, _, phi), (_, _, a) = workloads.kite_source_terms(8.0, N, (0.1, 0.2))
    src = hb.PointSource((0.1, 0.2))
    curve = hb.kite()
    m = np.stack([curve.d1(t)[:, 1], -curve.d1(t)[:, 0]], axis=-1)
    assert np.allclose(a, src.value(8.0, curve.point(t)), rtol=1e-13, atol=0)
    expected = np.sum(src.gradient(8.0, curve.point(t)) * m, axis=-1)
    assert np.allclose(-phi, expected, rtol=1e-12, atol=0)


def test_workload_lists_agree_with_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert all(cls.name == name for name, cls in workloads.WORKLOADS.items())


def test_every_listed_metric_is_produced():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    w = Nearfield(1, points=50)
    metrics, _ = end_to_end(w, run_units(w, 0.0)["records"], 1e-14)
    produced = set(metrics) | {"setup_s", "peak_rss_mb"}  # added by run.py
    assert {m["name"] for m in spec["end_to_end"]} <= produced
    traced = traced_metrics(run_units(w, 0.0, trace=True, hb=hb))
    assert {m["name"] for m in spec["per_layer"]} <= set(traced)

"""Span recorder: wrapping, self-time partition, bit-for-bit outputs, counts."""

import numpy as np
import pytest

import helmbie as hb
from spans import EXACT_COUNTS, SELF_BUCKETS, Tracer, installed, layer_metrics
from worker import run_units
from workloads import MultiIncidence, Nearfield, SolveKite


def _small_solve_kite():
    return SolveKite(1, N=32, k_plus=2.0, k_minus=3.0, n_angles=16)


def test_wrappers_are_removed_after_the_traced_block():
    before = (hb.operators.kernel_matrix, hb.specfun.hankel1,
              hb.kite().__class__.__dict__["point"],
              hb.operators.OperatorFamily.__dict__["v_plain"].func)
    with installed(Tracer(), hb):
        assert hb.operators.kernel_matrix is not before[0]
        assert hb.operators.OperatorFamily.__dict__["v_plain"].func is not before[3]
    after = (hb.operators.kernel_matrix, hb.specfun.hankel1,
             hb.kite().__class__.__dict__["point"],
             hb.operators.OperatorFamily.__dict__["v_plain"].func)
    assert after == before


def test_calls_outside_an_operation_record_nothing():
    tracer = Tracer()
    with installed(tracer, hb):
        hb.kite().point(np.zeros(3))
    assert tracer.spans == []


def test_raising_call_is_recorded_and_propagates():
    tracer = Tracer()
    with installed(tracer, hb):
        with pytest.raises(hb.specfun.DomainError):
            with tracer.operation(0, "bad"):
                hb.specfun.hankel1(0, np.array([-1.0]))
    root, call = tracer.spans
    assert root.raised and call.raised
    assert call.name == "specfun.real.hankel1" and call.parent == 0


def test_traced_outputs_match_and_self_times_partition_wall_time():
    result = run_units(_small_solve_kite(), 0.0, trace=True, hb=hb)
    assert result["mismatches"] == 0
    spans = result["tracer"].spans
    metrics = layer_metrics(spans, result["units"])
    assert metrics["trace.self_sum_gap_s"] < 1e-9
    wall = np.mean(result["traced_s"])
    assert sum(metrics[b] for b in SELF_BUCKETS) == pytest.approx(wall, rel=1e-3)
    layers = {s.layer for s in spans}
    assert {"geometry", "specfun", "kernels", "fourier", "operators",
            "formulations", "linalg", "fields", "bench"} <= layers
    assert metrics["specfun.complex.args"] > 0  # l3's kappa path


def test_names_are_wrapped_where_the_library_looks_them_up():
    result = run_units(_small_solve_kite(), 0.0, trace=True, hb=hb)
    names = {s.name for s in result["tracer"].spans}
    assert {"kernels.kernel_matrix", "kernels.ef_matrices", "fourier.conv_matrix",
            "fourier.lambda_matrix", "fourier.dld_matrix", "operators.build",
            "operators.family", "geometry.point", "linalg.lu_solve",
            "formulations.build_data", "fields.FieldEvaluator.far_field"} <= names


def test_nearfield_bypasses_assembly_layers():
    result = run_units(Nearfield(1, points=50), 0.0, trace=True, hb=hb)
    metrics = layer_metrics(result["tracer"].spans, result["units"])
    for name in ("kernels.calls", "operators.builds", "linalg.lu_calls",
                 "specfun.complex.args"):
        assert metrics[name] == 0.0
    assert metrics["geometry.distance_calls"] == 1.0
    assert metrics["fields.kernel_entries"] == 2 * 100 * 512


def test_exact_counts_repeat_across_traced_runs():
    def counts():
        w = MultiIncidence(1, N=32, k_plus=2.0, k_minus=3.0, incidences=3)
        result = run_units(w, 0.0, trace=True, hb=hb)
        metrics = layer_metrics(result["tracer"].spans, result["units"])
        return {name: metrics[name] for name in EXACT_COUNTS}

    first, second = counts(), counts()
    assert first == second
    assert first["operators.unique_ratio"] == pytest.approx(1.0 / 3.0)

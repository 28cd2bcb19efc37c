"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with

    pytest tests/test_acceptance.py -v -s

Criteria 1, 2, 4, 5, 6, 8 and 9 read the reports of the ``helmbie verify``
suites, each run once per session (the ``verification_reports`` fixture):
the suites are the one place those numbers are computed.  Each criterion
requires its checks to be present, to have passed, and to carry exactly the
criterion's tolerance.  Criterion 3 keeps its own mpmath oracle, independent
of the scipy one in the ``circle`` suite, and criterion 7 is computed here.
"""

import time

import numpy as np
import pytest

from helmbie.fields import FieldEvaluator, far_field_linf_diff
from helmbie.formulations import PlaneWave, TransmissionProblem, assemble, solve
from helmbie.geometry import circle, grid, make_curve
from helmbie.harness import VERIFICATION_SUITES
from helmbie.operators import OperatorFamily

from oracles import mp_circle_eigs


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _checks(report, text, count):
    """The ``count`` checks of a suite report whose label contains ``text``."""
    found = [c for c in report.checks if text in c.label]
    assert len(found) == count, (
        f"suite {report.suite}: {len(found)} checks match {text!r}, expected {count}"
    )
    return found


def _passed(checks, tol):
    """Every check passed, against exactly the criterion's tolerance."""
    return all(c.ok and c.tol == tol for c in checks)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_weight_tables(verification_reports, suite_seconds):
    report = verification_reports["weights"]
    tables = _checks(report, "vs quadrature oracle", 3)
    # the log(4 sin^2)-scaled table values must NOT pass the oracle
    rejections = _checks(report, "rejected", 4)
    elapsed = suite_seconds["weights"]
    worst = max(c.value for c in tables)
    ok = _passed(tables, 1e-12) and _passed(rejections, 1e-6) and elapsed < 1.0
    _report(
        1, ok,
        f"weight tables vs oracle max err {worst:.2e} (tol 1e-12); "
        f"scaled-table values rejected by >= {min(c.value for c in rejections):.2e}; "
        f"runtime {elapsed:.2f} s (< 1 s)",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_spectral_operators(verification_reports):
    symbols = _checks(verification_reports["weights"], "symbol exactness", 2)
    worst = max(c.value for c in symbols)
    ok = _passed(symbols, 1e-14)
    _report(2, ok, f"Lambda and D-Lambda-D symbols exact to {worst:.2e} "
                   "(tol 1e-14) for |n| <= 64")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_circle_eigenvalues():
    t0 = time.perf_counter()
    k, N = 2.0, 64
    fam = OperatorFamily(circle(), k, N)
    t = grid(N)
    tol_by_group = {"plain": 1e-10, "tilde": 1e-11, "H": 1e-8}
    worst = {g: 0.0 for g in tol_by_group}
    for n in range(-8, 9):
        lam_v, lam_k, lam_kt, lam_h = (complex(v) for v in mp_circle_eigs(k, n))
        e = np.exp(1j * n * t)
        for op, lam, group in [
            (fam.v_plain, lam_v, "plain"), (fam.k_plain, lam_k, "plain"),
            (fam.kt_plain, lam_kt, "plain"), (fam.v_tilde, lam_v, "tilde"),
            (fam.k_tilde, lam_k, "tilde"), (fam.kt_tilde, lam_kt, "tilde"),
            (fam.h_op, lam_h, "H"),
        ]:
            err = np.max(np.abs(op @ e - lam * e)) / abs(lam)
            worst[group] = max(worst[group], err)
    elapsed = time.perf_counter() - t0
    ok = all(worst[g] <= tol_by_group[g] for g in worst) and elapsed < 10.0
    _report(
        3, ok,
        "circle eigenvalue errors: "
        f"plain {worst['plain']:.2e} (1e-10), tilde {worst['tilde']:.2e} "
        f"(1e-11), H {worst['H']:.2e} (1e-8); runtime {elapsed:.1f} s (< 10 s)",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_calderon_residuals(verification_reports):
    report = verification_reports["calderon"]
    res = _checks(report, "identity residual, N = 128", 2)
    drops = _checks(report, "decrease factor 32 -> 128", 2)
    ok = _passed(res, 1e-10) and _passed(drops, 1e3)
    _report(
        4, ok,
        f"Calderon residuals at N=128: {res[0].value:.2e}, {res[1].value:.2e} "
        f"(tol 1e-10); decrease factors {drops[0].value:.1e}, "
        f"{drops[1].value:.1e} (>= 1e3)",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_extinction_representation(verification_reports):
    report = verification_reports["extinction"]
    checks = _checks(report, "representation error", 1) + _checks(
        report, "extinction error", 1
    )
    ok = _passed(checks, 1e-10)
    _report(
        5, ok,
        f"representation error {checks[0].value:.2e}, extinction error "
        f"{checks[1].value:.2e} at N=128 (tol 1e-10, 10 points each side)",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_cross_formulation_agreement(verification_reports, suite_seconds):
    gaps = _checks(verification_reports["crossform"], "far-field gap", 6)
    elapsed = suite_seconds["crossform"]
    worst = max(c.value for c in gaps)
    ok = _passed(gaps, 1e-8) and elapsed < 120.0
    _report(
        6, ok,
        f"pairwise far-field gap {worst:.2e} (tol 1e-8) over 360 directions "
        f"at N=256; runtime {elapsed:.1f} s (< 120 s)",
    )


# ---------------------------------------------------------------- criterion 7


@pytest.mark.parametrize("curve_name", ["kite", "cavity"])
def test_criterion_7_table_pattern(curve_name):
    curve = make_curve(curve_name)
    prob = TransmissionProblem(curve, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ref = solve(assemble("l1", prob, 320))
    ff_ref = FieldEvaluator(curve, ref.exterior_terms()).far_field(angles)
    errs = {"l2": [], "l2plain": []}
    for N in (96, 128, 160):
        for form in errs:
            res = solve(assemble(form, prob, N))
            ff = FieldEvaluator(curve, res.exterior_terms()).far_field(angles)
            errs[form].append(far_field_linf_diff(ff, ff_ref))
    tilde = errs["l2"]
    plain = errs["l2plain"]
    drops = [tilde[0] / tilde[1], tilde[1] / tilde[2]]
    ordering = [p >= t for p, t in zip(plain, tilde)]
    ok = (
        min(drops) >= 10.0
        and tilde[2] <= 1e-8
        and all(ordering)
    )
    _report(
        7, ok,
        f"{curve_name}: tilde errors {tilde[0]:.2e} -> {tilde[1]:.2e} -> "
        f"{tilde[2]:.2e} (drops {drops[0]:.0f}x, {drops[1]:.0f}x, >= 10x; "
        f"final <= 1e-8); plain {plain[0]:.2e}, {plain[1]:.2e}, "
        f"{plain[2]:.2e} never more accurate: {all(ordering)}",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_rate_separation(verification_reports):
    report = verification_reports["rates"]
    separation = _checks(report, "tilde <= plain", 3)
    # factors with the error already at the roundoff floor are not checked,
    # and at least one must be
    decays = [c for c in report.checks if "error drop" in c.label]
    binding = _checks(report, "binding decay factors", 1)
    ok = _passed(separation, 1e-15) and _passed(decays, 10.0) and _passed(binding, 1)
    msg = "; ".join(n for n in report.notes if n.startswith("H0 errors"))
    _report(8, ok, f"tilde <= plain throughout and decay factors "
                   f"{['%.0f' % c.value for c in decays]} >= 10; {msg}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_property_battery(verification_reports, suite_seconds):
    assert set(verification_reports) == set(VERIFICATION_SUITES)
    failed = sorted(name for name, rep in verification_reports.items()
                    if not rep.passed)
    elapsed = sum(suite_seconds.values())
    ok = not failed and elapsed < 300.0
    _report(
        9, ok,
        f"verification battery {sorted(VERIFICATION_SUITES)} "
        f"{'all passed' if not failed else 'FAILED: ' + ','.join(failed)}; "
        f"runtime {elapsed:.0f} s (< 300 s)",
    )

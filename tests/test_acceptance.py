"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from helmbie.fields import FieldEvaluator, far_field_linf_diff
from helmbie.formulations import (
    PlaneWave,
    PointSource,
    TransmissionProblem,
    assemble,
    solve,
)
from helmbie.fourier import TrigPolynomial, lambda_apply, dld_apply, psi_hat
from helmbie.geometry import cavity, circle, grid, kite, make_curve
from helmbie.harness import VERIFICATION_SUITES, _psi_hat_quadrature
from helmbie.operators import OperatorFamily

from oracles import mp_circle_eigs


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_weight_tables():
    t0 = time.perf_counter()
    ns = np.arange(0, 65)
    worst = 0.0
    for m in (0, 1, 2):
        oracle = _psi_hat_quadrature(m, 64)
        worst = max(worst, float(np.max(np.abs(psi_hat(m, ns) - oracle))))
    # the log(4 sin^2)-scaled table values must NOT pass the oracle
    oracle1 = _psi_hat_quadrature(1, 2)
    oracle2 = _psi_hat_quadrature(2, 1)
    rejections = [
        abs(-2.0 * np.log(4.0) - oracle1[0]),   # printed psi1(0)
        abs(-2.0 / 1.0 - oracle1[1]),           # printed psi1(1)
        abs(0.5 - oracle2[0]),                  # printed psi2(0)
        abs(-0.375 - oracle2[1]),               # printed psi2(1)
    ]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and min(rejections) > 1e-6 and elapsed < 1.0
    _report(
        1, ok,
        f"weight tables vs oracle max err {worst:.2e} (tol 1e-12); "
        f"scaled-table values rejected by >= {min(rejections):.2e}; "
        f"runtime {elapsed:.2f} s (< 1 s)",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_spectral_operators():
    N = 64
    worst = 0.0
    for n in range(-N + 1, N + 1):
        delta = np.zeros(2 * N, dtype=complex)
        delta[n % (2 * N)] = 1.0
        e = TrigPolynomial.from_coeffs(delta)
        lam = np.log(2.0) if n == 0 else 1.0 / (2.0 * abs(n))
        dld = -0.5 * abs(n)
        err_l = np.max(np.abs(lambda_apply(e).nodal - lam * e.nodal))
        err_d = np.max(np.abs(dld_apply(e).nodal - dld * e.nodal))
        worst = max(worst, err_l / max(1.0, abs(lam)), err_d / max(1.0, abs(dld)))
    ok = worst <= 1e-14
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
            err = np.max(np.abs(op.matrix @ e - lam * e)) / abs(lam)
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


def test_criterion_4_calderon_residuals():
    k = 8.0
    curve = kite()
    src = PointSource((0.1, 0.2))
    res = {}
    for N in (32, 128):
        fam = OperatorFamily(curve, k, N)
        t = grid(N)
        xb = curve.point(t)
        d1 = curve.d1(t)
        m = np.stack([d1[:, 1], -d1[:, 0]], axis=-1)
        a = src.value(k, xb)
        phi = np.sum(src.gradient(k, xb) * m, axis=-1)
        eye = np.eye(2 * N)
        r1 = np.max(np.abs((-0.5 * eye + fam.k_plain.matrix) @ a
                           - fam.v_plain.matrix @ phi))
        r2 = np.max(np.abs(fam.h_op.matrix @ a
                           - (0.5 * eye + fam.kt_plain.matrix) @ phi))
        res[N] = (r1, r2)
    ok = (
        res[128][0] <= 1e-10 and res[128][1] <= 1e-10
        and res[32][0] / res[128][0] >= 1e3
        and res[32][1] / res[128][1] >= 1e3
    )
    _report(
        4, ok,
        f"Calderon residuals at N=128: {res[128][0]:.2e}, {res[128][1]:.2e} "
        f"(tol 1e-10); decrease factors {res[32][0]/res[128][0]:.1e}, "
        f"{res[32][1]/res[128][1]:.1e} (>= 1e3)",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_extinction_representation():
    k, N = 8.0, 128
    curve = kite()
    src = PointSource((0.1, 0.2))
    t = grid(N)
    xb = curve.point(t)
    d1 = curve.d1(t)
    m = np.stack([d1[:, 1], -d1[:, 0]], axis=-1)
    a = src.value(k, xb)
    phi = np.sum(src.gradient(k, xb) * m, axis=-1)
    ev = FieldEvaluator(curve, [("sl", k, -phi), ("dl", k, a)])
    ang = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    ext = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    inner = 0.35 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    rep_err = float(np.max(np.abs(ev(ext) - src.value(k, ext))))
    ext_err = float(np.max(np.abs(ev(inner))))
    ok = rep_err <= 1e-10 and ext_err <= 1e-10
    _report(
        5, ok,
        f"representation error {rep_err:.2e}, extinction error {ext_err:.2e} "
        "at N=128 (tol 1e-10, 10 points each side)",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_cross_formulation_agreement():
    t0 = time.perf_counter()
    N = 256
    prob = TransmissionProblem(kite(), 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ffs = {}
    for form in ("l1", "l2", "l3", "l4"):
        result = solve(assemble(form, prob, N))
        ffs[form] = FieldEvaluator(
            prob.curve, result.exterior_terms()
        ).far_field(angles)
    worst = 0.0
    for i, fa in enumerate(sorted(ffs)):
        for fb in sorted(ffs)[i + 1:]:
            worst = max(worst, far_field_linf_diff(ffs[fa], ffs[fb]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
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


def test_criterion_8_rate_separation():
    curve, k = kite(), 8.0
    fam_ref = OperatorFamily(curve, k, 512)
    t_ref = grid(512)
    ref = TrigPolynomial(fam_ref.v_tilde.matrix @ np.exp(np.cos(t_ref)))
    errs = {}
    for N in (32, 48, 64):
        fam = OperatorFamily(curve, k, N)
        t = grid(N)
        phi = np.exp(np.cos(t))
        target = ref.eval(t)
        errs[N] = {
            "plain": float(np.linalg.norm(fam.v_plain.matrix @ phi - target)
                           / np.sqrt(2 * N)),
            "tilde": float(np.linalg.norm(fam.v_tilde.matrix @ phi - target)
                           / np.sqrt(2 * N)),
        }
    floor = 1e-14
    separation = all(
        errs[N]["tilde"] <= errs[N]["plain"] + 1e-15 for N in (32, 48, 64)
    )
    decays = []
    for a, b in ((32, 48), (48, 64)):
        for fam_name in ("plain", "tilde"):
            if errs[a][fam_name] <= 10 * floor:
                continue  # already at the roundoff floor
            decays.append(errs[a][fam_name] / max(errs[b][fam_name], floor / 10))
    superalgebraic = all(d >= 10.0 for d in decays) and decays
    ok = separation and bool(superalgebraic)
    msg = "; ".join(
        f"N={N}: plain {errs[N]['plain']:.2e}, tilde {errs[N]['tilde']:.2e}"
        for N in (32, 48, 64)
    )
    _report(8, ok, f"tilde <= plain throughout and decay factors "
                   f"{['%.0f' % d for d in decays]} >= 10; {msg}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_property_battery():
    t0 = time.perf_counter()
    failed = []
    for name, suite in VERIFICATION_SUITES.items():
        report = suite()
        if not report.passed:
            failed.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 300.0
    _report(
        9, ok,
        f"verification battery {sorted(VERIFICATION_SUITES)} "
        f"{'all passed' if not failed else 'FAILED: ' + ','.join(failed)}; "
        f"runtime {elapsed:.0f} s (< 300 s)",
    )

import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from helmbie import formulations, linalg, operators, specfun
from helmbie.fields import FieldEvaluator, far_field_constant, far_field_linf_diff
from helmbie.formulations import (
    FORMULATIONS,
    PlaneWave,
    PointSource,
    TransmissionProblem,
    _op_families,
    assemble,
    assemble_l1,
    assemble_l2,
    assemble_l3,
    assemble_l4,
    build_data,
    solve,
)
from helmbie.geometry import (ParametricCurve, circle, ellipse, grid, grid_geometry,
                              kite, make_curve)
from helmbie.linalg import gmres, lu_factor, lu_solve
from helmbie.operators import OperatorFamily
from oracles import (circle_transmission_far_field, l3_full_matrix, l4_full_matrix,
                     ps_operators)

KITE = kite()
ANGLES = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)


def _exterior_far_field(problem, result, angles=ANGLES):
    return FieldEvaluator(problem.curve, result.exterior_terms()).far_field(angles)


# ------------------------------------------------------------------ build_data


def test_build_data_plane_wave():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    data = build_data(prob, 32)
    t = grid(32)
    xb = KITE.point(t)
    assert np.max(np.abs(data.h + np.exp(1j * 8.0 * xb[:, 0]))) <= 1e-14


def test_build_data_point_source():
    src = PointSource((2.0, 1.5))
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, src)
    data = build_data(prob, 32)
    t = grid(32)
    xb = KITE.point(t)
    assert np.max(np.abs(data.h + src.value(8.0, xb))) <= 1e-15


@pytest.mark.parametrize(
    "location", [(np.nan, 0.0), (0.1, np.inf), (0.1,), (0.1, 0.2, 0.3), (1j, 0.0),
                 np.array([0.1 + 0j, 0.2]), ("x", 0.0), ((0.1,), 0.2)]
)
def test_point_source_rejects_a_bad_location(location):
    with pytest.raises(ValueError, match="two finite coordinates"):
        PointSource(location)


@pytest.mark.parametrize(
    "direction", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1.0,), (1j, 0.0),
                  np.array([1.0 + 0j, 0.0]), ("x", 0.0)]
)
def test_plane_wave_rejects_a_bad_direction(direction):
    with pytest.raises(ValueError, match="two finite coordinates"):
        PlaneWave(direction)


def test_build_data_eta_carries_speed_factor():
    # on the unit circle |x'| = 1, so eta is exactly -d_n u_inc
    prob = TransmissionProblem(circle(), 2.0, 1.0, 1.0, PlaneWave((0.0, 1.0)))
    data = build_data(prob, 16)
    t = grid(16)
    xb = circle().point(t)
    n = circle().normal(t)
    grad = prob.incident.gradient(2.0, xb)
    direct = -np.sum(grad * n, axis=-1)
    assert np.max(np.abs(data.eta - direct)) <= 1e-14


def test_point_source_on_boundary_rejected():
    src = PointSource(tuple(KITE.point(0.3)))
    with pytest.raises(ValueError, match="boundary"):
        TransmissionProblem(KITE, 8.0, 32.0, 1.0, src)


@pytest.mark.parametrize("name", ["circle", "ellipse", "kite", "cavity"])
def test_point_source_inside_the_curve_rejected(name):
    # the formulations assume that u_inc solves the k+ equation inside the
    # curve; (0.1, 0.2) is inside every built-in curve, (2, 1.5) outside all
    curve = make_curve(name)
    with pytest.raises(ValueError, match="inside the curve"):
        TransmissionProblem(curve, 8.0, 32.0, 1.0, PointSource((0.1, 0.2)))
    TransmissionProblem(curve, 8.0, 32.0, 1.0, PointSource((2.0, 1.5)))


def test_point_source_in_the_cavity_dimple_is_outside():
    # the cavity's dimple is re-entrant: it meets the positive x axis only at
    # (0.405, 0), so (0.6, 0), in the dimple, lies outside and (0.2, 0) inside
    curve = make_curve("cavity")
    TransmissionProblem(curve, 8.0, 32.0, 1.0, PointSource((0.6, 0.0)))
    with pytest.raises(ValueError, match="inside the curve"):
        TransmissionProblem(curve, 8.0, 32.0, 1.0, PointSource((0.2, 0.0)))


def test_problem_validation():
    with pytest.raises(ValueError):
        TransmissionProblem(KITE, -1.0, 2.0, 1.0, PlaneWave())
    with pytest.raises(ValueError):
        TransmissionProblem(KITE, 1.0, 2.0, 0.0, PlaneWave())
    with pytest.raises(ValueError, match="k_plus"):
        TransmissionProblem(KITE, float("nan"), 2.0, 1.0, PlaneWave())
    with pytest.raises(ValueError, match="k_minus"):
        TransmissionProblem(KITE, 1.0, float("nan"), 1.0, PlaneWave())
    with pytest.raises(ValueError, match="nu"):
        TransmissionProblem(KITE, 1.0, 2.0, float("inf"), PlaneWave())
    for direction in ((0.0, 0.0), (1.0, 0.0, 5.0), (1.0,), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="direction"):
            PlaneWave(direction)


@pytest.mark.parametrize("name", ["k_plus", "k_minus", "nu"])
def test_problem_coefficients_are_positive_reals(name):
    # a complex value used to fail inside a comparison with a TypeError
    fields = dict(curve=KITE, k_plus=8.0, k_minus=32.0, nu=1.0, incident=PlaneWave())
    with pytest.raises(ValueError, match=f"{name} must be a finite positive real"):
        TransmissionProblem(**{**fields, name: 8.0 + 0.5j})
    typed = TransmissionProblem(**{**fields, name: 2.0 + 0j})
    assert type(getattr(typed, name)) is float and getattr(typed, name) == 2.0


class _Evanescent:
    """A user-defined incident field: any object with value and gradient."""

    def value(self, k, points):
        return np.exp(-k * np.atleast_2d(points)[:, 1])

    def gradient(self, k, points):
        return np.array([0.0, -k]) * self.value(k, points)[:, None]


class _ValueOnly:
    value = _Evanescent.value


@pytest.mark.parametrize("incident", ["plane", None, _ValueOnly()])
def test_problem_rejects_an_incident_field_it_cannot_sample(incident):
    # "plane" used to construct, and assemble then raised an AttributeError
    with pytest.raises(ValueError, match="incident field needs callable value"):
        TransmissionProblem(KITE, 8.0, 32.0, 1.0, incident)


@pytest.mark.parametrize("curve", ["kite", None, KITE.point])
def test_problem_rejects_a_curve_that_is_not_parametric(curve):
    # "kite" used to construct, and assemble then raised an AttributeError
    with pytest.raises(ValueError,
                       match=re.escape(f"curve must be a ParametricCurve, got {curve!r}")):
        TransmissionProblem(curve, 8.0, 32.0, 1.0, PlaneWave())


def test_waves_sources_and_problems_compare_and_hash_by_value():
    # a list was kept as given, so a problem built with it could not be hashed
    waves = [PlaneWave(d) for d in ([1, 0], (1.0, 0.0), np.array([1.0, 0.0]))]
    sources = [PointSource(y) for y in ([3, 0], (3.0, 0.0), np.array([3.0, 0.0]))]
    for same in (waves, sources):
        assert all(x == same[0] and hash(x) == hash(same[0]) for x in same)
        assert len(set(same)) == 1
    assert [type(x) for x in waves[0].direction + sources[0].location] == [float] * 4
    assert PlaneWave((0.0, 1.0)) != waves[0] and PointSource((0.0, 3.0)) != sources[0]
    problems = {TransmissionProblem(curve, 8.0, 32.0, 1.0, incident)
                for curve in (KITE, kite(), ellipse(2.0, 1.0))
                for incident in waves + sources}
    assert len(problems) == 4


def test_an_equal_curve_built_anew_hits_the_kept_system():
    first, again = (assemble("l1", TransmissionProblem(kite(), 3.0, 5.0, 1.0, PlaneWave(d)), 16)
                    for d in ((1.0, 0.0), (0.0, 1.0)))
    assert again.matrix is first.matrix


def test_user_defined_incident_field_is_sampled():
    data = build_data(TransmissionProblem(KITE, 8.0, 32.0, 1.0, _Evanescent()), 16)
    xb = KITE.point(grid(16))
    assert np.array_equal(data.h, -np.exp(-8.0 * xb[:, 1]))


# --------------------------------------------------------- matched media


@pytest.mark.parametrize("form", ["l1", "l2", "l2plain", "l3", "l4"])
def test_matched_media_scatter_nothing(form):
    prob = TransmissionProblem(KITE, 8.0, 8.0, 1.0, PlaneWave((1.0, 0.0)))
    result = solve(assemble(form, prob, 64))
    ff = _exterior_far_field(prob, result)
    assert np.max(np.abs(ff.values)) <= 1e-12
    # inside, the transmitted field is the incident wave itself
    ang = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    inner = 0.35 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    u_minus = FieldEvaluator(KITE, result.interior_terms())(inner)
    assert np.max(np.abs(u_minus - prob.incident.value(8.0, inner))) <= 1e-12


def test_matched_media_l1_solution_equals_rhs():
    # nu = 1, k+ = k-: the operator collapses to the identity
    prob = TransmissionProblem(KITE, 8.0, 8.0, 1.0, PlaneWave((1.0, 0.0)))
    system = assemble("l1", prob, 32)
    assert np.max(np.abs(system.matrix - np.eye(4 * 32))) <= 1e-10
    result = solve(system)
    assert np.max(np.abs(result.a - system.data.h)) <= 1e-10
    assert np.max(np.abs(result.phi - system.data.eta)) <= 1e-10


# -------------------------------------------------- cross formulation checks


@pytest.fixture(scope="module")
def transmission_results():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    out = {}
    for form in ("l1", "l2", "l3", "l4"):
        out[form] = solve(assemble(form, prob, 192))
    return prob, out


def test_far_fields_agree_pairwise(transmission_results):
    prob, results = transmission_results
    ffs = {f: _exterior_far_field(prob, r) for f, r in results.items()}
    names = sorted(ffs)
    for i, fa in enumerate(names):
        for fb in names[i + 1:]:
            assert far_field_linf_diff(ffs[fa], ffs[fb]) <= 1e-9, (fa, fb)


def test_solutions_depend_linearly_on_incident(transmission_results):
    prob, results = transmission_results
    scaled = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    sys_one = assemble("l1", scaled, 48)
    res_one = solve(sys_one)
    sys_two = assemble("l1", scaled, 48)
    sys_two.rhs = 2.0 * sys_two.rhs
    res_two = solve(sys_two)
    assert np.max(np.abs(res_two.a - 2.0 * res_one.a)) <= 1e-11


def test_energy_flux_balance(transmission_results):
    """Lossless transmission: net power flux through a circle enclosing the
    obstacle vanishes for the physical solution; the sign-flipped field
    violates the balance at O(1).  This pins the reconstruction convention."""
    prob, results = transmission_results
    ev = FieldEvaluator(KITE, results["l1"].exterior_terms())
    R, M = 6.0, 720
    th = np.linspace(0, 2 * np.pi, M, endpoint=False)
    xh = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pts = R * xh
    h = 1e-3
    dup = (ev(pts + h * xh) - ev(pts - h * xh)) / (2 * h)
    up = ev(pts)
    ui = prob.incident.value(8.0, pts)
    dui = np.sum(prob.incident.gradient(8.0, pts) * xh, axis=-1)

    def flux(u, du):
        return np.imag(np.sum(np.conj(u) * du)) * (2 * np.pi * R / M)

    scale = abs(flux(up, dup))
    assert abs(flux(ui + up, dui + dup)) <= 1e-4 * scale
    assert abs(flux(ui - up, dui - dup)) >= scale


def test_interior_field_satisfies_its_calderon_identity(transmission_results):
    # the reconstructed interior Cauchy data must be interior-admissible
    prob, results = transmission_results
    res = results["l1"]
    fam_minus = _op_families(prob, res.N)[1]
    a_minus = -res.a
    phi_minus = -res.phi / prob.nu
    eye = np.eye(2 * res.N)
    resid = (0.5 * eye + fam_minus.k_plain) @ a_minus \
        - fam_minus.v_plain @ phi_minus
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(a_minus)))


def test_lu_and_gmres_agree_on_every_formulation():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    for form in ("l1", "l2", "l3", "l4"):
        system = assemble(form, prob, 64)
        direct = lu_solve(lu_factor(system.matrix), system.rhs)
        iterative, _ = gmres(system.matrix, system.rhs, tol=1e-13)
        assert np.max(np.abs(direct - iterative)) <= 1e-9 * max(
            1.0, np.max(np.abs(direct))
        )


# ------------------------------------------- exact solution on the circle

CIRCLE_ANGLES = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)


@pytest.mark.parametrize("incident", ["plane", "point"])
@pytest.mark.parametrize("k_plus,k_minus", [(3.0, 5.0), (12.0, 3.0)])
@pytest.mark.parametrize("nu", [0.5, 2.0])
def test_every_formulation_matches_the_exact_circle_far_field(nu, k_plus, k_minus,
                                                               incident):
    """Separation of variables on the unit circle: each far field at N = 64
    within 1e-12 of the exact one, relative to its largest value."""
    curve = circle()
    if incident == "plane":
        direction = (0.6, -0.8)
        wave, where = PlaneWave(direction), {"direction": direction}
    else:
        source = (2.0, 1.5)
        wave, where = PointSource(source), {"source": source}
    prob = TransmissionProblem(curve, k_plus, k_minus, nu, wave)
    exact = circle_transmission_far_field(1.0, k_plus, k_minus, nu, CIRCLE_ANGLES,
                                          **where)
    scale = np.max(np.abs(exact))
    # every formulation, and l3 and l4 at a kappa and a rho of their own
    for form, kw in [("l1", {}), ("l2", {}), ("l2plain", {}), ("l3", {}), ("l4", {}),
                     ("l3", {"kappa": k_plus + 2j}), ("l4", {"rho": -k_plus})]:
        result = solve(assemble(form, prob, 64, **kw))
        ff = _exterior_far_field(prob, result, CIRCLE_ANGLES)
        gap = np.max(np.abs(ff.values - exact)) / scale
        assert gap <= 1e-12, (form, kw, gap)


def _moved(curve, rotation=np.eye(2), shift=(0.0, 0.0)):
    """``curve`` rotated about the origin, then shifted."""
    cos_coef = rotation @ curve.cos_coef
    cos_coef[:, 0] += shift
    return ParametricCurve(curve.name, cos_coef, rotation @ curve.sin_coef)


def _kite_far_field(form, curve, direction, N=32):
    """Far field at ANGLES of the kite problem k+ = 3, k- = 5, nu = 2 posed
    on ``curve``.  The discrete systems keep the symmetries of the problem up
    to rounding at any N, so a small N tests them."""
    prob = TransmissionProblem(curve, 3.0, 5.0, 2.0, PlaneWave(direction))
    return _exterior_far_field(prob, solve(assemble(form, prob, N))).values


@pytest.mark.parametrize("form", FORMULATIONS)
def test_translation_multiplies_the_far_field_by_its_phase(form):
    # shifted by c, the incident wave gains e^{ik+ d.c} and the far field of
    # the shifted scattered wave e^{-ik+ x^.c}
    d, c = np.array([0.6, 0.8]), np.array([0.7, -0.4])
    u = _kite_far_field(form, KITE, d)
    moved = _kite_far_field(form, _moved(KITE, shift=c), d)
    xhat = np.stack([np.cos(ANGLES), np.sin(ANGLES)], axis=-1)
    phase = np.exp(1j * 3.0 * ((d - xhat) @ c))
    assert np.max(np.abs(moved - phase * u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("form", FORMULATIONS)
def test_rotation_by_seven_angle_steps_shifts_the_far_field_by_seven(form):
    # curve and incidence turned by 7 steps of ANGLES (28 degrees)
    alpha = ANGLES[7]
    rotation = np.array([[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]])
    d = np.array([1.0, 0.0])
    u = _kite_far_field(form, KITE, d)
    turned = _kite_far_field(form, _moved(KITE, rotation=rotation), rotation @ d)
    assert np.max(np.abs(turned - np.roll(u, 7))) <= 1e-12 * np.max(np.abs(u))


# -------------------------------------------------------------- L2 specifics


def test_l2_leading_block_is_diagonal_in_fourier_basis():
    # zero out the kernel blocks: what remains is (1 + 1/nu) [0 L; -nu DLD 0]
    nu = 2.0
    prob = TransmissionProblem(KITE, 8.0, 32.0, nu, PlaneWave((1.0, 0.0)))
    N = 16
    fp, fm = _op_families(prob, N)
    matrix = assemble_l2(prob, N, fp, fm, "l2")
    kernels = np.block([
        [-(fp.k_tilde + fm.k_tilde),
         fp.r_tilde + fm.r_tilde / nu],
        [-(fp.t_op + nu * fm.t_op),
         fp.kt_tilde + fm.kt_tilde],
    ])
    lead = matrix - kernels
    t = grid(N)
    for n in (0, 3, -5):
        e = np.exp(1j * n * t)
        z = np.zeros_like(e)
        lam = np.log(2.0) if n == 0 else 1.0 / (2 * abs(n))
        dld = -0.5 * abs(n)
        top = lead @ np.concatenate([e, z])
        bot = lead @ np.concatenate([z, e])
        factor = 1.0 + 1.0 / nu
        assert np.max(np.abs(top[:2 * N])) <= 1e-12
        assert np.max(np.abs(top[2 * N:] - factor * (-nu) * dld * e)) <= 1e-12
        assert np.max(np.abs(bot[:2 * N] - factor * lam * e)) <= 1e-12
        assert np.max(np.abs(bot[2 * N:])) <= 1e-12


def test_l2_families_differ_but_converge_together():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    tilde = solve(assemble("l2", prob, 160))
    plain = solve(assemble("l2plain", prob, 160))
    ff_t = _exterior_far_field(prob, tilde)
    ff_p = _exterior_far_field(prob, plain)
    assert far_field_linf_diff(ff_t, ff_p) <= 1e-9


# -------------------------------------------------------------- L3 specifics


def test_l3_rejects_bad_kappa():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    with pytest.raises(ValueError):
        assemble("l3", prob, 16, kappa=8.0)


def test_l3_factorized_identity_exact_with_tilde_blocks():
    """L3 = (1/(nu+1)) L1~ + (2/(nu+1)) [0 V_PS; -nu H_PS 0] L2 holds at the
    matrix level when L1~ uses the tilde family (machine precision), at nu
    below, at and above 1."""
    N = 48
    kappa = 8.0 + 0.5j
    v_k, h_k = ps_operators(KITE, N, kappa)
    eye = np.eye(2 * N)
    zero = np.zeros((2 * N, 2 * N))
    for nu in (0.5, 1.0, 2.0):
        prob = TransmissionProblem(KITE, 8.0, 32.0, nu, PlaneWave((1.0, 0.0)))
        l2 = assemble("l2", prob, N).matrix
        fp, fm = _op_families(prob, N)
        l3 = assemble_l3(prob, N, fp, fm, kappa)
        l1_tilde = np.block([
            [(1 + nu) / 2 * eye + nu * fm.k_tilde - fp.k_tilde,
             fp.v_tilde - fm.v_tilde],
            [nu * (fm.t_op - fp.t_op),
             (1 + nu) / 2 * eye + nu * fp.kt_tilde - fm.kt_tilde],
        ])
        mid = np.block([[zero, v_k], [-nu * h_k, zero]])
        rhs = (l1_tilde + 2.0 * mid @ l2) / (nu + 1.0)
        assert np.max(np.abs(l3 - rhs)) <= 1e-8 * np.max(np.abs(l3)), nu


def test_l3_matches_plain_l1_composition_for_smooth_data():
    # with every operator resolved, the plain-family composition agrees on a
    # smooth density to discretization accuracy
    prob = TransmissionProblem(KITE, 2.0, 4.0, 1.0, PlaneWave((1.0, 0.0)))
    N = 64
    kappa = 2.0 + 0.5j
    l1 = assemble("l1", prob, N).matrix
    l2 = assemble("l2", prob, N).matrix
    l3 = assemble("l3", prob, N, kappa=kappa).matrix
    v_k, h_k = ps_operators(KITE, N, kappa)
    zero = np.zeros((2 * N, 2 * N))
    mid = np.block([[zero, v_k], [-h_k, zero]])
    t = grid(N)
    smooth = np.exp(np.cos(t))
    v = np.concatenate([smooth, np.sin(t) * smooth])
    gap = l3 @ v - 0.5 * (l1 @ v) - mid @ (l2 @ v)
    assert np.max(np.abs(gap)) <= 1e-8 * np.max(np.abs(l3 @ v))


def test_gmres_reports_the_true_residual_it_met():
    # the Arnoldi estimate read 7.8e-14 here while the true residual of the
    # iterate was 1.3e-13
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    system = assemble("l2", prob, 64)
    result = solve(system, "gmres", tol=1e-13)
    x = np.concatenate([result.a, result.phi])
    true = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
    assert true <= 1e-13
    assert result.diagnostics.residual == pytest.approx(true, rel=1e-6)


def test_l3_gmres_converges_faster_than_l2():
    # eigenvalue clustering diagnostic: measured 151 (l2) against 72 (l3)
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    N = 64
    s2 = assemble("l2", prob, N)
    s3 = assemble("l3", prob, N)
    it2, it3 = (solve(s, "gmres", tol=1e-10).diagnostics.iterations
                for s in (s2, s3))
    print(f"\n    gmres iterations at tol 1e-10: l2 = {it2}, l3 = {it3}")
    assert 0 < it3 < it2


# -------------------------------------------------------------- L4 specifics


def test_l4_rejects_zero_rho():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    with pytest.raises(ValueError):
        assemble("l4", prob, 16, rho=0.0)


@pytest.mark.parametrize("form, keyword, bad", [
    ("l4", "rho", 1j), ("l4", "rho", np.complex128(2.0 + 1.0j)), ("l4", "rho", [1, 2]),
    ("l4", "rho", "x"), ("l4", "rho", np.inf),
    ("l3", "kappa", [1, 2]), ("l3", "kappa", "x"), ("l3", "kappa", 8.0),
    ("l3", "kappa", complex(np.nan, 1.0)),
])
def test_bad_rho_and_kappa_are_named_with_their_value(form, keyword, bad):
    # not one number of the right kind: the same ValueError, naming the value
    message = {"rho": "rho must be a finite nonzero real number",
               "kappa": "kappa must be finite with a positive imaginary part"}[keyword]
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {bad!r}")):
        assemble(form, prob, 16, **{keyword: bad})


def test_each_formulation_reads_only_its_own_keyword():
    # the driver passes kappa and rho to every formulation
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    for form in FORMULATIONS:
        formulations.empty_slot()
        plain = assemble(form, prob, 16).matrix.tobytes()
        formulations.empty_slot()
        other = "rho" if form == "l3" else "kappa"
        both = assemble(form, prob, 16, **{other: 1.0}).matrix.tobytes()
        assert both == plain, form
    assert assemble("l3", prob, 16, rho=1.0).kappa == 8.0 + 0.5j


def test_l4_reconstruction_identities(transmission_results):
    """The exterior/interior densities reproduce the direct traces:
    gamma u- = -2 V- mu_phys and the far fields already agree (covered by the
    pairwise test); here we check the interior trace against L1."""
    prob, results = transmission_results
    res4 = results["l4"]
    res1 = results["l1"]
    fam_minus = _op_families(prob, res4.N)[1]
    mu_phys = -res4.mu
    trace_minus_l4 = -2.0 * (fam_minus.v_plain @ mu_phys)
    trace_minus_l1 = -res1.a
    assert np.max(np.abs(trace_minus_l4 - trace_minus_l1)) <= 1e-9 * max(
        1.0, np.max(np.abs(trace_minus_l1))
    )


def test_far_field_error_beats_fourth_order():
    # error against a 2x-resolution reference decays faster than N^-4
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    errs = []
    for N in (64, 96, 128):
        res = solve(assemble("l2", prob, N))
        ref = solve(assemble("l2", prob, 2 * N))
        ff = _exterior_far_field(prob, res)
        ff_ref = _exterior_far_field(prob, ref)
        errs.append(far_field_linf_diff(ff, ff_ref))
    assert errs[0] / errs[1] >= (96.0 / 64.0) ** 4
    assert errs[1] / errs[2] >= (128.0 / 96.0) ** 4


def test_solver_diagnostics_recorded():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    system = assemble("l2", prob, 32)
    res = solve(system, method="gmres", tol=1e-8)
    assert res.diagnostics.method == "gmres"
    assert res.diagnostics.iterations > 0
    assert res.diagnostics.residual <= 1e-8
    assert res.diagnostics.history is not None
    direct = solve(system)
    assert direct.diagnostics.method == "lu"
    assert direct.diagnostics.residual <= 1e-10


def test_lu_diagnostics_carry_rcond():
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    system = assemble("l1", prob, 32)
    rcond = solve(system).diagnostics.rcond
    assert 0.0 < rcond <= 1.0
    exact = 1.0 / np.linalg.cond(system.matrix, 1)
    assert exact * (1.0 - 1e-12) <= rcond <= 3.0 * exact
    assert solve(system, method="gmres", tol=1e-8).diagnostics.rcond is None


# ------------------------------------------------- many incidences, one system


def _sweep_problems(n, curve=KITE, k_plus=3.0, k_minus=5.0):
    angles = 0.3 + 2.0 * np.pi * np.arange(n) / n
    return [
        TransmissionProblem(curve, k_plus, k_minus, 1.0,
                            PlaneWave((np.cos(t), np.sin(t))))
        for t in angles
    ]


def test_incidence_sweep_assembles_and_factors_once(monkeypatch):
    calls = {"families": 0, "factors": 0}
    family, factor = formulations.OperatorFamily, linalg.lu_factor

    def counted_family(*args, **kw):
        calls["families"] += 1
        return family(*args, **kw)

    def counted_factor(*args, **kw):
        calls["factors"] += 1
        return factor(*args, **kw)

    monkeypatch.setattr(formulations, "OperatorFamily", counted_family)
    monkeypatch.setattr(linalg, "lu_factor", counted_factor)
    results = [solve(assemble("l1", prob, 32)) for prob in _sweep_problems(8)]
    assert calls == {"families": 2, "factors": 1}
    monkeypatch.undo()
    # each far field is bit for bit that of a cold assembly and factorization
    for prob, res in zip(_sweep_problems(8), results):
        formulations.empty_slot()
        cold = solve(assemble("l1", prob, 32))
        assert _exterior_far_field(prob, res).values.tobytes() == \
            _exterior_far_field(prob, cold).values.tobytes()


def test_reused_incidence_samples_no_curve_points(monkeypatch):
    # a hit builds data and far field on the grid geometry the curve keeps
    # for its last N, so after the first incidence no curve point is sampled
    first, again = _sweep_problems(2)
    _exterior_far_field(first, solve(assemble("l1", first, 32)))
    sampled = []
    trig_sum = ParametricCurve._trig_sum

    def counted_sum(self, t, order):
        sampled.append((order, np.size(t)))
        return trig_sum(self, t, order)

    monkeypatch.setattr(ParametricCurve, "_trig_sum", counted_sum)
    _exterior_far_field(again, solve(assemble("l1", again, 32)))
    assert sampled == []


_BASE = ("l1", dict(curve=ellipse(2.0, 1.0), k_plus=3.0, k_minus=5.0, nu=1.0), 8, {})
_CHANGED = {
    "formulation": ("l2", {}, None, {}),
    "curve coefficients": (None, {"curve": ellipse(2.0, 1.5)}, None, {}),
    "curve name": (None, {"curve": ParametricCurve("oval", [[0.0, 2.0], [0.0, 0.0]],
                                                   [[0.0], [1.0]])}, None, {}),
    "k_plus": (None, {"k_plus": 3.5}, None, {}),
    "k_minus": (None, {"k_minus": 5.5}, None, {}),
    "nu": (None, {"nu": 2.0}, None, {}),
    "N": (None, {}, 10, {}),
    "kappa": ("l3", {}, None, {"kappa": 3.0 + 1.0j}),
    "rho": ("l4", {}, None, {"rho": 2.0}),
}


def _assemble_case(form, fields, N, kw, direction=(1.0, 0.0)):
    prob = TransmissionProblem(incident=PlaneWave(direction), **fields)
    return assemble(form, prob, N, **kw)


@pytest.mark.parametrize("changed", sorted(_CHANGED))
def test_any_key_change_rebuilds(changed):
    form, fields, N, kw = _CHANGED[changed]
    base_form, base_fields, base_n, base_kw = _BASE
    if form in ("l3", "l4"):
        # the resolved kappa/rho is the changed field, not the formulation
        base_form = form
    base = _assemble_case(base_form, base_fields, base_n, base_kw)
    again = _assemble_case(base_form, base_fields, base_n, base_kw, (0.0, 1.0))
    assert again.matrix is base.matrix
    other = _assemble_case(form or base_form, {**base_fields, **fields},
                           N or base_n, kw, (0.0, 1.0))
    assert other.matrix is not base.matrix
    _, kept, _ = formulations._slot
    assert kept.matrix is other.matrix


@pytest.mark.parametrize("bad", [16.0, 16.5, "16"])
def test_grid_size_is_an_integer_at_least_min_n(bad):
    # a cold float N failed deep in numpy, and the same call was a slot hit
    prob = _sweep_problems(1)[0]
    for form in ("l1", "l4"):
        formulations.empty_slot()
        with pytest.raises(ValueError, match="N must be an integer >= 8"):
            assemble(form, prob, bad)
        assemble(form, prob, 16)
        with pytest.raises(ValueError, match=f"N must be an integer >= 8, got {bad!r}"):
            assemble(form, prob, bad)
    with pytest.raises(ValueError, match="N must be an integer >= 8"):
        OperatorFamily(KITE, 8.0, bad)
    hit = assemble("l4", prob, np.int64(16))
    assert hit.N == 16 and type(hit.N) is int
    assert OperatorFamily(KITE, 8.0, np.int64(16)).N == 16


@pytest.mark.parametrize("bad", [16.0, 16.5, "16"])
def test_data_grid_size_is_an_integer(bad):
    # build_data(prob, 16.5) used to return data on 33 nodes
    prob = _sweep_problems(1)[0]
    with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {bad!r}"):
        build_data(prob, bad)
    assert build_data(prob, np.int64(16)).h.shape == (32,)


def test_builders_build_only_the_kappa_family(monkeypatch):
    # the k+ and k- families are what a builder is given; l3's regularizer is
    # a Fourier multiplier, so l3 builds no family for kappa either
    prob = _sweep_problems(1)[0]
    fp, fm = _op_families(prob, 16)
    built = _count_families(monkeypatch)
    formulations.assemble_l1(prob, 16, fp, fm)
    formulations.assemble_l2(prob, 16, fp, fm, "l2")
    formulations.assemble_l2(prob, 16, fp, fm, "l2plain")
    formulations.assemble_l4(prob, 16, fp, fm, 3.0)
    assert built == []
    formulations.assemble_l3(prob, 16, fp, fm, 3.0 + 0.5j)
    assert built == []


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        yield from _arrays(list(value.values()))
    elif is_dataclass(value):
        yield from _arrays([getattr(value, f.name) for f in dataclass_fields(value)])


def test_l4_result_holds_no_operator_matrix():
    # the result keeps its densities and terms, not the K'- and V- they were
    # formed with, so a kept result pins no 2N x 2N matrix
    prob = _sweep_problems(1)[0]
    for method in ("lu", "gmres"):
        result = solve(assemble("l4", prob, 16), method, tol=1e-12)
        held = list(_arrays([getattr(result, f.name) for f in dataclass_fields(result)
                             if f.name != "problem"]))
        assert any(array is result.mu for array in held)
        assert [array.shape for array in held if array.ndim != 1] == []


def test_shared_arrays_are_read_only():
    probs = _sweep_problems(2)
    cold, hit = (assemble("l3", prob, 8) for prob in probs)
    assert hit.matrix is cold.matrix
    cold4, hit4 = (assemble("l4", prob, 8) for prob in probs)
    assert hit4.aux["kt_minus"] is cold4.aux["kt_minus"]
    shared = (cold.matrix, hit.matrix, hit4.matrix, *hit4.aux.values())
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_l4_keeps_its_own_contiguous_kt_minus():
    # the family's K'- is a transposed view; l4 hands K'- to BLAS in its two
    # products and in every solve, so its aux holds a C-contiguous copy
    prob = _sweep_problems(1)[0]
    system = assemble("l4", prob, 16)
    kt_m = system.aux["kt_minus"]
    fm = formulations._slot[2][1]  # the families the build kept
    assert kt_m.flags.c_contiguous and not kt_m.flags.writeable
    assert kt_m is not fm.kt_plain
    assert kt_m.tobytes() == np.ascontiguousarray(fm.kt_plain).tobytes()


def test_a_cold_pass_of_all_five_formulations_fits_its_memory_bound():
    # kite, k+ = 8, k- = 32, N = 128.  What stays held is the two families'
    # kernel operators (10 MiB), Lambda and D Lambda D (1 MiB) and the slot's
    # system with its LU factors (8 MiB); the bound leaves 3 MiB above that
    # for the largest transient (a kernel pass, a builder's temporaries)
    formulations.empty_slot()
    prob = TransmissionProblem(KITE, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    tracemalloc.start()
    try:
        for formulation in FORMULATIONS:
            solve(assemble(formulation, prob, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        formulations.empty_slot()
    assert peak <= 22 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_regularizer_keeps_only_its_two_full_blocks():
    # R_PS = [I, 2 V_PS; -2 nu H_PS, nu I] / (nu + 1) is applied by FFTs, so a
    # system, kept or handed out by a hit, holds no 2N x 2N block of it
    probs = [TransmissionProblem(KITE, 3.0, 5.0, 2.0, PlaneWave(d))
             for d in ((0.6, 0.8), (0.8, 0.6))]
    N = 16
    for system in (assemble("l3", prob, N) for prob in probs):
        held = list(_arrays([getattr(system, f.name) for f in dataclass_fields(system)
                             if f.name != "problem"]))
        assert [array.shape for array in held if array.ndim != 1] == [(4 * N, 4 * N)]
    v_ps, h_ps = ps_operators(KITE, N, system.kappa)
    eye = np.eye(2 * N)
    dense = np.block([[eye / 3.0, (2.0 / 3.0) * v_ps],
                      [(-4.0 / 3.0) * h_ps, (2.0 / 3.0) * eye]])
    data = build_data(probs[1], N)
    v = np.concatenate([data.h, data.eta])
    # within the rounding bound n eps |R| |v| of a matrix-vector product
    bound = dense.shape[0] * np.finfo(float).eps * (np.abs(dense) @ np.abs(v))
    assert np.all(np.abs(system.rhs - dense @ v) <= bound)


def test_l3_assembly_calls_no_complex_bessel_function(monkeypatch):
    calls = []
    for name in ("bessel_j_complex", "hankel1_complex"):
        def counted(order, z, _fn=getattr(specfun, name), _name=name):
            calls.append(_name)
            return _fn(order, z)
        monkeypatch.setattr(specfun, name, counted)
    formulations.empty_slot()
    system = assemble("l3", _sweep_problems(1)[0], 16)
    solve(system)
    assert calls == []


def test_principal_symbol_operator_on_the_circle_is_one_circulant():
    # |x'| is constant on the circle up to rounding: one circulant, unit weight
    N, kappa = 16, 4.0 + 0.5j
    prob = TransmissionProblem(circle(1.7), 4.0, 6.0, 1.0, PlaneWave())
    speed = np.linalg.norm(grid_geometry(prob.curve, N)[2], axis=-1)
    assert np.ptp(speed) > 0.0
    for terms in formulations._principal_symbols(prob, N, kappa):
        assert len(terms) == 1
        assert np.array_equal(terms[0][0], np.ones(2 * N))
    for op in ps_operators(prob.curve, N, kappa):
        assert np.array_equal(op, np.roll(np.roll(op, 1, axis=0), 1, axis=1))
    # on the kite the speed varies and three circulants are weighted by it
    for terms in formulations._principal_symbols(_sweep_problems(1)[0], N, kappa):
        assert len(terms) == 3


# measured on the dense regularizer R_kappa (AMOS V and H at kappa = k+ + i/2)
# at tol 1e-10, plane wave (1, 0), k+ = 8, k- = 32; R_PS may not do worse
_DENSE_L3_GMRES = {"kite": 77, "cavity": 78}
_DENSE_L3_RCOND = {"kite": 6.32e-6, "cavity": 4.27e-6, "ellipse": 6.11e-6,
                   "circle": 4.64e-5}


@pytest.mark.parametrize("name", sorted(_DENSE_L3_RCOND))
def test_l3_is_no_worse_conditioned_than_with_the_dense_regularizer(name):
    prob = TransmissionProblem(make_curve(name), 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
    if name in _DENSE_L3_GMRES:
        for N in (128, 256):
            result = solve(assemble("l3", prob, N), "gmres", tol=1e-10)
            assert result.diagnostics.iterations <= _DENSE_L3_GMRES[name], N
    rcond = solve(assemble("l3", prob, 256)).diagnostics.rcond
    assert rcond >= _DENSE_L3_RCOND[name]


def test_nonfinite_block_is_named(monkeypatch):
    prob = TransmissionProblem(circle(1.7), 4.5, 6.5, 1.0, PlaneWave((1.0, 0.0)))
    ef = operators.ef_matrices

    def poisoned(ctx, N):
        e_mat, f_mat, *expanded = ef(ctx, N)
        if ctx.k == 6.5:
            f_mat = f_mat.copy()
            f_mat[3, 5] = np.nan
        return (e_mat, f_mat, *expanded)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "ef_matrices", poisoned)
        with pytest.raises(ValueError, match="l1: non-finite entries in block a21"):
            assemble("l1", prob, 12)
    assert formulations._slot is None  # a failed build leaves nothing to reuse
    assert np.all(np.isfinite(assemble("l1", prob, 12).matrix))


def test_slot_under_threads_never_returns_a_wrong_matrix():
    # two keys fought over by more threads than cores: every system must carry
    # its own key's matrix and LU, whichever thread built or factored them
    prob = _sweep_problems(1)[0]
    cold = {N: assemble_l1(prob, N, *_op_families(prob, N)) for N in (8, 10)}
    probs = _sweep_problems(6)

    def work(i):
        N = (8, 10)[i % 2]
        system = assemble("l1", probs[i % 6], N)
        return N, system.matrix.tobytes(), solve(system).diagnostics.residual

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, i) for i in range(48)]
            done = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for N, matrix, residual in done:
        assert matrix == cold[N].tobytes()
        assert residual <= 1e-12


# ------------------------------------------- operator families per problem


def _count_families(monkeypatch):
    built = []
    family = formulations.OperatorFamily

    def counted_family(curve, k, N):
        built.append((k, N))
        return family(curve, k, N)

    monkeypatch.setattr(formulations, "OperatorFamily", counted_family)
    return built


def test_five_formulations_build_three_families_and_keep_two(monkeypatch):
    built = _count_families(monkeypatch)
    prob = _sweep_problems(1)[0]
    for form in FORMULATIONS:
        assemble(form, prob, 16)
    # l3 builds no family for kappa: the k+ and k- families serve all five
    assert built == [(3.0, 16), (5.0, 16)]
    assert [f.ctx.k for f in formulations._slot[2]] == [3.0, 5.0]
    assemble("l3", prob, 16, kappa=2.0 + 1.0j)
    assert len(built) == 2
    assert [f.ctx.k for f in formulations._slot[2]] == [3.0, 5.0]
    # equal wavenumbers share one family; a new N builds afresh
    matched = TransmissionProblem(KITE, 3.0, 3.0, 1.0, PlaneWave((1.0, 0.0)))
    assemble("l1", matched, 16)
    assemble("l2", matched, 16)
    fp, fm = formulations._slot[2]
    assert fp is fm
    assemble("l2", matched, 20)
    assert built[2:] == [(3.0, 16), (3.0, 20)]


def test_equal_problem_builds_its_own_families(monkeypatch):
    built = _count_families(monkeypatch)
    first, again = (TransmissionProblem(KITE, 3.0, 5.0, 1.0, PlaneWave((1.0, 0.0)))
                    for _ in range(2))
    assert first == again and first is not again
    assemble("l1", first, 16)
    assemble("l2", again, 16)
    assert len(built) == 4
    _, kept, families = formulations._slot
    assert kept.problem is again and families is not None


def test_hit_for_another_problem_drops_the_families(monkeypatch):
    # an incidence sweep keeps no families past its first problem
    built = _count_families(monkeypatch)
    first, again = _sweep_problems(2)
    assemble("l1", first, 16)
    assert formulations._slot[1].problem is first
    assert formulations._slot[2] is not None
    hit = assemble("l1", again, 16)
    _, kept, families = formulations._slot
    assert hit.matrix is kept.matrix and kept.problem is first
    assert families is None
    assemble("l2", first, 16)
    assert len(built) == 4


def test_empty_slot_drops_the_families(monkeypatch):
    built = _count_families(monkeypatch)
    prob = _sweep_problems(1)[0]
    assemble("l1", prob, 16)
    formulations.empty_slot()
    assert formulations._slot is None
    assemble("l2", prob, 16)
    assert len(built) == 4


def test_failed_build_keeps_no_families(monkeypatch):
    # the poisoned F of k- is cached in its family before the block check
    # fails; the next build of the same problem must not see it
    prob = TransmissionProblem(circle(1.7), 4.5, 6.5, 1.0, PlaneWave((1.0, 0.0)))
    ef = operators.ef_matrices

    def poisoned(ctx, N):
        e_mat, f_mat, *expanded = ef(ctx, N)
        if ctx.k == 6.5:
            f_mat = f_mat.copy()
            f_mat[3, 5] = np.nan
        return (e_mat, f_mat, *expanded)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "ef_matrices", poisoned)
        with pytest.raises(ValueError, match="l4: non-finite entries in block a11"):
            assemble("l4", prob, 12)
    assert formulations._slot is None
    for form in FORMULATIONS:
        assert np.all(np.isfinite(assemble(form, prob, 12).matrix))


def test_shared_families_under_threads_match_cold_builds():
    # two problems with the same wavenumbers on different curves, five
    # formulations each, fought over by more threads than cores: every matrix
    # must be that of a build on its own
    other = TransmissionProblem(ellipse(2.0, 1.0), 3.0, 5.0, 2.0, PlaneWave((0.0, 1.0)))
    probs = [_sweep_problems(1)[0], other]
    cold = {}
    for i, prob in enumerate(probs):
        for form in FORMULATIONS:
            formulations.empty_slot()
            cold[i, form] = assemble(form, prob, 12).matrix.tobytes()
    formulations.empty_slot()
    jobs = [(i, form) for i in range(2) for form in FORMULATIONS] * 3

    def work(job):
        i, form = job
        return job, assemble(form, probs[i], 12).matrix.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, job) for job in jobs]
            done = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(done) == len(jobs)
    for job, matrix in done:
        assert matrix == cold[job]


_COMPOSITION_CASES = {
    "kite": (KITE, 8.0, 32.0, 1.0, 64),
    "cavity nu=2": (make_curve("cavity"), 3.0, 5.0, 2.0, 48),
    "circle nu=1/2": (circle(), 4.0, 6.0, 0.5, 32),
}


@pytest.mark.parametrize("form", ["l3", "l4"])
@pytest.mark.parametrize("case", sorted(_COMPOSITION_CASES))
def test_block_algebra_matches_the_full_matrix_oracle(case, form):
    # the block products reassociate the sums of the full-matrix forms; the
    # bound n eps max|A| was fixed before measuring
    curve, k_plus, k_minus, nu, N = _COMPOSITION_CASES[case]
    prob = TransmissionProblem(curve, k_plus, k_minus, nu, PlaneWave((0.6, 0.8)))
    system = assemble(form, prob, N)
    if form == "l3":
        fp, fm = _op_families(prob, N)
        oracle = l3_full_matrix(prob, N, fp, fm, system.kappa,
                                assemble("l2", prob, N).matrix)
    else:
        fp, fm = _op_families(prob, N)
        oracle = l4_full_matrix(prob, N, system.rho, fp, fm)
    n = oracle.shape[0]
    assert np.max(np.abs(system.matrix - oracle)) <= \
        n * np.finfo(float).eps * np.max(np.abs(oracle))
    # far fields within the bound of ``helmbie verify crossform``
    ff = _exterior_far_field(prob, solve(system))
    oracle_system = replace(system, matrix=oracle, _lu=[])
    ff_oracle = _exterior_far_field(prob, solve(oracle_system))
    assert far_field_linf_diff(ff, ff_oracle) <= 1e-8


# ------------------------------------------------------------- stage timings


def test_lu_stages_time_the_factor_only_when_it_is_computed():
    first, again = _sweep_problems(2)
    fresh = solve(assemble("l1", first, 32)).diagnostics
    reused = solve(assemble("l1", again, 32)).diagnostics
    assert set(fresh.stages) == {"assemble", "factor", "solve", "residual"}
    assert fresh.stages["factor"] > 0.0 and reused.stages["factor"] == 0.0
    for diag in (fresh, reused):
        assert all(t >= 0.0 for t in diag.stages.values())
        # ``seconds`` is the solve's own time, which assembly precedes
        assert sum(diag.stages.values()) - diag.stages["assemble"] <= diag.seconds
    system = assemble("l1", first, 32)
    gmres_diag = solve(system, method="gmres", tol=1e-8).diagnostics
    assert set(gmres_diag.stages) == {"assemble", "gmres", "residual"}
    assert gmres_diag.stages["assemble"] == system.seconds
    stages = gmres_diag.stages
    assert stages["gmres"] + stages["residual"] <= gmres_diag.seconds


def test_assemble_stage_times_the_call_that_returned_the_system():
    formulations.empty_slot()
    first, again = _sweep_problems(2)
    t0 = time.perf_counter()
    cold = assemble("l3", first, 24)
    t1 = time.perf_counter()
    hit = assemble("l3", again, 24)
    t2 = time.perf_counter()
    assert hit.matrix is cold.matrix
    # each call's own wall bounds its time, and a hit does not carry the
    # cold call's (that a hit builds only the data and the right-hand side
    # is test_incidence_sweep_assembles_and_factors_once's check)
    assert 0.0 < cold.seconds <= t1 - t0
    assert 0.0 < hit.seconds <= t2 - t1
    assert hit.seconds != cold.seconds
    assert solve(hit).diagnostics.stages["assemble"] == hit.seconds


# ------------------------------------------------------------- reciprocity

TOL_RECIPROCITY = 1e-10


@pytest.mark.parametrize("form", ["l1", "l2", "l3", "l4"])
@pytest.mark.parametrize("curve_name,N", [("circle", 48), ("kite", 96)])
def test_far_field_reciprocity(curve_name, N, form):
    """u_inf(x^; d) = u_inf(-d; -x^): with F[i, j] = u_inf(-d_i; d_j) over six
    incidences, F is symmetric (k+ = 8, k- = 16, both curves resolved)."""
    curve = make_curve(curve_name)
    probs = _sweep_problems(6, curve, 8.0, 16.0)
    observe = 0.3 + 2.0 * np.pi * np.arange(6) / 6 + np.pi  # -d_i
    F = np.stack([
        _exterior_far_field(prob, solve(assemble(form, prob, N)), observe).values
        for prob in probs
    ], axis=1)
    assert np.max(np.abs(F - F.T)) <= TOL_RECIPROCITY * np.max(np.abs(F))


TOL_UNITARITY = 1e-12  # relative to |z0|; fixed before measuring


@pytest.mark.parametrize("form,k_plus", [("l1", 8.0), ("l3", 8.0), ("l4", 8.0),
                                         ("l1", 4.0)])
def test_far_field_operator_eigenvalues_lie_on_the_unitarity_circle(form, k_plus):
    """For real k+, k- and nu > 0 the scatterer absorbs no energy, so the
    far-field operator is normal and its eigenvalues lie on the circle
    through 0 with centre z0 = 4 pi |gamma(k+)| e^{3i pi/4}.  On m = 64
    equispaced directions (32 under-resolve the direction integral) with
    x^_i = d_i, A = (2 pi / m) [u_inf(x^_i; d_j)] is its discrete form."""
    m = 64
    probs = _sweep_problems(m, KITE, k_plus, 16.0)
    directions = 0.3 + 2.0 * np.pi * np.arange(m) / m
    A = (2.0 * np.pi / m) * np.stack([
        _exterior_far_field(prob, solve(assemble(form, prob, 160)), directions).values
        for prob in probs
    ], axis=1)
    z0 = 4.0 * np.pi * abs(far_field_constant(k_plus)) * np.exp(0.75j * np.pi)
    radii = np.abs(np.linalg.eigvals(A) - z0)
    assert np.max(np.abs(radii - abs(z0))) <= TOL_UNITARITY * abs(z0)

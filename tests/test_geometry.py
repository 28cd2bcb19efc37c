import ast
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import helmbie
from helmbie.fields import (FarFieldPattern, FieldEvaluator, double_layer_far_field,
                            double_layer_potential, far_field_constant, single_layer_far_field,
                            single_layer_potential)
from helmbie.fourier import (TrigPolynomial, dld_matrix, dld_symbol, fft_modes, lambda_matrix,
                             lambda_symbol, psi_hat, weight_table)
from helmbie.formulations import (PlaneWave, PointSource, TransmissionProblem, assemble,
                                  build_data, solve)
from helmbie.geometry import (
    FINE_SAMPLES,
    ParametricCurve,
    cavity,
    circle,
    ellipse,
    grid,
    grid_geometry,
    kite,
    make_curve,
)
from helmbie.kernels import KernelContext
from helmbie.linalg import lu_factor, lu_solve
from helmbie.operators import OperatorFamily

from oracles import norm_distance, normal

ALL_CURVES = [circle(), ellipse(2.0, 1.0), kite(), cavity()]
KITE = kite()


def test_circle_eval_at_zero():
    c = circle()
    x, dx, ddx = c.point(0.0), c.d1(0.0), c.d2(0.0)
    assert np.allclose(x, [1.0, 0.0], atol=1e-15)
    assert np.allclose(dx, [0.0, 1.0], atol=1e-15)
    assert np.allclose(ddx, [-1.0, 0.0], atol=1e-15)


def test_kite_point_at_zero():
    x = kite().point(0.0)
    assert np.allclose(x, [1.0, 0.0], atol=1e-15)


def test_circle_unit_speed():
    t = np.linspace(0, 2 * np.pi, 37)
    assert np.allclose(circle().speed(t), 1.0, atol=1e-14)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_periodicity(curve):
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 2 * np.pi, 1000)
    x1 = curve.point(t)
    x2 = curve.point(t + 2 * np.pi)
    scale = 1.0 + np.linalg.norm(x1, axis=-1)
    assert np.all(np.linalg.norm(x1 - x2, axis=-1) <= 1e-14 * scale)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_regularity(curve):
    t = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    assert np.all(curve.speed(t) > 0)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_derivatives_by_finite_differences(curve):
    rng = np.random.default_rng(11)
    t = rng.uniform(0, 2 * np.pi, 50)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (curve.point(t + h) - curve.point(t - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - curve.d1(t))))
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.9


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_normal_unit_and_orthogonal(curve):
    t = np.linspace(0, 2 * np.pi, 500, endpoint=False)
    n = normal(curve, t)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-14
    dots = np.abs(np.sum(n * curve.d1(t), axis=-1))
    assert np.max(dots / curve.speed(t)) <= 1e-13


def test_normal_outward_on_circle():
    assert np.allclose(normal(circle(), 0.0), [1.0, 0.0], atol=1e-15)
    assert np.allclose(normal(circle(), np.pi / 2), [0.0, 1.0],
                       atol=1e-15)


def test_ellipse_normal_matches_implicit_gradient():
    a, b = 2.0, 1.0
    curve = ellipse(a, b)
    t = np.linspace(0, 2 * np.pi, 33)
    x = curve.point(t)
    grad = np.stack([2 * x[:, 0] / a**2, 2 * x[:, 1] / b**2], axis=-1)
    grad /= np.linalg.norm(grad, axis=-1, keepdims=True)
    assert np.max(np.abs(normal(curve, t) - grad)) <= 1e-13


def test_cavity_is_reentrant():
    # signed curvature x' x w'' / |x'|^3 changes sign at the dimple
    curve = cavity()
    t = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    d1, d2 = curve.d1(t), curve.d2(t)
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert cross.min() < 0 < cross.max()


def test_grid_small_cases():
    assert np.allclose(grid(1), [0.0, np.pi])
    assert np.allclose(grid(2), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    g = grid(64)
    assert len(g) == 128
    assert np.allclose(np.diff(g), np.pi / 64)


def test_grid_geometry_normal_carries_speed():
    curve = kite()
    t, x, m = grid_geometry(curve, 16)
    assert np.array_equal(t, grid(16))
    assert np.array_equal(x, curve.point(t))
    assert np.max(np.abs(m - curve.speed(t)[:, None] * normal(curve, t))) <= 1e-14


def test_grid_geometry_is_sampled_once_and_read_only(monkeypatch):
    curve = kite()
    first = grid_geometry(curve, 16)
    calls = []
    point = type(curve).point
    monkeypatch.setattr(type(curve), "point",
                        lambda self, t: calls.append(np.size(t)) or point(self, t))
    assert all(a is b for a, b in zip(grid_geometry(curve, 16), first))
    assert calls == []
    for array in first:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    grid_geometry(curve, 8)
    assert calls == [16]


def test_grid_geometry_under_threads_matches_its_n():
    # threads sharing one curve replace each other's cached N; each must
    # still get the geometry of the N it asked for
    curve = kite()
    expected = {n: curve.point(grid(n)) for n in (8, 9, 10, 11)}

    def check(i):
        n = 8 + i % 4
        _, x, _ = grid_geometry(curve, n)
        return np.array_equal(x, expected[n])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(check, range(2000), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)


def _guard_test_points(curve, rng, count):
    """Far points, points just outside 5 h max|x'| for N = 64, points on the
    curve between and at the fine-sample nodes, in a shuffled order."""
    t = rng.uniform(0.0, 2.0 * np.pi, count)
    guard = 5.0 * (np.pi / 64) * curve.max_speed()
    past = curve.point(t) + (guard * (1.0 + 1e-9)) * normal(curve, t)
    radius = rng.uniform(3.0, 8.0, count)
    far = np.stack([radius * np.cos(t), radius * np.sin(t)], axis=-1)
    nodes = 2.0 * np.pi * rng.integers(0, FINE_SAMPLES, count) / FINE_SAMPLES
    on = np.concatenate([curve.point(t), curve.point(nodes)])
    pts = np.concatenate([far, past, on])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("curve", [kite(), cavity()], ids=lambda c: c.name)
def test_distance_is_the_blocked_norm_bit_for_bit(curve):
    rng = np.random.default_rng(17)
    pts = _guard_test_points(curve, rng, 50)
    got = curve.distance(pts)
    assert got.tobytes() == norm_distance(curve, pts).tobytes()
    assert np.count_nonzero(got == 0.0) >= 40  # fine-sample nodes
    assert curve.distance(pts[0]).tobytes() == got[:1].tobytes()


SIZED_CURVES = [kite(), cavity(), circle(1.7), circle(1e-3), ellipse(2.0, 0.3),
                ellipse(300.0, 1.0)]


@pytest.mark.parametrize("curve", SIZED_CURVES, ids=lambda c: f"{c.name}-{c.max_speed():.0e}")
def test_distance_is_the_norm_oracle_at_every_scale(curve):
    # point clouds around the curve from 1e-6 to 1e3 times its size
    rng = np.random.default_rng(41)
    size = curve.max_speed()
    t = rng.uniform(0.0, 2.0 * np.pi, 600)
    scale = size * 10.0 ** rng.uniform(-6.0, 3.0, (600, 1))
    pts = curve.point(t) + scale * rng.standard_normal((600, 2))
    assert curve.distance(pts).tobytes() == norm_distance(curve, pts).tobytes()


@pytest.mark.parametrize("curve", SIZED_CURVES, ids=lambda c: f"{c.name}-{c.max_speed():.0e}")
def test_near_keeps_every_point_within_the_radius(curve):
    """Points along the normal at a fine node, from radius (1 - 1e-15) to
    radius: the squared comparison inside the bounded query must not drop
    one whose distance rounds to at most the bound, and must measure each
    point it keeps bit for bit as the unbounded query does."""
    rng = np.random.default_rng(43)
    nodes = 2.0 * np.pi * rng.integers(0, FINE_SAMPLES, 200) / FINE_SAMPLES
    for n in (16, 64, 256):
        radius = 5.0 * (np.pi / n) * curve.max_speed()
        along = radius * (1.0 - 1e-15 * rng.uniform(0.0, 1.0, (200, 1)))
        pts = curve.point(nodes) + along * normal(curve, nodes)
        dist = curve.distance(pts)
        bounded = curve.distance(pts, radius)
        kept = np.isfinite(bounded)
        assert np.all(kept[dist <= radius])
        assert np.all(dist[kept] <= radius * (1.0 + 2e-12))
        assert bounded[kept].tobytes() == dist[kept].tobytes()
    # and at each point's own rounded distance, where the bare query drops most
    for p, d in zip(pts[:50], dist[:50]):
        assert curve.distance(p, d).tobytes() == np.array([d]).tobytes()


def test_distance_under_threads_on_a_fresh_curve():
    # threads race to build the shared tree; each must get the oracle's bits
    pts = _guard_test_points(KITE, np.random.default_rng(47), 20)
    expected = norm_distance(KITE, pts).tobytes()
    curves = [kite() for _ in range(20)]

    def check(i):
        curve = curves[i % len(curves)]
        return curve.distance(pts).tobytes() == expected and bool(
            np.all(np.isfinite(curve.distance(pts, 0.1))[curve.distance(pts) <= 0.1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(check, range(200), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)


@pytest.mark.parametrize("within", [-1.0, np.nan, -np.inf])
def test_distance_rejects_a_bound_that_is_not_a_distance(within):
    with pytest.raises(ValueError, match="within must be a distance >= 0"):
        KITE.distance([3.0, 0.0], within)


def test_unbounded_distance_is_the_default():
    pts = _guard_test_points(KITE, np.random.default_rng(53), 20)
    assert KITE.distance(pts, np.inf).tobytes() == KITE.distance(pts).tobytes()
    assert np.all(KITE.distance(pts, 0.0)[KITE.distance(pts) > 0.0] == np.inf)


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
def test_distance_rejects_nonfinite_points(bad):
    # helmbie's own message; the tree alone would raise scipy's
    pts = np.array([[3.0, 0.0], bad])
    for call in (KITE.distance, lambda p: KITE.distance(p, 1.0)):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            call(pts)


def test_import_leaves_the_distance_tree_unbuilt():
    # scipy.spatial is imported by the first distance query, not by helmbie
    code = ("import sys, helmbie; before = 'scipy.spatial' in sys.modules; "
            "helmbie.geometry.kite().distance([3.0, 0.0]); "
            "print(before, 'scipy.spatial' in sys.modules)")
    src = str(pathlib.Path(helmbie.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


def test_circle_distance_within_the_chord_bound():
    R = 1.7
    curve = circle(R)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 3.0 * R, 301)
    ang = rng.uniform(0.0, 2.0 * np.pi, 301)
    pts = np.stack([rho * np.cos(ang), rho * np.sin(ang)], axis=-1)
    gap = curve.distance(pts) - np.abs(rho - R)
    # the nearest fine node is at most half a chord, pi R / S, along the circle
    assert np.all(gap >= -1e-14)
    assert np.all(gap <= np.pi * R / FINE_SAMPLES + 1e-14)


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        grid(0)


@pytest.mark.parametrize("bad", [16.0, 16.5, "16"])
def test_grid_size_is_an_integer(bad):
    # grid(16.5) used to return 33 nodes spaced pi/16.5
    curve = kite()
    for make in (grid, lambda N: grid_geometry(curve, N)):
        with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {bad!r}"):
            make(bad)
    assert np.array_equal(grid(np.int64(16)), grid(16))
    t, x, m = grid_geometry(curve, np.int64(16))
    assert t.shape == (32,) and grid_geometry(curve, 16)[0] is t


@pytest.mark.parametrize("name, params", [
    ("circle", (0.0,)), ("ellipse", (2.0, 0.0)), ("ellipse", (0.0, 1.0)),
    ("circle", (np.nan,)), ("ellipse", (np.inf, 1.0)),
], ids=["circle 0", "ellipse 2,0", "ellipse 0,1", "circle nan", "ellipse inf,1"])
def test_degenerate_or_nonfinite_curve_rejected(name, params):
    # ellipse(2, 0) folds flat: its fine-sample speed is ~1e-16 at t = 0, not 0
    with pytest.raises(ValueError, match=r"degenerate|must be a finite real, got (nan|inf)$"):
        make_curve(name, *params)


@pytest.mark.parametrize("make, message", [
    (lambda: ParametricCurve("kite", KITE.cos_coef, -KITE.sin_coef),
     "curve 'kite' is clockwise; negate sin_coef"),
    (lambda: make_curve("ellipse", 2.0, -1.0), "curve 'ellipse' is clockwise; negate sin_coef"),
    # (sin t, sin 2t): the tangent turns 0 times
    (lambda: ParametricCurve("eight", np.zeros((2, 3)), [[1.0, 0.0], [0.0, 1.0]]),
     "curve 'eight' crosses itself: its tangent turns 0 times"),
    # r = 0.5 + cos t: the inner loop turns the tangent twice
    (lambda: ParametricCurve("limacon", [[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]],
                             [[0.0, 0.0], [0.5, 0.5]]),
     "curve 'limacon' crosses itself: its tangent turns 2 times"),
], ids=["reversed kite", "ellipse 2,-1", "figure eight", "looped limacon"])
def test_a_curve_the_method_does_not_cover_is_rejected(make, message):
    # a clockwise kite used to be accepted, and its l1, l3 and l4 far fields
    # then differed from the counterclockwise kite's by about 0.5
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_negated_radii_still_run_counterclockwise():
    # (-cos t, -sin t) is the circle turned by pi, not reversed
    for curve in (circle(-1.0), ellipse(-2.0, -1.0)):
        assert curve.winding_number((0.0, 0.0)) == 1


def test_make_curve_registry():
    assert make_curve("circle", 2.0).point(0.0)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_curve("square")


def test_curves_compare_and_hash_by_name_and_coefficients():
    again = ParametricCurve("kite", KITE.cos_coef.tolist(), KITE.sin_coef.tolist())
    assert again == KITE and again is not KITE and hash(again) == hash(KITE)
    bumped = KITE.cos_coef.copy()
    bumped[0, 1] = np.nextafter(bumped[0, 1], 2.0)
    padded = [np.hstack([c, np.zeros((2, 1))]) for c in (KITE.cos_coef, KITE.sin_coef)]
    others = [ParametricCurve("other", KITE.cos_coef, KITE.sin_coef),   # name
              ParametricCurve("kite", bumped, KITE.sin_coef),           # one coefficient
              ParametricCurve("kite", *padded)]                         # degree
    for other in others:
        assert other != KITE and KITE != other
    assert KITE != "kite" and KITE.__eq__(KITE.cos_coef) is NotImplemented
    assert len({kite(), kite(), again, *others}) == 1 + len(others)


def test_a_curve_keeps_read_only_copies_of_its_coefficients():
    # a change in place used to move the curve under its hash and its
    # kept grid, so a set lost it and grid_geometry returned stale nodes
    cos_coef, sin_coef = KITE.cos_coef.copy(), KITE.sin_coef.copy()
    curve = ParametricCurve("kite", cos_coef, sin_coef)
    nodes = grid_geometry(curve, 16)[1].copy()
    for coef in (curve.cos_coef, curve.sin_coef):
        with pytest.raises(ValueError, match="read-only"):
            coef[0, 0] += 1.0
    cos_coef[0, 0] += 1.0                     # the caller's array stays theirs
    assert curve in {KITE} and curve == KITE
    assert np.array_equal(grid_geometry(curve, 16)[1], nodes)
    assert np.array_equal(curve.point(0.0), KITE.point(0.0))


_CURVE_TAKERS = {
    "TransmissionProblem": lambda c: TransmissionProblem(c, 8.0, 32.0, 1.0, PlaneWave()),
    "KernelContext": lambda c: KernelContext(c, 2.0),
    "OperatorFamily": lambda c: OperatorFamily(c, 2.0, 8),
    "FieldEvaluator": lambda c: FieldEvaluator(c, [("sl", 2.0, np.ones(16))]),
    "grid_geometry": lambda c: grid_geometry(c, 8),
}


@pytest.mark.parametrize("bad", ["kite", None, np.zeros((2, 3))], ids=["str", "None", "array"])
@pytest.mark.parametrize("taker", sorted(_CURVE_TAKERS))
def test_what_takes_a_curve_rejects_anything_else(taker, bad):
    # each used to construct, or raised an AttributeError on first use
    with pytest.raises(ValueError,
                       match=re.escape(f"curve must be a ParametricCurve, got {bad!r}")):
        _CURVE_TAKERS[taker](bad)


def _problem(**changed):
    return TransmissionProblem(**{"curve": KITE, "k_plus": 8.0, "k_minus": 32.0, "nu": 1.0,
                                  "incident": PlaneWave(), **changed})


def _evaluator():
    return FieldEvaluator(KITE, [("sl", 2.0, np.ones(16))])


# every entry point that takes a number: (the name its message gives, what it
# takes, how it takes it)
_NUMBER_TAKERS = {
    "TransmissionProblem k_plus": ("k_plus", "k", lambda v: _problem(k_plus=v)),
    "TransmissionProblem k_minus": ("k_minus", "k", lambda v: _problem(k_minus=v)),
    "TransmissionProblem nu": ("nu", "k", lambda v: _problem(nu=v)),
    "KernelContext k": ("wavenumber k", "k", lambda v: KernelContext(KITE, v)),
    "OperatorFamily k": ("wavenumber k", "k", lambda v: OperatorFamily(KITE, v, 8)),
    "OperatorFamily N": ("N", "N", lambda v: OperatorFamily(KITE, 2.0, v)),
    "FieldEvaluator k": ("term 0 (sl): wavenumber k", "k",
                         lambda v: FieldEvaluator(KITE, [("sl", v, np.ones(16))])),
    "far_field_constant k": ("wavenumber k", "k", far_field_constant),
    "grid N": ("N", "N", grid),
    "grid_geometry N": ("N", "N", lambda v: grid_geometry(KITE, v)),
    "build_data N": ("N", "N", lambda v: build_data(_problem(), v)),
    "assemble N": ("N", "N", lambda v: assemble("l1", _problem(), v)),
    # None selects the default kappa and rho
    "assemble kappa": ("kappa", "default", lambda v: assemble("l3", _problem(), 8, kappa=v)),
    "assemble rho": ("rho", "default", lambda v: assemble("l4", _problem(), 8, rho=v)),
    "gmres tol": ("GMRES tol", "k", lambda v: helmbie.gmres(np.eye(2), np.ones(2), tol=v)),
    "solve tol": ("GMRES tol", "k",
                  lambda v: solve(assemble("l1", _problem(), 8), "gmres", tol=v)),
    "PlaneWave direction": ("plane-wave direction", "vector", PlaneWave),
    "PointSource location": ("point-source location", "vector", PointSource),
    "fft_modes N": ("N", "N", fft_modes),
    "weight_table N": ("N", "N", lambda v: weight_table(1, v)),
    "lambda_symbol N": ("N", "N", lambda_symbol),
    "lambda_matrix N": ("N", "N", lambda_matrix),
    "dld_symbol N": ("N", "N", dld_symbol),
    "dld_matrix N": ("N", "N", dld_matrix),
    "psi_hat m": ("weight id m", "N", lambda v: psi_hat(v, 3)),
    "TrigPolynomial coeff n": ("mode n", "N", TrigPolynomial(np.ones(4)).coeff),
    "circle radius": ("curve 'circle' radius", "real", circle),
    "ellipse a": ("curve 'ellipse' semi-axis a", "real", lambda v: ellipse(v, 1.0)),
    "make_curve ellipse b": ("curve 'ellipse' semi-axis b", "real",
                             lambda v: make_curve("ellipse", 2.0, v)),
}
_NOT_NUMBERS = {"True": True, "None": None, "str": "8", "list": [8.0],
                "array": np.array([8.0])}
# more bad inputs, by what a taker takes or by the taker
_MORE = {"N": {"2**70": 2**70},
         "real": {"complex": 1.0 + 1.0j, "nan": np.nan},
         "vector": {"bools": (True, False), "ragged": ((1.0, 0.0), 1.0)},
         "psi_hat n": {"2.5": 2.5, "'2'": "2"},
         "lu_solve rhs": {"length 3": np.ones(3)},
         "TrigPolynomial coeff n": {"1.5": 1.5, "past N": 3},
         "winding_number point": {"'ab'": "ab"},
         **{taker: {"'1'": "1", "True": True, "complex scalar": 1.0 + 1.0j}
            for taker in ("ParametricCurve point t", "ParametricCurve d1 t",
                          "ParametricCurve d2 t", "ParametricCurve speed t",
                          "TrigPolynomial eval t")}}

# every entry point that takes an array of numbers: (the name its message
# gives, an input it takes, whether complex entries are a bad case for it,
# how it takes it).  Complex points are not: they were rejected before, and
# test_fields.py::test_malformed_points_are_rejected keeps them.
_ARRAY_TAKERS = {
    "FieldEvaluator points": ("evaluation points", [[3.0, 0.0]], False,
                              lambda v: _evaluator()(v)),
    "FieldEvaluator angles": ("far-field angles", [0.5], True,
                              lambda v: _evaluator().far_field(v)),
    "distance points": ("evaluation points", [[3.0, 0.0]], False, KITE.distance),
    "single_layer_potential density": (
        "density", np.ones(16), False,
        lambda v: single_layer_potential(KITE, 2.0, v, [[3.0, 0.0]])),
    "double_layer_potential density": (
        "density", np.ones(16), False,
        lambda v: double_layer_potential(KITE, 2.0, v, [[3.0, 0.0]])),
    "single_layer_far_field density": (
        "density", np.ones(16), False, lambda v: single_layer_far_field(KITE, 2.0, v, 0.5)),
    "double_layer_far_field density": (
        "density", np.ones(16), False, lambda v: double_layer_far_field(KITE, 2.0, v, 0.5)),
    "FarFieldPattern angles": ("far-field angles", [0.5], True,
                               lambda v: FarFieldPattern(v, 1.0)),
    "FarFieldPattern values": ("far-field values", [1.0, 2.0], False,
                               lambda v: FarFieldPattern([0.0, 1.0], v)),
    "ParametricCurve cos_coef": ("curve 'kite' cos_coef", KITE.cos_coef, True,
                                 lambda v: ParametricCurve("kite", v, KITE.sin_coef)),
    "ParametricCurve sin_coef": ("curve 'kite' sin_coef", KITE.sin_coef, True,
                                 lambda v: ParametricCurve("kite", KITE.cos_coef, v)),
    "lu_solve rhs": ("right-hand side", [1.0, 2.0], False,
                     lambda v: lu_solve(lu_factor(np.eye(2)), v)),
    "gmres rhs": ("right-hand side", [1.0, 2.0], False, lambda v: helmbie.gmres(np.eye(2), v)),
    "psi_hat n": ("modes n", [1, 2], True, lambda v: psi_hat(1, v)),
    "TrigPolynomial nodal values": ("nodal values", np.ones(4), False, TrigPolynomial),
    "ParametricCurve point t": ("parameter t", [0.5], True, KITE.point),
    "ParametricCurve d1 t": ("parameter t", [0.5], True, KITE.d1),
    "ParametricCurve d2 t": ("parameter t", [0.5], True, KITE.d2),
    "ParametricCurve speed t": ("parameter t", [0.5], True, KITE.speed),
    "TrigPolynomial eval t": ("parameter t", [0.5], True, TrigPolynomial(np.ones(4)).eval),
    "winding_number point": ("winding-number point", [3.0, 0.0], True, KITE.winding_number),
}


def _not_arrays(good, complex_case):
    good = np.asarray(good)
    nan = good.astype(float)
    nan.flat[0] = np.nan
    bad = {"bools": good.astype(bool), "str": good.astype(str), "None": None,
           "ragged": [[1.0, 2.0], [3.0]], "nan": nan}
    return {**bad, "complex": good + 1.0j} if complex_case else bad


def _number_cases():
    for taker, (name, kind, take) in sorted(_NUMBER_TAKERS.items()):
        for label, bad in {**_NOT_NUMBERS, **_MORE.get(kind, {}), **_MORE.get(taker, {})}.items():
            if not (kind == "default" and bad is None):
                shown = _shown(bad) if kind == "vector" else repr(bad)
                yield pytest.param(name, take, bad, shown, id=f"{taker}-{label}")
    for taker, (name, good, complex_case, take) in sorted(_ARRAY_TAKERS.items()):
        for label, bad in {**_not_arrays(good, complex_case), **_MORE.get(taker, {})}.items():
            yield pytest.param(name, take, bad, _shown(bad), id=f"{taker}-{label}")


def _shown(bad):
    """How a message shows what an array check was given: an array by its
    dtype and shape, anything else by its repr."""
    try:
        array = np.asarray(bad)
    except ValueError:  # a ragged nesting
        return repr(bad)
    return f"{array.dtype} values of shape {array.shape}" if array.ndim else repr(bad)


@pytest.mark.parametrize("module", ["geometry.py", "fields.py", "fourier.py"])
def test_finite_checks_go_through_one_helper(module):
    """Whether numbers are finite is decided in ``geometry._numbers`` alone:
    an ``isfinite`` anywhere else in these modules is a second check of the
    library's input that has to be kept in step with it."""
    tree = ast.parse((pathlib.Path(helmbie.__file__).parent / module).read_text())
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == "_numbers"
              for node in ast.walk(top)}
    found, own = [], 0
    for node in ast.walk(tree):
        if "isfinite" in (getattr(node, "attr", None), getattr(node, "id", None)):
            if id(node) in inside:
                own += 1
            else:
                found.append(ast.unparse(node))
    assert found == []
    assert own == (2 if module == "geometry.py" else 0)  # the scan sees _numbers' own


@pytest.mark.parametrize("name, take, bad, shown", _number_cases())
def test_what_takes_a_number_rejects_anything_else(name, take, bad, shown):
    # True ran as 1, an array or None failed inside numpy with a TypeError;
    # bool arrays ran as 0 and 1, complex ones at their real part, and some
    # NaN arrays passed
    with pytest.raises(ValueError,
                       match=f"^{re.escape(name)} must be .+, got {re.escape(shown)}$"):
        take(bad)

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helmbie.geometry import (
    _DISTANCE_BLOCK,
    FINE_SAMPLES,
    cavity,
    circle,
    ellipse,
    grid,
    grid_geometry,
    kite,
    make_curve,
)

from oracles import norm_distance

ALL_CURVES = [circle(), ellipse(2.0, 1.0), kite(), cavity()]


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
    n = curve.normal(t)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-14
    dots = np.abs(np.sum(n * curve.d1(t), axis=-1))
    assert np.max(dots / curve.speed(t)) <= 1e-13


def test_normal_outward_on_circle():
    assert np.allclose(circle().normal(0.0), [1.0, 0.0], atol=1e-15)
    assert np.allclose(circle().normal(np.pi / 2), [0.0, 1.0],
                       atol=1e-15)


def test_ellipse_normal_matches_implicit_gradient():
    a, b = 2.0, 1.0
    curve = ellipse(a, b)
    t = np.linspace(0, 2 * np.pi, 33)
    x = curve.point(t)
    grad = np.stack([2 * x[:, 0] / a**2, 2 * x[:, 1] / b**2], axis=-1)
    grad /= np.linalg.norm(grad, axis=-1, keepdims=True)
    assert np.max(np.abs(curve.normal(t) - grad)) <= 1e-13


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
    assert np.max(np.abs(m - curve.speed(t)[:, None] * curve.normal(t))) <= 1e-14


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
    past = curve.point(t) + (guard * (1.0 + 1e-9)) * curve.normal(t)
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
    assert len(pts) % _DISTANCE_BLOCK != 0
    got = curve.distance(pts)
    assert got.tobytes() == norm_distance(curve, pts).tobytes()
    assert np.count_nonzero(got == 0.0) >= 40  # fine-sample nodes
    assert curve.distance(pts[0]).tobytes() == got[:1].tobytes()


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
    with pytest.raises(ValueError, match="degenerate|non-finite"):
        make_curve(name, *params)


def test_make_curve_registry():
    assert make_curve("circle", 2.0).point(0.0)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_curve("square")

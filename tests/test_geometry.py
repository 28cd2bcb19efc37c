import numpy as np
import pytest

from helmbie.geometry import (
    cavity,
    circle,
    ellipse,
    grid,
    grid_geometry,
    kite,
    make_curve,
)

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


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        grid(0)


def test_make_curve_registry():
    assert make_curve("circle", 2.0).point(0.0)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_curve("square")

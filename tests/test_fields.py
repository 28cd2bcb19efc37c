import tracemalloc

import numpy as np
import pytest

from helmbie.fields import (
    _BLOCK_ENTRIES,
    FarFieldPattern,
    FieldEvaluator,
    double_layer_far_field,
    double_layer_potential,
    far_field_constant,
    far_field_linf_diff,
    single_layer_far_field,
    single_layer_potential,
)
from helmbie.formulations import PointSource
from helmbie.geometry import cavity, ellipse, grid, kite

from oracles import (
    diff_double_layer,
    diff_single_layer,
    exact_guard_message,
    point_source_far_field,
    two_exponential_far_field,
)

KITE = kite()
K = 8.0
N = 128


def _interior_source_data(k=K, n=N, y0=(0.1, 0.2)):
    src = PointSource(y0)
    t = grid(n)
    xb = KITE.point(t)
    d1 = KITE.d1(t)
    m = np.stack([d1[:, 1], -d1[:, 0]], axis=-1)
    a = src.value(k, xb)
    phi = np.sum(src.gradient(k, xb) * m, axis=-1)
    return src, a, phi


@pytest.fixture(scope="module")
def green_evaluator():
    src, a, phi = _interior_source_data()
    return src, FieldEvaluator(KITE, [("sl", K, -phi), ("dl", K, a)])


def _ring(radius, count=10, center=(0.0, 0.0)):
    ang = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=-1)


def test_representation_reproduces_source(green_evaluator):
    src, ev = green_evaluator
    pts = _ring(3.0)
    assert np.max(np.abs(ev(pts) - src.value(K, pts))) <= 1e-10


def test_extinction_inside(green_evaluator):
    _, ev = green_evaluator
    assert np.max(np.abs(ev(_ring(0.35)))) <= 1e-10


def test_zero_densities_give_zero_field():
    zeros = np.zeros(2 * N, dtype=complex)
    ev = FieldEvaluator(KITE, [("sl", K, zeros), ("dl", K, zeros)])
    assert np.max(np.abs(ev(_ring(3.0)))) == 0.0
    assert np.max(np.abs(ev.far_field(np.linspace(0, 6, 7)).values)) == 0.0


def test_field_convergence_is_superalgebraic(green_evaluator):
    src, _ = green_evaluator
    pts = _ring(4.5)  # outside the N = 16 distance guard
    errs = []
    for n in (16, 32, 64):
        _, a, phi = _interior_source_data(n=n)
        ev = FieldEvaluator(KITE, [("sl", K, -phi), ("dl", K, a)])
        errs.append(np.max(np.abs(ev(pts) - src.value(K, pts))))
    assert errs[1] <= errs[0] / 10.0
    assert errs[2] <= errs[1] / 10.0


def test_near_boundary_guard(green_evaluator):
    _, ev = green_evaluator
    close = KITE.point(np.array([1.0])) + 1e-4
    with pytest.raises(ValueError, match="guard"):
        ev(close)
    assert ev.min_distance == pytest.approx(
        5 * np.pi / N * KITE.max_speed(), rel=1e-12
    )


def test_radiation_limit_pins_far_field_constant(green_evaluator):
    """sqrt(R) e^{-ikR} u(R x^) -> u_inf(x^); two-step Richardson in 1/R."""
    _, ev = green_evaluator
    angle = 0.3
    xhat = np.array([np.cos(angle), np.sin(angle)])
    vals = []
    for R in (50.0, 100.0, 200.0):
        u = ev(np.array([R * xhat]))[0]
        vals.append(np.sqrt(R) * np.exp(-1j * K * R) * u)
    v1, v2, v3 = vals
    extrap = (8.0 * v3 - 6.0 * v2 + v1) / 3.0
    ff = ev.far_field(np.array([angle])).values[0]
    assert abs(extrap - ff) <= 1e-8


def test_far_field_of_interior_source_is_plane_wave_factor(green_evaluator):
    src, ev = green_evaluator
    angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    got = ev.far_field(angles)
    target = point_source_far_field(K, src.location, angles)
    assert np.max(np.abs(got.values - target)) <= 1e-10


def test_far_field_constant_value():
    assert far_field_constant(2.0) == pytest.approx(
        np.exp(0.25j * np.pi) / np.sqrt(16 * np.pi), abs=1e-16
    )


@pytest.mark.parametrize("k", [8.0 + 0.5j, -8.0, 0.0, np.nan])
def test_field_wavenumbers_are_positive_reals(k):
    # a complex k was evaluated at Re k and a negative one gave NaN far fields
    dens = np.ones(2 * N, dtype=complex)
    with pytest.raises(ValueError, match=r"term 1 \(sl\): wavenumber k must be a "
                                         "finite positive real"):
        FieldEvaluator(KITE, [("dl", K, dens), ("sl", k, dens)])
    for far_field in (lambda: far_field_constant(k),
                      lambda: single_layer_far_field(KITE, k, dens, [0.0]),
                      lambda: double_layer_far_field(KITE, k, dens, [0.0])):
        with pytest.raises(ValueError, match="finite positive real"):
            far_field()


def test_real_wavenumber_of_complex_type_is_accepted():
    dens = np.ones(2 * N, dtype=complex)
    real = FieldEvaluator(KITE, [("sl", K, dens)])
    typed = FieldEvaluator(KITE, [("sl", complex(K), dens)])
    assert typed.terms[0][1] == K
    assert typed.far_field([0.0, 1.0]).values.tobytes() == \
        real.far_field([0.0, 1.0]).values.tobytes()


def test_far_field_linf_metric():
    ang = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    p = FarFieldPattern(ang, np.ones(8))
    q = FarFieldPattern(ang, np.ones(8) + 1e-3 * 1j)
    assert far_field_linf_diff(p, q) == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(ValueError):
        far_field_linf_diff(p, FarFieldPattern(ang + 0.1, np.ones(8)))


def test_far_field_pattern_validation():
    with pytest.raises(ValueError):
        FarFieldPattern(np.array([]), np.array([]))
    with pytest.raises(ValueError, match=r"angles' shape \(6,\), got shape \(2, 3\)"):
        FarFieldPattern(np.zeros(6), np.ones((2, 3)))
    p = FarFieldPattern(np.array([0.0, np.pi / 2]), np.array([1.0, 2.0]))
    assert np.allclose(p.directions, [[1, 0], [0, 1]], atol=1e-15)


def test_evaluator_validation():
    zeros = np.zeros(2 * N, dtype=complex)
    with pytest.raises(ValueError):
        FieldEvaluator(KITE, [])
    with pytest.raises(ValueError):
        FieldEvaluator(KITE, [("sl", K, zeros), ("dl", K, zeros[:-2])])
    with pytest.raises(ValueError, match="curl"):
        FieldEvaluator(KITE, [("sl", K, zeros), ("curl", K, zeros)])
    mixed = FieldEvaluator(KITE, [("sl", 1.0, zeros), ("sl", 2.0, zeros)])
    with pytest.raises(ValueError):
        mixed.far_field(np.array([0.0]))


def test_potentials_match_evaluator_sum():
    rng = np.random.default_rng(0)
    dens1 = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    dens2 = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    pts = _ring(4.0, count=5)
    ev = FieldEvaluator(KITE, [("sl", K, dens1), ("dl", K, dens2)])
    direct = single_layer_potential(KITE, K, dens1, pts) \
        + double_layer_potential(KITE, K, dens2, pts)
    assert np.max(np.abs(ev(pts) - direct)) <= 1e-14


def test_evaluator_rejects_nonfinite_terms():
    zeros = np.zeros(2 * N, dtype=complex)
    bad = zeros.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match=r"term 1 \(dl\): density"):
        FieldEvaluator(KITE, [("sl", K, zeros), ("dl", K, bad)])
    with pytest.raises(ValueError, match=r"term 0 \(sl\): wavenumber k"):
        FieldEvaluator(KITE, [("sl", np.inf, zeros)])


def test_evaluator_rejects_nonfinite_points(green_evaluator):
    _, ev = green_evaluator
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        ev(np.array([[3.0, 0.0], [np.nan, 1.0]]))


def test_far_field_rejects_nonfinite_angles(green_evaluator):
    _, ev = green_evaluator
    with pytest.raises(ValueError, match="angles must be finite"):
        ev.far_field([0.0, np.nan])


def _oracle_points(curve, n, count=None):
    """Far, interior, just-past-the-guard and on-curve points for the 2n grid;
    ``count`` cycles through them to that many points."""
    t = grid(n) + 0.5 * np.pi / n                     # between the nodes
    guard = 5.0 * (np.pi / n) * curve.max_speed()
    past = curve.point(t) + (guard * (1.0 + 1e-9)) * curve.normal(t)
    pts = np.concatenate([_ring(4.0, 37), _ring(0.3, 11), past[::5], curve.point(t[::7])])
    return pts if count is None else np.resize(pts, (count, 2))


def _assert_potentials_match_the_oracle(curve, n, pts, counts, rng):
    """Each leading ``count`` points against the oracle's rows for all of
    ``pts``: numpy takes a one-row product as a dot, not a gemv, so the
    oracle runs on the whole set."""
    dens = rng.standard_normal((2, 2 * n)) + 1j * rng.standard_normal((2, 2 * n))
    for k in (K, 32.0):
        sl = diff_single_layer(curve, k, dens[0], pts)
        dl = diff_double_layer(curve, k, dens[1], pts)
        for count in counts:
            got = single_layer_potential(curve, k, dens[0], pts[:count])
            assert got.tobytes() == sl[:count].tobytes()
            got = double_layer_potential(curve, k, dens[1], pts[:count])
            assert got.tobytes() == dl[:count].tobytes()


@pytest.mark.parametrize("curve", [KITE, cavity()], ids=lambda c: c.name)
def test_potentials_match_the_difference_array_oracle_bit_for_bit(curve):
    rng = np.random.default_rng(23)
    pts = _oracle_points(curve, N)
    _assert_potentials_match_the_oracle(curve, N, pts, [len(pts)], rng)
    # point counts on both sides of the block boundaries: one row, a full
    # block, a full block and one row, three blocks and a ragged one
    for n in (16, 256):
        rows = max(1, _BLOCK_ENTRIES // (2 * n))
        counts = (1, rows, rows + 1, 3 * rows + 7)
        pts = _oracle_points(curve, n, counts[-1])
        _assert_potentials_match_the_oracle(curve, n, pts, counts, rng)


@pytest.mark.parametrize("curve", [KITE, cavity(), ellipse()], ids=lambda c: c.name)
@pytest.mark.parametrize("n", [16, 64, 256])
def test_guard_decisions_match_the_exact_distance_oracle(curve, n):
    """The coarse-bound guard raises for the same batches, with the same
    message, as the exact distance of every point."""
    rng = np.random.default_rng([n, 5])
    ev = FieldEvaluator(curve, [("sl", K, np.zeros(2 * n))])
    t = rng.uniform(0.0, 2.0 * np.pi, 40)
    raised = []
    for factor in (1.0 - 1e-9, 1.0 + 1e-9, 1.5, 3.0):
        near = curve.point(t) + (factor * ev.min_distance) * curve.normal(t)
        for pts in [near, *near[:5, None]]:
            pts = np.concatenate([_ring(3.0 * curve.max_speed(), 7), pts])
            expected = exact_guard_message(curve, ev.min_distance, pts)
            raised.append(expected is not None)
            if expected is None:
                ev(pts)
            else:
                with pytest.raises(ValueError) as info:
                    ev(pts)
                assert str(info.value) == expected
    assert any(raised) and not all(raised)


def test_near_field_memory_is_bounded_by_the_block():
    # the whole-batch arrays peaked at 479 MiB for these 20,000 points
    n, count = 256, 20_000
    rng = np.random.default_rng(2)
    dens = rng.standard_normal((2, 2 * n)) + 1j * rng.standard_normal((2, 2 * n))
    ev = FieldEvaluator(KITE, [("sl", K, dens[0]), ("dl", K, dens[1])])
    angle = rng.uniform(0.0, 2.0 * np.pi, count)
    pts = rng.uniform(2.5, 4.0, (count, 1)) * np.stack([np.cos(angle), np.sin(angle)], -1)
    ev(pts[:1])                                # the curve's lazy samples
    tracemalloc.start()
    try:
        ev(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(4),
                                 np.zeros((2, 3, 2)), np.zeros((3, 2), dtype=complex)],
                         ids=["n-by-3", "n-by-1", "flat-4", "3-D", "complex"])
def test_malformed_points_are_rejected(green_evaluator, bad):
    _, ev = green_evaluator
    bad = bad + 3.0                            # clear of the guard
    for call in (ev, KITE.distance, KITE.distance_bound,
                 lambda p: single_layer_potential(KITE, K, np.ones(2 * N), p)):
        with pytest.raises(ValueError, match=r"real values of shape \(n, 2\)"):
            call(bad)


def test_single_and_empty_point_sets(green_evaluator):
    src, ev = green_evaluator
    one = np.array([3.0, 0.5])
    assert ev(one).shape == (1,)
    assert ev(one).tobytes() == ev(one[None]).tobytes()
    for call in (ev, lambda p: double_layer_potential(KITE, K, np.ones(2 * N), p)):
        empty = call(np.empty((0, 2)))
        assert empty.shape == (0,) and empty.dtype == complex


@pytest.mark.parametrize("potential", [single_layer_potential, double_layer_potential])
def test_potentials_check_their_term_like_the_evaluator(potential):
    dens = np.ones(2 * N, dtype=complex)
    pts = _ring(3.0, 3)
    bad = dens.copy()
    bad[5] = np.nan
    with pytest.raises(ValueError, match="^density has non-finite values$"):
        potential(KITE, K, bad, pts)
    for k in (-8.0, 0.0, 8.0 + 0.5j, np.inf):
        with pytest.raises(ValueError, match="^wavenumber k must be a finite positive real"):
            potential(KITE, k, dens, pts)


@pytest.mark.parametrize("shape", [(2, 2 * N), (2 * N + 1,), (0,)],
                         ids=["2-d", "odd", "empty"])
def test_densities_that_are_not_1d_nodal_values_are_rejected(shape):
    # a (2, 2N) density took N = 1 in the evaluator, whose guard then
    # rejected a far point, and failed inside BLAS in the potentials
    dens = np.ones(shape, dtype=complex)
    pts = _ring(3.0, 3)
    message = rf"density must be a 1-D array .* got shape \({shape[0]},"
    with pytest.raises(ValueError, match=r"term 0 \(sl\): " + message):
        FieldEvaluator(KITE, [("sl", K, dens)])
    for call in (lambda: single_layer_potential(KITE, K, dens, pts),
                 lambda: double_layer_potential(KITE, K, dens, pts),
                 lambda: single_layer_far_field(KITE, K, dens, [0.0]),
                 lambda: double_layer_far_field(KITE, K, dens, [0.0])):
        with pytest.raises(ValueError, match="^" + message):
            call()


@pytest.mark.parametrize("far_field", [single_layer_far_field, double_layer_far_field])
def test_far_fields_reject_nonfinite_densities(far_field):
    # both returned nan+nanj
    dens = np.ones(2 * N, dtype=complex)
    dens[7] = np.nan
    with pytest.raises(ValueError, match="^density has non-finite values$"):
        far_field(KITE, K, dens, [0.0])


@pytest.mark.parametrize("angles, message", [
    (np.zeros((2, 3)), r"scalar or a 1-D array, got shape \(2, 3\)"),
    ([0.0, np.nan], "angles must be finite"),
], ids=["2-d", "nan"])
def test_far_field_pattern_checks_its_angles(angles, message):
    # a 2-D or NaN angle array constructed, and only ``directions`` raised
    with pytest.raises(ValueError, match=message):
        FarFieldPattern(angles, np.ones(np.size(angles)))


def test_far_field_rejects_angles_that_are_not_1d(green_evaluator):
    _, ev = green_evaluator
    angles = np.zeros((2, 3))
    for far_field in (ev.far_field,
                      lambda a: single_layer_far_field(KITE, K, np.ones(2 * N), a)):
        with pytest.raises(ValueError, match=r"scalar or a 1-D array, got shape \(2, 3\)"):
            far_field(angles)
    assert ev.far_field(0.5).values.shape == (1,)


# ------------------------------------------------------- one-pass far field

TOL_FAR_FIELD = 64 * np.finfo(float).eps  # relative to max|u_inf|, fixed before measuring


def test_far_field_matches_the_two_exponential_form(green_evaluator):
    _, ev = green_evaluator
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    ref = two_exponential_far_field(KITE, ev.terms, angles)
    got = ev.far_field(angles).values
    assert np.max(np.abs(got - ref)) <= TOL_FAR_FIELD * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [32.0])
def test_far_field_of_many_terms_matches_the_two_exponential_form(k):
    rng = np.random.default_rng(11)
    terms = [(kind, k, rng.normal(size=2 * N) + 1j * rng.normal(size=2 * N))
             for kind in ("sl", "dl", "dl", "sl")]
    angles = rng.uniform(0.0, 2.0 * np.pi, 50)
    ref = two_exponential_far_field(KITE, terms, angles)
    got = FieldEvaluator(KITE, terms).far_field(angles).values
    assert np.max(np.abs(got - ref)) <= TOL_FAR_FIELD * np.max(np.abs(ref))
    for kind, fn in (("sl", single_layer_far_field), ("dl", double_layer_far_field)):
        term = terms[0] if kind == "sl" else terms[1]
        ref = two_exponential_far_field(KITE, [term], angles)
        got = fn(KITE, k, term[2], angles)
        assert np.max(np.abs(got - ref)) <= TOL_FAR_FIELD * np.max(np.abs(ref))

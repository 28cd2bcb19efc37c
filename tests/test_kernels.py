import numpy as np
import pytest

import mpmath as mp

from helmbie.geometry import cavity, circle, grid, kite
from helmbie.kernels import (
    KernelContext,
    KernelFactors,
    ef_matrices,
    kernel_matrix,
    sin2_matrix,
)
from helmbie.specfun import bessel_j, hankel1

from oracles import (
    diagonal_limits,
    kernel_a,
    kernel_a_tilde,
    kernel_b,
    kernel_c,
    kernel_d,
    mp_kernel_a_tilde,
    mp_kernel_b,
    mp_kernel_c,
    mp_kernel_d,
    pointwise_ef,
    pointwise_matrix,
    richardson_diagonal,
)

CURVES = {"circle": circle(), "kite": kite(), "cavity": cavity()}


# ----------------------------------------------------------- pointwise values


def test_a_diagonal_and_symmetry():
    ctx = KernelContext(kite(), 8.0)
    s = np.linspace(0, 2 * np.pi, 13)
    assert np.max(np.abs(kernel_a(ctx, s, s) + 1.0 / (4 * np.pi))) <= 1e-15
    rng = np.random.default_rng(0)
    s, t = rng.uniform(0, 2 * np.pi, (2, 50))
    ctx_c = KernelContext(circle(), 1.0)
    assert np.max(np.abs(kernel_a(ctx_c, s, t) - kernel_a(ctx_c, t, s))) <= 1e-16


def test_a_circle_antipodal():
    ctx = KernelContext(circle(), 1.0)
    # |x(0) - x(pi)| = 2 on the unit circle
    assert kernel_a(ctx, 0.0, np.pi) == pytest.approx(
        -bessel_j(0, 2.0) / (4 * np.pi), abs=1e-16
    )


def test_a_tilde_circle_values():
    ctx = KernelContext(circle(), 1.0)
    assert kernel_a_tilde(ctx, 0.0, np.pi) == pytest.approx(
        (1.0 - bessel_j(0, 2.0)) / (4 * np.pi), abs=1e-15
    )
    # 1 - J0 > 0 below the first J0 zero, so A~ > 0 everywhere at k = 1
    rng = np.random.default_rng(1)
    s, t = rng.uniform(0, 2 * np.pi, (2, 200))
    vals = kernel_a_tilde(ctx, s, t)
    assert np.all(vals > 0)
    assert np.all(diagonal_limits(ctx, s)["At"] > 0)


@pytest.mark.parametrize("curve_name", ["circle", "kite"])
@pytest.mark.parametrize("k", [1.0, 8.0])
def test_reassembly_identities(curve_name, k):
    """A log sin^2 + B == (i/4) H0(kr) and the Lambda-split variant."""
    ctx = KernelContext(CURVES[curve_name], k)
    rng = np.random.default_rng(42)
    s = rng.uniform(0, 2 * np.pi, 100)
    t = rng.uniform(0, 2 * np.pi, 100)
    keep = np.abs(np.sin(0.5 * (s - t))) > 1e-3
    s, t = s[keep], t[keep]
    x_s = ctx.curve.point(s)
    x_t = ctx.curve.point(t)
    r = np.linalg.norm(x_s - x_t, axis=-1)
    target = 0.25j * hankel1(0, k * r)
    log_term = np.log(np.sin(0.5 * (s - t)) ** 2)
    lhs = kernel_a(ctx, s, t) * log_term + kernel_b(ctx, s, t)
    assert np.max(np.abs(lhs - target) / np.abs(target)) <= 1e-12
    sin2 = np.sin(0.5 * (s - t)) ** 2
    lhs2 = (-1.0 / (4 * np.pi) + kernel_a_tilde(ctx, s, t) * sin2) * log_term \
        + kernel_b(ctx, s, t)
    assert np.max(np.abs(lhs2 - target) / np.abs(target)) <= 1e-12


@pytest.mark.parametrize("curve_name", ["circle", "kite"])
@pytest.mark.parametrize("k", [1.0, 8.0])
def test_double_layer_reassembly(curve_name, k):
    """C sin^2 log sin^2 + D == (ik/4) H1(kr) (delta . m)/r."""
    ctx = KernelContext(CURVES[curve_name], k)
    rng = np.random.default_rng(43)
    s = rng.uniform(0, 2 * np.pi, 100)
    t = rng.uniform(0, 2 * np.pi, 100)
    keep = np.abs(np.sin(0.5 * (s - t))) > 1e-3
    s, t = s[keep], t[keep]
    delta = ctx.curve.point(s) - ctx.curve.point(t)
    r = np.linalg.norm(delta, axis=-1)
    d1t = ctx.curve.d1(t)
    dot = delta[:, 0] * d1t[:, 1] - delta[:, 1] * d1t[:, 0]
    target = 0.25j * k * hankel1(1, k * r) * dot / r
    sin2 = np.sin(0.5 * (s - t)) ** 2
    lhs = kernel_c(ctx, s, t) * sin2 * np.log(sin2) + kernel_d(ctx, s, t)
    scale = np.maximum(np.abs(target), 1e-8)
    assert np.max(np.abs(lhs - target) / scale) <= 1e-12


def test_transposition_structure():
    ctx = KernelContext(kite(), 8.0)
    N = 16
    c_mat = kernel_matrix(ctx, "C", N)
    d_mat = kernel_matrix(ctx, "D", N)
    nodes = grid(N)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    assert np.max(np.abs(kernel_c(ctx, T, S) - c_mat.T)) <= 1e-14
    assert np.max(np.abs(kernel_d(ctx, T, S) - d_mat.T)) <= 1e-14


# ---------------------------------------------------------- diagonal limits


@pytest.mark.parametrize("curve_name,k,s", [
    ("circle", 1.0, 0.7),
    ("kite", 8.0, 0.0),
    ("kite", 8.0, 2.1),
    ("cavity", 2.0, 1.3),
])
def test_diag_b_vs_richardson(curve_name, k, s):
    ctx = KernelContext(CURVES[curve_name], k)
    limit = richardson_diagonal(
        lambda a, b: mp_kernel_b(curve_name, k, a, b), mp.mpf(s))
    got = diagonal_limits(ctx, np.array([s]))["B"][0]
    assert abs(got - complex(limit)) <= 1e-11
    assert got.imag == pytest.approx(0.25, abs=1e-13)


@pytest.mark.parametrize("curve_name,k,s", [
    ("circle", 1.0, 0.4),
    ("kite", 8.0, 1.0),
])
def test_diag_a_tilde_vs_richardson_rejects_single_speed_power(curve_name, k, s):
    ctx = KernelContext(CURVES[curve_name], k)
    limit = float(mp.re(richardson_diagonal(
        lambda a, b: mp_kernel_a_tilde(curve_name, k, a, b), mp.mpf(s))))
    speed = ctx.curve.speed(np.array([s]))[0]
    squared = k * k * speed**2 / (4 * np.pi)
    single = k * k * speed / (4 * np.pi)
    assert diagonal_limits(ctx, np.array([s]))["At"][0] == pytest.approx(limit, rel=1e-10)
    assert squared == pytest.approx(limit, rel=1e-10)
    if abs(speed - 1.0) > 1e-3:
        assert abs(single - limit) > 1e-3 * abs(limit)


@pytest.mark.parametrize("curve_name,k,s", [
    ("kite", 8.0, 0.3),
    ("cavity", 2.0, 2.0),
])
def test_diag_c_and_d_vs_richardson(curve_name, k, s):
    ctx = KernelContext(CURVES[curve_name], k)
    lim_c = float(mp.re(richardson_diagonal(
        lambda a, b: mp_kernel_c(curve_name, k, a, b), mp.mpf(s))))
    lim_d = richardson_diagonal(
        lambda a, b: mp_kernel_d(curve_name, k, a, b), mp.mpf(s))
    limits = diagonal_limits(ctx, np.array([s]))
    assert limits["C"][0] == pytest.approx(lim_c, rel=1e-10)
    got_d = limits["D"][0]
    assert abs(got_d - complex(lim_d)) <= 1e-10 * max(1.0, abs(complex(lim_d)))


def test_circle_double_layer_diagonal_constant():
    # rotational symmetry: the assembled double-layer kernel diagonal is
    # constant; classical value -1/(4 pi) on the unit circle
    ctx = KernelContext(circle(), 2.0)
    s = np.linspace(0, 2 * np.pi, 40)
    limits = diagonal_limits(ctx, s)
    d_diag = limits["D"]
    assert np.max(np.abs(d_diag + 1.0 / (4 * np.pi))) <= 1e-14
    c_diag = limits["C"]
    assert np.max(np.abs(c_diag - c_diag[0])) <= 1e-14


def test_b_continuity_near_diagonal():
    # the oracle-measured derivative scale of B on the kite at k = 8 is
    # about 0.22, so the h = 1e-3 increment stays below 1e-3 (1 + |B|)
    ctx = KernelContext(kite(), 8.0)
    s = np.linspace(0, 2 * np.pi, 17)
    gap = np.abs(kernel_b(ctx, s, s + 1e-3) - kernel_b(ctx, s, s))
    bound = 1e-3 * (1.0 + np.abs(kernel_b(ctx, s, s)))
    assert np.all(gap <= bound)
    # near-diagonal evaluation carries no cancellation: 50-digit agreement
    for sv in (0.2, 3.0):
        got = complex(kernel_b(ctx, np.array([sv]), np.array([sv + 1e-3]))[0])
        ref = complex(mp_kernel_b("kite", 8.0, mp.mpf(sv),
                                  mp.mpf(sv) + mp.mpf("0.001")))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_d_stable_at_small_separation():
    # relative agreement with 50-digit evaluation at |s-t| = pi/1024
    ctx = KernelContext(kite(), 8.0)
    for s in (0.2, 3.0):
        t = s - np.pi / 1024
        got = complex(kernel_d(ctx, np.array([s]), np.array([t]))[0])
        ref = complex(mp_kernel_d("kite", 8.0, mp.mpf(s), mp.mpf(t)))
        assert abs(got - ref) <= 1e-9 * abs(ref)
        at_got = float(kernel_a_tilde(ctx, np.array([s]), np.array([t]))[0])
        at_ref = float(mp.re(mp_kernel_a_tilde("kite", 8.0, mp.mpf(s), mp.mpf(t))))
        assert abs(at_got - at_ref) <= 1e-9 * abs(at_ref)


# ------------------------------------------------------------- grid matrices


def test_kernel_matrix_finite_and_diagonal():
    ctx = KernelContext(cavity(), 8.0)
    N = 24
    for which in ("A", "B", "C", "D", "At"):
        mat = kernel_matrix(ctx, which, N)
        assert np.all(np.isfinite(mat))
    b_mat = kernel_matrix(ctx, "B", N)
    nodes = grid(N)
    assert np.max(np.abs(np.diag(b_mat) - diagonal_limits(ctx, nodes)["B"])) == 0.0


@pytest.mark.parametrize("curve_name", ["kite", "cavity"])
@pytest.mark.parametrize("k", [8.0])
@pytest.mark.parametrize("N", [16, 64])
def test_fused_factors_match_pointwise(curve_name, k, N):
    # the fused pass reorders float64 arithmetic and takes real Hankel values
    # as Cephes J + iY, so it agrees with the pair-by-pair formulas to a few
    # ulps of each matrix's largest entry
    ctx = KernelContext(CURVES[curve_name], k)
    tol = 64 * np.finfo(float).eps
    for which in ("A", "B", "C", "D", "At"):
        ref = pointwise_matrix(ctx, which, N)
        got = kernel_matrix(ctx, which, N)
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), which
    for got, ref in zip(ef_matrices(ctx, N), pointwise_ef(ctx, N)):
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


def test_ef_circle_translation_invariance():
    ctx = KernelContext(circle(), 2.0)
    N = 32
    e_mat, f_mat = ef_matrices(ctx, N)
    for mat in (e_mat, f_mat):
        col = mat[:, 0]
        rebuilt = np.empty_like(mat)
        for j in range(2 * N):
            rebuilt[:, j] = np.roll(col, j)
        assert np.max(np.abs(mat - rebuilt)) <= 1e-10


def test_ef_diagonal_values():
    # E(s,s) = A~(s,s)/2 + k^2 |x'|^2 A(s,s) with A(s,s) = -1/(4 pi)
    ctx = KernelContext(kite(), 2.0)
    N = 32
    e_mat, _ = ef_matrices(ctx, N)
    nodes = grid(N)
    speed = ctx.curve.speed(nodes)
    expected = 0.5 * diagonal_limits(ctx, nodes)["At"] - 2.0**2 * speed**2 / (4 * np.pi)
    assert np.max(np.abs(np.diag(e_mat) - expected)) <= 1e-8


def test_ef_oversampling_consistency():
    # once the kernels are resolved, oversampling must not move the result;
    # at N = 96 the k = 8 kite kernels have fully decayed spectral tails, so
    # E and F on the operator grid match the pointwise oracle taken on the
    # twice finer grid and restricted to it
    ctx = KernelContext(kite(), 8.0)
    e1, f1 = ef_matrices(ctx, 96)
    e2, f2 = pointwise_ef(ctx, 96, oversample=2)
    scale = np.max(np.abs(e1))
    assert np.max(np.abs(e1 - e2)) <= 1e-9 * scale
    assert np.max(np.abs(f1 - f2)) <= 1e-9 * scale


def test_sin2_matrix():
    N = 8
    m = sin2_matrix(N)
    assert np.max(np.abs(np.diag(m))) == 0.0
    assert m[0, N] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("N", [8, 64])
def test_sin2_circulant_is_symmetric_and_matches_pairwise_values(N):
    m = sin2_matrix(N)
    assert np.array_equal(m, m.T)
    nodes = grid(N)
    pairwise = np.sin(0.5 * (nodes[:, None] - nodes[None, :])) ** 2
    assert np.max(np.abs(m - pairwise)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("k", [8.0])
def test_double_layer_pass_is_byte_equal_to_kernel_matrix(monkeypatch, k):
    passes = []
    dm = KernelFactors._dm

    def counted(self):
        passes.append(self)
        return dm(self)

    monkeypatch.setattr(KernelFactors, "_dm", counted)
    N = 24
    c_mat, d_mat = kernel_matrix(KernelContext(kite(), k), ("C", "D"), N)
    assert len(passes) == 1
    fresh = KernelContext(kite(), k)
    assert kernel_matrix(fresh, "C", N).tobytes() == c_mat.tobytes()
    assert kernel_matrix(fresh, "D", N).tobytes() == d_mat.tobytes()


def test_context_validation():
    with pytest.raises(ValueError):
        KernelContext(circle(), -1.0)
    with pytest.raises(ValueError):
        KernelContext(circle(), 1.0 - 2.0j)
    with pytest.raises(ValueError):
        KernelContext(circle(), np.int64(-3))
    with pytest.raises(ValueError):
        KernelContext(circle(), float("nan"))
    with pytest.raises(ValueError):
        KernelContext(circle(), 2.0 + 1.0j)
    assert KernelContext(circle(), 2.0 + 0j).k == 2.0

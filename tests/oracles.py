"""Independent high-precision oracles used by the test suite.

Everything but the last section is built on mpmath (and brute-force
summation), deliberately sharing no code with the package internals: Bessel
values, weight-function Fourier coefficients by singular quadrature, circle
operator eigenvalues by separation of variables, kernel diagonal limits by
Richardson extrapolation of the off-diagonal formulas in 50-digit
arithmetic, and O(N^2) discrete transforms.  The periodic Sobolev norm
``sobolev_norm`` sits with the transforms.

The pointwise section holds the float64 kernel factors, evaluated pair by
pair on meshgrids: the reference the fused kernel pass is checked against.
They call scipy.special directly (AMOS for every Hankel value) and take only
the closed-form diagonal limits (``diagonal_limits``, on the package's
``_diagonal_limits``) and the spectral derivative from the package.

The operator section holds the formulas the family operators and the far
field were first assembled with: K' from the transposed factor matrices,
the E/F grid factors sampled pair by pair, and the far field as one complex
exponential per layer term.  They take the kernel factors from the package
and are the reference for the one-pass forms, which round differently.  The
spectral differentiation matrix of the Maue route H = D V D + ... sits here
too: the package needs no D of its own; so does the closed-form far field
of a point source, ``point_source_far_field``, the target of the
point-source tests, and ``circle_transmission_far_field``, the exact far
field of the transmission problem on a circle by separation of variables,
the target every formulation is gated on, and ``directions``, the unit
directions of a far-field pattern's angles.

The composition section holds l3 and l4 as full-matrix sums and products
(one 4N x 4N product for R_PS L2, five 2N x 2N products for l4), with V_PS
and H_PS formed as dense matrices from their symbols: the reference for the
package's block algebra, which reassociates those sums and applies R_PS by
FFTs.

The near-field section holds a curve's outward unit ``normal``, the
blocked-norm curve distance, the guard decided on the exact distance of
every point, and the difference-array layer potentials over all points at
once, with the real Hankel value formed as J + iY from Cephes and the sum
by the package's ``einsum``: the bit-for-bit reference for the package's
distance, its radius-query guard, its blocked layer potentials and
``specfun.hankel1``.
"""

from __future__ import annotations

import numpy as np
import mpmath as mp
from scipy import special as sp
from scipy.linalg import circulant

from helmbie.fields import far_field_constant
from helmbie.fourier import (
    conv_matrix,
    dld_matrix,
    fft_modes,
    lambda_matrix,
    weight_table,
)
from helmbie.geometry import FINE_SAMPLES, grid, grid_geometry
from helmbie.kernels import _diagonal_limits, _spectral_derivative, kernel_matrix

# ----------------------------------------------------------------------
# curves in mpmath (mirrors of the package's built-in shapes)
# ----------------------------------------------------------------------


def mp_curve(name):
    """Return (point, d1) callables producing mpmath 2-vectors."""
    if name == "circle":

        def point(t):
            return [mp.cos(t), mp.sin(t)]

        def d1(t):
            return [-mp.sin(t), mp.cos(t)]

    elif name == "kite":

        def point(t):
            return [mp.cos(t) + mp.mpf("0.65") * mp.cos(2 * t) - mp.mpf("0.65"),
                    mp.mpf("1.5") * mp.sin(t)]

        def d1(t):
            return [-mp.sin(t) - mp.mpf("1.3") * mp.sin(2 * t),
                    mp.mpf("1.5") * mp.cos(t)]

    elif name == "cavity":
        s = mp.mpf("1.35")
        b = mp.mpf("0.35") * s

        def point(t):
            return [s * mp.cos(t) - b * mp.cos(2 * t) - b,
                    s * mp.sin(t) - b * mp.sin(2 * t)]

        def d1(t):
            return [-s * mp.sin(t) + 2 * b * mp.sin(2 * t),
                    s * mp.cos(t) - 2 * b * mp.cos(2 * t)]

    else:
        raise ValueError(name)
    return point, d1


# ----------------------------------------------------------------------
# off-diagonal kernel factors in mpmath
# ----------------------------------------------------------------------


def _mp_r(point, s, t):
    xs, xt = point(s), point(t)
    return mp.sqrt((xs[0] - xt[0]) ** 2 + (xs[1] - xt[1]) ** 2)


def mp_kernel_a(name, k, s, t):
    point, _ = mp_curve(name)
    return -mp.besselj(0, k * _mp_r(point, s, t)) / (4 * mp.pi)


def mp_kernel_b(name, k, s, t):
    point, _ = mp_curve(name)
    r = _mp_r(point, s, t)
    h0 = mp.besselj(0, k * r) + 1j * mp.bessely(0, k * r)
    log_term = mp.log(mp.sin((s - t) / 2) ** 2)
    return 0.25j * h0 + mp.besselj(0, k * r) * log_term / (4 * mp.pi)


def mp_kernel_a_tilde(name, k, s, t):
    point, _ = mp_curve(name)
    r = _mp_r(point, s, t)
    return (1 - mp.besselj(0, k * r)) / (4 * mp.pi * mp.sin((s - t) / 2) ** 2)


def _mp_delta_dot_m(name, s, t):
    point, d1 = mp_curve(name)
    xs, xt = point(s), point(t)
    dt = d1(t)
    return (xs[0] - xt[0]) * dt[1] - (xs[1] - xt[1]) * dt[0]


def mp_kernel_c(name, k, s, t):
    point, _ = mp_curve(name)
    r = _mp_r(point, s, t)
    dm = _mp_delta_dot_m(name, s, t)
    return -(k / (4 * mp.pi)) * dm * mp.besselj(1, k * r) / (
        r * mp.sin((s - t) / 2) ** 2
    )


def mp_kernel_d(name, k, s, t):
    point, _ = mp_curve(name)
    r = _mp_r(point, s, t)
    dm = _mp_delta_dot_m(name, s, t)
    h1 = mp.besselj(1, k * r) + 1j * mp.bessely(1, k * r)
    full = 0.25j * k * h1 * dm / r
    sub = mp_kernel_c(name, k, s, t) * mp.sin((s - t) / 2) ** 2 * mp.log(
        mp.sin((s - t) / 2) ** 2
    )
    return full - sub


def richardson_diagonal(fn, s, j_lo=10, j_hi=20, dps=50):
    """Richardson limit of fn(s, s +- h) as h -> 0, h = 2^-j.

    Averages the two one-sided values to kill odd orders, then runs a Neville
    table in h^2.  Returns an mpmath complex number.
    """
    with mp.workdps(dps):
        hs = [mp.mpf(2) ** (-j) for j in range(j_lo, j_hi + 1)]
        vals = [(fn(s, s + h) + fn(s, s - h)) / 2 for h in hs]
        x = [h * h for h in hs]
        table = list(vals)
        m = len(table)
        for level in range(1, m):
            for i in range(m - level):
                num = x[i] * table[i + 1] - x[i + level] * table[i]
                table[i] = num / (x[i] - x[i + level])
        return table[0]


# ----------------------------------------------------------------------
# weight-coefficient quadrature oracle
# ----------------------------------------------------------------------


def mp_psi_hat(m, n, dps=30):
    """(1/2pi) int_0^{2pi} psi_m(t) cos(n t) dt by singular quadrature.

    The weights are even about pi, and tanh-sinh quadrature handles the log
    endpoint; the interval is split so each panel sees at most a few
    oscillations of cos(n t).
    """
    n = abs(int(n))
    with mp.workdps(dps):
        if m == 0:
            return mp.mpf(1 if n == 0 else 0)

        def psi(t):
            L = mp.log(mp.sin(t / 2) ** 2)
            return L if m == 1 else mp.sin(t / 2) ** 2 * L

        pieces = max(2, 2 * n)
        knots = [mp.pi * j / pieces for j in range(pieces + 1)]
        total = mp.mpf(0)
        for a, b in zip(knots[:-1], knots[1:]):
            total += mp.quad(lambda t: psi(t) * mp.cos(n * t), [a, b])
        return 2 * total / (2 * mp.pi)


# ----------------------------------------------------------------------
# circle eigenvalues by separation of variables
# ----------------------------------------------------------------------


def mp_circle_eigs(k, n, dps=40):
    """Eigenvalues (V, K, Kt, H) of the unit-circle operators on e_n."""
    n = abs(int(n))
    with mp.workdps(dps):
        k = mp.mpf(k)
        j = mp.besselj(n, k)
        y = mp.bessely(n, k)
        jp = (mp.besselj(n - 1, k) - mp.besselj(n + 1, k)) / 2
        yp = (mp.bessely(n - 1, k) - mp.bessely(n + 1, k)) / 2
        h = j + 1j * y
        hp = jp + 1j * yp
        lam_v = 0.5j * mp.pi * j * h
        lam_k = 0.5j * mp.pi * k * jp * h - mp.mpf(1) / 2
        lam_kt = 0.5j * mp.pi * k * j * hp + mp.mpf(1) / 2
        lam_h = 0.5j * mp.pi * k * k * jp * hp
        return lam_v, lam_k, lam_kt, lam_h


def mp_bessel_row(z, dps=30):
    """(J0, J1, Y0, Y1) at z with dps digits."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        return (mp.besselj(0, z), mp.besselj(1, z),
                mp.bessely(0, z), mp.bessely(1, z))


# ----------------------------------------------------------------------
# brute-force discrete transforms
# ----------------------------------------------------------------------


def brute_dft(samples):
    """O(N^2) interpolation coefficients c_n, n = -N+1..N (index order)."""
    samples = np.asarray(samples, dtype=complex)
    two_n = samples.size
    N = two_n // 2
    tj = np.arange(two_n) * np.pi / N
    ns = list(range(-N + 1, N + 1))
    return {
        n: np.sum(samples * np.exp(-1j * n * tj)) / two_n for n in ns
    }


def brute_weighted_conv(m, samples, psi_hat_fn):
    """O(N^2) product quadrature sum_n 2 pi psihat_m(n) c_n e_n(s_j)."""
    samples = np.asarray(samples, dtype=complex)
    two_n = samples.size
    N = two_n // 2
    tj = np.arange(two_n) * np.pi / N
    coeffs = brute_dft(samples)
    out = np.zeros(two_n, dtype=complex)
    for n, c in coeffs.items():
        out += 2.0 * np.pi * psi_hat_fn(m, n) * c * np.exp(1j * n * tj)
    return out


def circulant_from_symbol(symbol):
    """Dense complex matrix of the Fourier multiplier with the given
    FFT-layout symbol: M[i, j] = (1/2N) sum_n sigma(n) exp(i n (t_i - t_j)),
    so that M g = ifft(symbol * fft(g))."""
    return circulant(np.fft.ifft(np.asarray(symbol, dtype=complex)))


def sobolev_norm(g, p):
    """Periodic Sobolev norm (|c_0|^2 + sum_{n != 0} |n|^{2p} |c_n|^2)^(1/2)
    of a ``TrigPolynomial``."""
    n = np.abs(g.modes)
    weights = np.where(n == 0, 1.0, np.maximum(n, 1).astype(float) ** (2.0 * p))
    return float(np.sqrt(np.sum(weights * np.abs(g.spectral) ** 2)))


# ----------------------------------------------------------------------
# pointwise float64 kernel factors (reference for the fused pass)
# ----------------------------------------------------------------------

_DIAG_TOL = 1e-14  # |sin((s-t)/2)| below this counts as the diagonal


def diagonal_limits(ctx, s):
    """Diagonal limits {"A", "B", "At", "C", "D"} at the parameters ``s``,
    from the package's closed forms."""
    return _diagonal_limits(ctx.k, ctx.curve.d1(s), ctx.curve.d2(s))


def _j(order, z):
    return (sp.j0, sp.j1)[order](np.asarray(z, dtype=float))


def _h(order, z):
    return sp.hankel1(order, z)


def _pair_geometry(ctx, s, t):
    """delta = x(s)-x(t), r = |delta|, sin^2((s-t)/2), diagonal mask."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    delta = ctx.curve.point(s) - ctx.curve.point(t)
    r = np.linalg.norm(delta, axis=-1)
    half = np.sin(0.5 * (s - t))
    sin2 = half * half
    diag = np.abs(half) < _DIAG_TOL
    return delta, r, sin2, diag


def _one_minus_j0(z):
    """(1 - J0(z)) with a series branch killing the small-z cancellation."""
    z = np.asarray(z)
    direct = 1.0 - _j(0, np.where(np.abs(z) < 0.5, 1.0, z))
    z2 = z * z
    series = 1.0 + z2 * (
        -1.0 / 16.0
        + z2 * (
            1.0 / 576.0
            + z2 * (
                -1.0 / 36864.0
                + z2 * (1.0 / 3686400.0 + z2 * (-1.0 / 530841600.0))
            )
        )
    )
    series = 0.25 * z2 * series
    return np.where(np.abs(z) < 0.5, series, direct)


def kernel_a(ctx, s, t):
    """Log-weight factor of the single-layer kernel; smooth, real for real k."""
    _, r, _, _ = _pair_geometry(ctx, s, t)
    return -_j(0, ctx.k * r) / (4.0 * np.pi)


def kernel_b(ctx, s, t):
    """Smooth remainder of the single-layer kernel."""
    _, r, sin2, diag = _pair_geometry(ctx, s, t)
    r_safe = np.where(diag, 1.0, r)
    sin2_safe = np.where(diag, 1.0, sin2)
    h0 = _h(0, ctx.k * r_safe)
    j0 = _j(0, ctx.k * r_safe)
    off = 0.25j * h0 + j0 * np.log(sin2_safe) / (4.0 * np.pi)
    return np.where(diag, diagonal_limits(ctx, np.asarray(s, dtype=float))["B"], off)


def kernel_a_tilde(ctx, s, t):
    """(1 - J0(k r)) / (4 pi sin^2((s-t)/2)) with its diagonal limit."""
    _, r, sin2, diag = _pair_geometry(ctx, s, t)
    sin2_safe = np.where(diag, 1.0, sin2)
    off = _one_minus_j0(ctx.k * r) / (4.0 * np.pi * sin2_safe)
    return np.where(diag, diagonal_limits(ctx, np.asarray(s, dtype=float))["At"], off)


def _delta_dot_m(ctx, s, t, delta):
    d1t = ctx.curve.d1(t)
    return delta[..., 0] * d1t[..., 1] - delta[..., 1] * d1t[..., 0]


def kernel_c(ctx, s, t):
    """sin^2-log factor of the double-layer kernel."""
    delta, r, sin2, diag = _pair_geometry(ctx, s, t)
    dm = _delta_dot_m(ctx, s, t, delta)
    r_safe = np.where(diag, 1.0, r)
    sin2_safe = np.where(diag, 1.0, sin2)
    off = (
        -(ctx.k / (4.0 * np.pi))
        * dm
        * _j(1, ctx.k * r_safe)
        / (r_safe * sin2_safe)
    )
    return np.where(diag, diagonal_limits(ctx, np.asarray(s, dtype=float))["C"], off)


def kernel_d(ctx, s, t):
    """Smooth remainder of the double-layer kernel."""
    delta, r, sin2, diag = _pair_geometry(ctx, s, t)
    dm = _delta_dot_m(ctx, s, t, delta)
    r_safe = np.where(diag, 1.0, r)
    sin2_safe = np.where(diag, 1.0, sin2)
    full = 0.25j * ctx.k * _h(1, ctx.k * r_safe) * dm / r_safe
    csl = (
        -(ctx.k / (4.0 * np.pi))
        * dm
        * _j(1, ctx.k * r_safe)
        / r_safe
        * np.log(sin2_safe)
    )
    limit = diagonal_limits(ctx, np.asarray(s, dtype=float))["D"]
    return np.where(diag, limit, full - csl)


_POINTWISE = {
    "A": kernel_a,
    "B": kernel_b,
    "C": kernel_c,
    "D": kernel_d,
    "At": kernel_a_tilde,
}


def pointwise_matrix(ctx, which, N):
    """One factor sampled pair by pair on the (2N)x(2N) meshgrid."""
    nodes = grid(N)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    return np.asarray(_POINTWISE[which](ctx, S, T))


def pointwise_ef(ctx, N, oversample=1):
    """(E, F) from meshgrid samples of A, B and A~ (see helmbie.kernels)."""
    M = oversample * N
    nodes = grid(M)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")

    a_mat = np.asarray(kernel_a(ctx, S, T), dtype=complex)
    b_mat = kernel_b(ctx, S, T)
    at_mat = np.asarray(kernel_a_tilde(ctx, S, T), dtype=complex)

    at_s = _spectral_derivative(at_mat, axis=0)
    at_t = _spectral_derivative(at_mat, axis=1)
    at_st = _spectral_derivative(at_s, axis=1)
    b_st = _spectral_derivative(_spectral_derivative(b_mat, axis=0), axis=1)

    diff = S - T
    sin_d = np.sin(diff)
    cos_d = np.cos(diff)
    half = np.sin(0.5 * diff)
    sin2 = half * half
    d1 = ctx.curve.d1(nodes)
    xdx = d1 @ d1.T

    k2 = ctx.k * ctx.k
    skew = 0.5 * (at_s - at_t) * sin_d
    e_mat = -at_st * sin2 + skew + 0.5 * at_mat * cos_d + k2 * xdx * a_mat
    f_mat = -b_st + skew + at_mat * (0.5 + cos_d) + k2 * xdx * b_mat
    return e_mat[::oversample, ::oversample], f_mat[::oversample, ::oversample]


# ----------------------------------------------------------------------
# family operators and far fields as first assembled
# ----------------------------------------------------------------------


def _pairwise_sin2(N):
    nodes = grid(N)
    half = np.sin(0.5 * (nodes[:, None] - nodes[None, :]))
    return half * half


def diff_matrix(N):
    """Spectral differentiation d/dt on the 2N grid, symbol i n with the
    unpaired top mode taken as +N: the D of the Maue route D V D."""
    return circulant_from_symbol(1j * fft_modes(N))


def k_kt_from_factors(ctx, N, family):
    """(K, K') of the plain or tilde family, K' formed from the transposed
    factor matrices: W o (C^T sin^2) + W0 D^T, or W2 o C^T + W0 D^T."""
    c_mat, d_mat = kernel_matrix(ctx, "C", N), kernel_matrix(ctx, "D", N)
    w0 = np.pi / N
    if family == "plain":
        weight = conv_matrix(weight_table(1, N)).real
        sin2 = _pairwise_sin2(N)
        return (weight * (c_mat * sin2) + w0 * d_mat,
                weight * (c_mat.T * sin2) + w0 * d_mat.T)
    weight = conv_matrix(weight_table(2, N)).real
    return weight * c_mat + w0 * d_mat, weight * c_mat.T + w0 * d_mat.T


def t_from_pairwise_grid(ctx, N):
    """T = W1 o E + W0 F with sin(s-t), cos(s-t) and sin^2((s-t)/2) taken
    pair by pair and k^2 x'(s).x'(t) as one matrix product."""
    a_mat = kernel_matrix(ctx, "A", N)
    b_mat = kernel_matrix(ctx, "B", N)
    at_mat = kernel_matrix(ctx, "At", N)
    at_s = _spectral_derivative(at_mat, axis=0)
    at_t = _spectral_derivative(at_mat, axis=1)
    at_st = _spectral_derivative(at_s, axis=1)
    b_st = _spectral_derivative(_spectral_derivative(b_mat, axis=0), axis=1)
    nodes = grid(N)
    diff = nodes[:, None] - nodes[None, :]
    sin_d, cos_d = np.sin(diff), np.cos(diff)
    d1 = ctx.curve.d1(nodes)
    k2_xdx = ctx.k * ctx.k * (d1 @ d1.T)
    skew = 0.5 * (at_s - at_t) * sin_d
    e_mat = -at_st * _pairwise_sin2(N) + skew + 0.5 * at_mat * cos_d + k2_xdx * a_mat
    f_mat = -b_st + skew + at_mat * (0.5 + cos_d) + k2_xdx * b_mat
    return conv_matrix(weight_table(1, N)).real * e_mat + (np.pi / N) * f_mat


def directions(pattern):
    """The unit directions (cos, sin) of a FarFieldPattern's angles, shape (p, 2)."""
    return np.stack([np.cos(pattern.angles), np.sin(pattern.angles)], axis=-1)


def two_exponential_far_field(curve, terms, angles):
    """Far field of ("sl" | "dl", k, density) terms, one e^{-ik x^.x(t)} per
    term, summed term by term."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    out = np.zeros(angles.size, dtype=complex)
    for kind, k, density in terms:
        density = np.asarray(density, dtype=complex)
        N = density.size // 2
        _, xb, m = grid_geometry(curve, N)
        phase = np.exp(-1j * k * (xhat @ xb.T))
        if kind == "dl":
            phase = -1j * k * (xhat @ m.T) * phase
        out += far_field_constant(k) * (np.pi / N) * (phase @ density)
    return out


def point_source_far_field(k, location, angles):
    """Far field of Phi_k(. - y0): far_field_constant(k) e^{-ik x^.y0}."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    y0 = np.asarray(location, dtype=float)
    return far_field_constant(k) * np.exp(-1j * k * (xhat @ y0))


def circle_transmission_far_field(radius, k_plus, k_minus, nu, angles,
                                  direction=None, source=None):
    """Far field of u+ on the circle |x| = radius, for the incident plane wave
    e^{i k+ d.x} (``direction`` d) or Phi_{k+}(. - y0) (``source`` y0, outside
    the circle), with u- = u+ + u_inc and nu d_n u- = d_n (u+ + u_inc).

    Mode by mode, u_inc = c_n J_n(k+ r) e^{in theta}, u+ = a_n H_n(k+ r)
    e^{in theta} and u- = b_n J_n(k- r) e^{in theta} meet the two conditions
    at r = radius, one 2 x 2 system in (b_n, a_n); the far field of
    H_n(k r) e^{in theta} is sqrt(2/(pi k)) e^{-i pi/4} (-i)^n e^{in theta}.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if source is None:
        d = np.asarray(direction, dtype=float)
        theta_d, reach = np.arctan2(d[1], d[0]), radius
    else:
        theta_d, reach = np.arctan2(source[1], source[0]), np.hypot(*source)
    # the modes beyond a few dozen past the largest k r have decayed
    n_max = int(np.ceil(max(k_plus, k_minus) * max(radius, reach))) + 40
    n = np.arange(-n_max, n_max + 1)
    if source is None:  # Jacobi-Anger
        c = 1j ** n * np.exp(-1j * n * theta_d)
    else:  # Graf's addition theorem, for r < |y0|
        c = 0.25j * sp.hankel1(n, k_plus * reach) * np.exp(-1j * n * theta_d)
    zp, zm = k_plus * radius, k_minus * radius
    jp, djp = sp.jv(n, zp), k_plus * sp.jvp(n, zp)
    hp, dhp = sp.hankel1(n, zp), k_plus * sp.h1vp(n, zp)
    jm, djm = sp.jv(n, zm), nu * k_minus * sp.jvp(n, zm)
    # [jm, -hp; djm, -dhp] (b, a) = c (jp, djp), by Cramer's rule
    a = c * (jm * djp - djm * jp) / (hp * djm - jm * dhp)
    modes = np.exp(1j * np.outer(angles, n))
    return (np.sqrt(2.0 / (np.pi * k_plus)) * np.exp(-0.25j * np.pi)
            * (modes @ ((-1j) ** n * a)))


# ----------------------------------------------------------------------
# full-matrix compositions of l3 and l4
# ----------------------------------------------------------------------


def ps_operators(curve, N, kappa):
    """V_PS and H_PS as dense 2N x 2N matrices, sum_a diag(l_a(s)) C_a: C_a
    is the circulant of the symbol 1/(2 sqrt(n^2 - kappa^2 s_a^2)), or of
    -sqrt(n^2 - kappa^2 s_a^2)/2, at the speed s_a, one of three Chebyshev
    nodes on [min s, max s] with Lagrange basis l_a; one circulant where the
    speed s = |x'| at the nodes is constant up to rounding."""
    s = curve.speed(grid(N))
    lo, hi = np.min(s), np.max(s)
    if hi - lo <= 1e-12 * hi:
        pairs = [(hi, np.ones_like(s))]
    else:
        nodes = [0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos((2 * a + 1) * np.pi / 6)
                 for a in range(3)]
        pairs = []
        for a, node in enumerate(nodes):
            basis = np.ones_like(s)
            for b, other in enumerate(nodes):
                if b != a:
                    basis *= (s - other) / (node - other)
            pairs.append((node, basis))
    n = fft_modes(N).astype(float)
    v_ps = np.zeros((2 * N, 2 * N), dtype=complex)
    h_ps = np.zeros((2 * N, 2 * N), dtype=complex)
    for node, basis in pairs:
        root = np.sqrt(n * n - (kappa * node) ** 2)
        v_ps += basis[:, None] * circulant_from_symbol(0.5 / root)
        h_ps += basis[:, None] * circulant_from_symbol(-0.5 * root)
    return v_ps, h_ps


def l3_full_matrix(problem, N, fp, fm, kappa, l2):
    """lead + mid + R_PS L2 with R_PS and the sums formed as 4N x 4N
    matrices; l2 is the tilde l2 matrix."""
    nu = problem.nu
    lam, dld = lambda_matrix(N), dld_matrix(N)
    eye = np.eye(2 * N)
    lead = np.block([[0.5 * eye, -lam / nu], [nu * dld, 0.5 * eye]])
    mid = np.block([
        [fm.k_tilde, -fm.r_tilde / nu],
        [nu * fm.t_op, -fm.kt_tilde],
    ])
    v_ps, h_ps = ps_operators(problem.curve, N, kappa)
    reg = np.block([[eye, 2.0 * v_ps], [-2.0 * nu * h_ps, nu * eye]]) / (nu + 1.0)
    return lead + mid + reg @ l2


def l4_full_matrix(problem, N, rho, fp, fm):
    """-(nu+1)/2 I + big_K - i rho big_V with the five products as written."""
    nu = problem.nu
    eye = np.eye(2 * N)
    kt_m, kt_p = fm.kt_plain, fp.kt_plain
    v_m, v_p, k_p = fm.v_plain, fp.v_plain, fp.k_plain
    big_k = (
        -kt_m @ (nu * eye - 2.0 * kt_m)
        - nu * kt_p @ (eye + 2.0 * kt_m)
        + 2.0 * (fp.t_op - fm.t_op) @ v_m
    )
    big_v = -nu * v_p @ (eye + 2.0 * kt_m) - (eye - 2.0 * k_p) @ v_m
    return -0.5 * (nu + 1.0) * eye + big_k - 1j * rho * big_v


# ----------------------------------------------------------------------
# near-field evaluation on (points, nodes, 2) difference arrays
# ----------------------------------------------------------------------

_NORM_BLOCK = 64  # points per block of the (points, FINE_SAMPLES, 2) array


def normal(curve, t):
    """Outward unit normal (x2', -x1')/|x'| of ``curve`` at t, shape (..., 2)."""
    d = curve.d1(t)
    n = np.stack([d[..., 1], -d[..., 0]], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def cephes_hankel1(order, z):
    """H^(1)_order(z) = J + 1j*Y for real z > 0, as two Cephes calls."""
    j, y = ((sp.j0, sp.y0), (sp.j1, sp.y1))[order]
    return j(z) + 1j * y(z)


def norm_distance(curve, points):
    """Minimum over FINE_SAMPLES nodes of |p - x(t)|, by norm over the
    length-2 axis of a blocked difference array."""
    t = np.linspace(0.0, 2.0 * np.pi, FINE_SAMPLES, endpoint=False)
    bd = curve.point(t)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _NORM_BLOCK):
        block = pts[start:start + _NORM_BLOCK]
        d = np.linalg.norm(block[:, None, :] - bd[None, :, :], axis=-1)
        out[start:start + block.shape[0]] = d.min(axis=1)
    return out


def exact_guard_message(curve, min_distance, points):
    """The near-field guard's error message from the exact fine-sample
    distance of every point, or None when every point clears it."""
    dist = curve.distance(points)
    if not np.any(dist <= min_distance):
        return None
    return (f"evaluation point at distance {float(dist.min()):.3e} from the curve; "
            f"the quadrature guard requires > {min_distance:.3e}")


def _diff_geometry(curve, density, points):
    density = np.asarray(density, dtype=complex)
    N = density.size // 2
    nodes = grid(N)
    xb = curve.point(nodes)
    d1 = curve.d1(nodes)
    m = np.stack([d1[:, 1], -d1[:, 0]], axis=-1)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - xb[None, :, :]
    return density, N, m, diff, np.linalg.norm(diff, axis=-1)


def diff_single_layer(curve, k, density, points):
    """Trapezoid single-layer potential from the (points, 2N, 2) array."""
    density, N, _, _, r = _diff_geometry(curve, density, points)
    kern = 0.25j * cephes_hankel1(0, k * r)
    return (np.pi / N) * np.einsum("ij,j->i", kern, density)


def diff_double_layer(curve, k, density, points):
    """Trapezoid double-layer potential from the (points, 2N, 2) array."""
    density, N, m, diff, r = _diff_geometry(curve, density, points)
    dot = diff[..., 0] * m[None, :, 0] + diff[..., 1] * m[None, :, 1]
    kern = 0.25j * k * cephes_hankel1(1, k * r) * dot / r
    return (np.pi / N) * np.einsum("ij,j->i", kern, density)

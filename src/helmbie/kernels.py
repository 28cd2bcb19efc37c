"""Smooth factors of the split Helmholtz boundary-operator kernels.

With target variable s and integration variable t, r = |x(s) - x(t)|,
delta = x(s) - x(t), and m(t) = (x2'(t), -x1'(t)) the unnormalized outward
normal, the parameterized kernels split against the periodic weights
log sin^2((s-t)/2) and sin^2((s-t)/2) log sin^2((s-t)/2) as

    (i/4) H0(k r)                 = A log sin^2 + B
    (ik/4) H1(k r) (delta . m)/r  = C sin^2 log sin^2 + D
    A                             = -1/(4 pi) + A~ sin^2

where

    A  = -J0(k r)/(4 pi)
    C  = -(k/(4 pi)) (delta . m) J1(k r) / (r sin^2((s-t)/2))
    A~ = (1 - J0(k r)) / (4 pi sin^2((s-t)/2))

and B, D are the smooth remainders defined by subtraction.  C carries the
1/(4 pi) normalization; without it D would keep a residual logarithmic
singularity on the diagonal.  Diagonal limits (gamma_E = Euler-Mascheroni):

    A(s,s)  = -1/(4 pi)
    B(s,s)  =  i/4 - (gamma_E + log(k |x'(s)|)) / (2 pi)
    A~(s,s) =  k^2 |x'(s)|^2 / (4 pi)
    C(s,s)  = -k^2 (x''(s) . m(s)) / (4 pi)
    D(s,s)  =  (x''(s) . m(s)) / (4 pi |x'(s)|^2)

All closed forms are unit-tested against Richardson-extrapolated limits of
the off-diagonal formulas in extended precision.

The hypersingular remainder T has kernel E log sin^2 + F with

    E = -d_s d_t A~ sin^2 + (d_s A~ - d_t A~) sin(s-t)/2 + A~ cos(s-t)/2
        + k^2 (x'(s).x'(t)) A
    F = -d_s d_t B + (d_s A~ - d_t A~) sin(s-t)/2 + A~ (1/2 + cos(s-t))
        + k^2 (x'(s).x'(t)) B

with the +k^2 coupling coefficient of the classical Maue identity
H = D V D + k^2 V[(x'(s).x'(.)) .], pinned by the circle eigenvalue tests.

The mixed partials are produced by spectral differentiation of the sampled
biperiodic smooth kernels (diagonals filled with the analytic limits first),
so E and F are exposed as grid matrices rather than pointwise scalars.

Direct formulas are numerically safe down to node separation pi/1024; the
only guarded cancellation, 1 - J0(k r), switches to its power series for
|k r| < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .fourier import fft_modes
from .geometry import ParametricCurve, grid

__all__ = [
    "KernelContext",
    "kernel_a",
    "kernel_b",
    "kernel_c",
    "kernel_d",
    "kernel_a_tilde",
    "diag_a",
    "diag_b",
    "diag_c",
    "diag_d",
    "diag_a_tilde",
    "kernel_matrix",
    "sin2_matrix",
    "ef_matrices",
]

EULER_GAMMA = float(np.euler_gamma)

_DIAG_TOL = 1e-14  # |sin((s-t)/2)| below this counts as the diagonal


@dataclass(frozen=True)
class KernelContext:
    """Curve plus wavenumber; k real positive, or complex with Im k >= 0."""

    curve: ParametricCurve
    k: complex

    def __post_init__(self):
        k = complex(self.k) if np.iscomplexobj(self.k) else float(self.k)
        if isinstance(k, complex) and k.imag == 0:
            k = k.real
        if isinstance(k, complex):
            if not (np.isfinite(k) and k.imag > 0):
                raise ValueError(f"complex wavenumber needs Im k > 0, got {k}")
        elif not (np.isfinite(k) and k > 0):
            raise ValueError(f"real wavenumber must be finite and positive, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def is_complex(self) -> bool:
        return isinstance(self.k, complex)


def _j0(ctx, z):
    if ctx.is_complex:
        return specfun.bessel_j_complex(0, z)
    return specfun.bessel_j(0, z)


def _j1(ctx, z):
    if ctx.is_complex:
        return specfun.bessel_j_complex(1, z)
    return specfun.bessel_j(1, z)


def _h0(ctx, z):
    if ctx.is_complex:
        return specfun.hankel1_complex(0, z)
    return specfun.hankel1(0, z)


def _h1(ctx, z):
    if ctx.is_complex:
        return specfun.hankel1_complex(1, z)
    return specfun.hankel1(1, z)


def _pair_geometry(ctx, s, t):
    """delta = x(s)-x(t), r = |delta|, m(t), sin^2((s-t)/2), diagonal mask."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    delta = ctx.curve.point(s) - ctx.curve.point(t)
    r = np.linalg.norm(delta, axis=-1)
    half = np.sin(0.5 * (s - t))
    sin2 = half * half
    diag = np.abs(half) < _DIAG_TOL
    return delta, r, sin2, diag


def _one_minus_j0(ctx, z):
    """(1 - J0(z)) with a series branch killing the small-z cancellation."""
    z = np.asarray(z)
    direct = 1.0 - _j0(ctx, np.where(np.abs(z) < 0.5, 1.0, z))
    z2 = z * z
    # (1 - J0(z)) = (z^2/4) * S(z); S summed to z^12, exact below |z| = 1/2
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


def diag_a(ctx, s):
    s = np.asarray(s, dtype=float)
    return np.broadcast_to(-1.0 / (4.0 * np.pi), s.shape).copy()


def diag_b(ctx, s):
    speed = ctx.curve.speed(s)
    return 0.25j - (EULER_GAMMA + np.log(ctx.k * speed)) / (2.0 * np.pi)


def diag_a_tilde(ctx, s):
    speed = ctx.curve.speed(s)
    return (ctx.k * ctx.k) * speed * speed / (4.0 * np.pi)


def _curvature_dot(curve, s):
    """x''(s) . (x2'(s), -x1'(s))."""
    d1 = curve.d1(s)
    d2 = curve.d2(s)
    return d2[..., 0] * d1[..., 1] - d2[..., 1] * d1[..., 0]


def diag_c(ctx, s):
    return -(ctx.k * ctx.k) * _curvature_dot(ctx.curve, s) / (4.0 * np.pi)


def diag_d(ctx, s):
    speed = ctx.curve.speed(s)
    return _curvature_dot(ctx.curve, s) / (4.0 * np.pi * speed * speed)


def kernel_a(ctx, s, t):
    """Log-weight factor of the single-layer kernel; smooth, real for real k."""
    _, r, _, _ = _pair_geometry(ctx, s, t)
    return -_j0(ctx, ctx.k * r) / (4.0 * np.pi)


def kernel_b(ctx, s, t):
    """Smooth remainder of the single-layer kernel."""
    _, r, sin2, diag = _pair_geometry(ctx, s, t)
    r_safe = np.where(diag, 1.0, r)
    sin2_safe = np.where(diag, 1.0, sin2)
    h0 = _h0(ctx, ctx.k * r_safe)
    j0 = _j0(ctx, ctx.k * r_safe)
    off = 0.25j * h0 + j0 * np.log(sin2_safe) / (4.0 * np.pi)
    return np.where(diag, diag_b(ctx, np.asarray(s, dtype=float)), off)


def kernel_a_tilde(ctx, s, t):
    """(1 - J0(k r)) / (4 pi sin^2((s-t)/2)) with its diagonal limit."""
    _, r, sin2, diag = _pair_geometry(ctx, s, t)
    sin2_safe = np.where(diag, 1.0, sin2)
    off = _one_minus_j0(ctx, ctx.k * r) / (4.0 * np.pi * sin2_safe)
    return np.where(diag, diag_a_tilde(ctx, np.asarray(s, dtype=float)), off)


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
        * _j1(ctx, ctx.k * r_safe)
        / (r_safe * sin2_safe)
    )
    return np.where(diag, diag_c(ctx, np.asarray(s, dtype=float)), off)


def kernel_d(ctx, s, t):
    """Smooth remainder of the double-layer kernel."""
    delta, r, sin2, diag = _pair_geometry(ctx, s, t)
    dm = _delta_dot_m(ctx, s, t, delta)
    r_safe = np.where(diag, 1.0, r)
    sin2_safe = np.where(diag, 1.0, sin2)
    full = 0.25j * ctx.k * _h1(ctx, ctx.k * r_safe) * dm / r_safe
    csl = (
        -(ctx.k / (4.0 * np.pi))
        * dm
        * _j1(ctx, ctx.k * r_safe)
        / r_safe
        * np.log(sin2_safe)
    )
    return np.where(diag, diag_d(ctx, np.asarray(s, dtype=float)), full - csl)


_POINTWISE = {
    "A": kernel_a,
    "B": kernel_b,
    "C": kernel_c,
    "D": kernel_d,
    "At": kernel_a_tilde,
}


def sin2_matrix(N: int) -> np.ndarray:
    """sin^2((s_i - t_j)/2) on the collocation grid."""
    nodes = grid(N)
    half = np.sin(0.5 * (nodes[:, None] - nodes[None, :]))
    return half * half


def kernel_matrix(ctx: KernelContext, which: str, N: int) -> np.ndarray:
    """Grid samples of one smooth kernel factor, diagonal filled analytically."""
    if which not in _POINTWISE:
        raise ValueError(f"unknown kernel {which!r}; choices {sorted(_POINTWISE)}")
    nodes = grid(N)
    S, T = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.asarray(_POINTWISE[which](ctx, S, T))
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite entries in kernel {which}")
    return values


def _spectral_derivative(values, axis):
    """Differentiate grid samples of a smooth biperiodic function spectrally."""
    mult = 1j * fft_modes(values.shape[axis] // 2).astype(complex)
    mult[values.shape[axis] // 2] = 0.0  # zero the unpaired mode in derivatives
    shape = [1, 1]
    shape[axis] = values.shape[axis]
    hat = np.fft.fft(values, axis=axis)
    return np.fft.ifft(hat * mult.reshape(shape), axis=axis)


def ef_matrices(ctx: KernelContext, N: int, oversample: int = 1):
    """Grid matrices (E, F) of the hypersingular remainder kernel.

    Sampled on a (2M)x(2M) grid with M = oversample*N (grids nest), the mixed
    partials of A~ and B are taken spectrally, and the result is restricted
    to the 2N operator grid.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
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
    xdx = d1 @ d1.T  # x'(s_i) . x'(t_j)

    k2 = ctx.k * ctx.k
    skew = 0.5 * (at_s - at_t) * sin_d
    e_mat = -at_st * sin2 + skew + 0.5 * at_mat * cos_d + k2 * xdx * a_mat
    f_mat = -b_st + skew + at_mat * (0.5 + cos_d) + k2 * xdx * b_mat

    step = oversample
    return e_mat[::step, ::step], f_mat[::step, ::step]

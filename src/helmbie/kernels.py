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
They are taken on the 2N grid the operators act on, from the same factor
set as A, B, C and D; the test oracles check them against pointwise
formulas sampled on a twice finer grid.

Fused pass.  All factors are closed-form in J0, J1, H0 and H1 of k r over
the same node pairs, so one ``KernelFactors`` per (curve, k, N) samples x, x'
and x'' once on the 2N nodes and evaluates each Bessel function once, as a
compact vector over the strict upper triangle (r and sin^2 are symmetric).
A, B, A~ are symmetric and C, D are (delta . m) times a symmetric function;
full matrices, with the diagonal limits written by index, and E, F are
formed from these vectors on request, C and D together from one delta . m.
A ``KernelContext`` keeps the factor set of its last grid, so one operator
family shares a single pass.  The grid functions sin(s-t), cos(s-t) and
sin^2((s-t)/2) of E, F and the plain K depend only on i - j: they are
circulants built from 2N values, and k^2 x'(s).x'(t) is two outer products.

Direct formulas are numerically safe down to node separation pi/1024; the
only guarded cancellation, 1 - J0(k r), switches to its power series for
|k r| < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import specfun
from .fields import _positive_real
from .fourier import circulant, fft_modes
from .geometry import ParametricCurve, grid

__all__ = [
    "KernelContext",
    "KernelFactors",
    "kernel_matrix",
    "sin2_matrix",
    "ef_matrices",
]

EULER_GAMMA = float(np.euler_gamma)

_FACTORS = ("A", "At", "B", "C", "D")


@dataclass(frozen=True)
class KernelContext:
    """Curve plus a finite positive real wavenumber k.

    Keeps the ``KernelFactors`` of the most recent grid it was sampled on.
    """

    curve: ParametricCurve
    k: float
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k", _positive_real(self.k))

    def factors(self, N: int) -> "KernelFactors":
        """The fused factor set on the 2N grid, reused while N repeats."""
        found = self._last.get(N)
        if found is None:
            self._last.clear()
            found = self._last[N] = KernelFactors(self, N)
        return found


def _one_minus_j0(z, j0):
    """1 - J0(z) from J0(z), with a series branch killing the small-z cancellation."""
    out = 1.0 - j0
    small = np.abs(z) < 0.5
    z2 = z[small] * z[small]
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
    out[small] = 0.25 * z2 * series
    return out


def _diagonal_limits(k, d1, d2):
    """Diagonal limits of A, B, C, D and A~ from x'(s) and x''(s)."""
    speed = np.linalg.norm(d1, axis=-1)
    curv = d2[..., 0] * d1[..., 1] - d2[..., 1] * d1[..., 0]  # x''(s) . m(s)
    return {
        "A": np.full(speed.shape, -1.0 / (4.0 * np.pi)),
        "B": 0.25j - (EULER_GAMMA + np.log(k * speed)) / (2.0 * np.pi),
        "At": (k * k) * speed * speed / (4.0 * np.pi),
        "C": -(k * k) * curv / (4.0 * np.pi),
        "D": curv / (4.0 * np.pi * speed * speed),
    }


class KernelFactors:
    """One fused pass over the node pairs of one (curve, k, N).

    Holds x and x' on the 2N nodes, the diagonal limits, and r and sin^2
    as compact vectors over the pairs i < j; J0, J1, H0 and H1 of k r are
    evaluated once each, on first use.  The rest is recomputed per request.
    """

    def __init__(self, ctx: KernelContext, N: int):
        # not ctx itself: ctx holds this object, and a cycle outlives refcounting
        self.k = ctx.k
        self.nodes = grid(N)
        n = self.nodes.size
        self.x = ctx.curve.point(self.nodes)
        self.d1 = ctx.curve.d1(self.nodes)
        self.diag = _diagonal_limits(ctx.k, self.d1, ctx.curve.d2(self.nodes))
        self._mask = np.triu(np.ones((n, n), dtype=bool), 1)  # pairs i < j
        i, j = np.nonzero(self._mask)
        dx, dy = (coord[i] - coord[j] for coord in self.x.T)
        self.r = np.sqrt(dx * dx + dy * dy)  # the 2-norm, bit for bit
        half = np.sin(0.5 * (self.nodes[i] - self.nodes[j]))
        self.sin2 = half * half

    def _dm(self):
        """delta . m(t) on the full grid; zero on the diagonal."""
        x, d1 = self.x, self.d1
        dm = np.subtract.outer(x[:, 0], x[:, 0])
        dm *= d1[:, 1]
        dy = np.subtract.outer(x[:, 1], x[:, 1])
        dy *= d1[:, 0]
        dm -= dy
        return dm

    @cached_property
    def j0(self):
        return specfun.bessel_j(0, self.k * self.r)

    @cached_property
    def j1(self):
        return specfun.bessel_j(1, self.k * self.r)

    @cached_property
    def h0(self):
        return self.j0 + 1j * specfun.bessel_y(0, self.k * self.r)

    @cached_property
    def h1(self):
        return self.j1 + 1j * specfun.bessel_y(1, self.k * self.r)

    def _symmetric(self, upper):
        """Full matrix with ``upper`` on both triangles, zero diagonal."""
        n = self.nodes.size
        out = np.zeros((n, n), dtype=upper.dtype)
        out[self._mask] = upper
        out.T[self._mask] = upper
        return out

    def _finish(self, which, values):
        """Write the diagonal limits of one factor and check it is finite."""
        values.reshape(-1)[:: self.nodes.size + 1] = self.diag[which]
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"non-finite entries in kernel {which}")
        return values

    def matrix(self, which: str) -> np.ndarray:
        """Grid samples of one smooth factor, diagonal filled analytically."""
        if which not in _FACTORS:
            raise ValueError(f"unknown kernel {which!r}; choices {list(_FACTORS)}")
        if which in ("C", "D"):
            return self.cd()[which == "D"]
        k, four_pi = self.k, 4.0 * np.pi
        if which == "A":
            upper = -self.j0 / four_pi
        elif which == "B":
            upper = 0.25j * self.h0 + self.j0 * np.log(self.sin2) / four_pi
        else:
            upper = _one_minus_j0(k * self.r, self.j0) / (four_pi * self.sin2)
        return self._finish(which, self._symmetric(upper))

    def cd(self):
        """Grid matrices (C, D) of the double layer, from one delta . m."""
        k, four_pi = self.k, 4.0 * np.pi
        dm = self._dm()
        c_mat = self._symmetric(-(k / four_pi) * self.j1 / (self.r * self.sin2))
        c_mat *= dm
        upper = 0.25j * k * self.h1 + (k / four_pi) * self.j1 * np.log(self.sin2)
        d_mat = self._symmetric(upper / self.r)
        d_mat *= dm
        return self._finish("C", c_mat), self._finish("D", d_mat)

    def ef(self):
        """Grid matrices (E, F) of the hypersingular remainder kernel."""
        a_mat = self.matrix("A")
        b_mat = self.matrix("B")
        at_mat = self.matrix("At")

        # A~ and B are exactly symmetric, so each derivative in s is the
        # transpose of the one in t, which runs along the contiguous axis
        at_t = _spectral_derivative(at_mat, axis=1)
        at_s = np.ascontiguousarray(at_t.T)
        at_st = _spectral_derivative(at_s, axis=1)
        b_s = np.ascontiguousarray(_spectral_derivative(b_mat, axis=1).T)
        b_st = _spectral_derivative(b_s, axis=1)

        N = self.nodes.size // 2
        sin_d, cos_d, sin2 = (circulant(col) for col in _trig_columns(N))
        k2, d1 = self.k * self.k, self.d1
        k2_xdx = np.multiply.outer(k2 * d1[:, 0], d1[:, 0])  # k^2 x'(s_i) . x'(t_j)
        k2_xdx += np.multiply.outer(k2 * d1[:, 1], d1[:, 1])

        # E and F summed in place, term by term in the order of the module docstring
        skew = np.subtract(at_s, at_t, out=at_s)
        skew *= 0.5
        skew *= sin_d
        e_mat = np.negative(at_st, out=at_st)
        e_mat *= sin2
        e_mat += skew
        e_mat += 0.5 * at_mat * cos_d
        e_mat += k2_xdx * a_mat
        f_mat = np.negative(b_st, out=b_st)
        f_mat += skew
        f_mat += at_mat * (0.5 + cos_d)
        f_mat += k2_xdx * b_mat
        return e_mat, f_mat


def _trig_columns(N: int):
    """sin(t), cos(t) and sin^2(t/2) at the 2N nodes: the first columns of
    the circulants sin(s-t), cos(s-t), sin^2((s-t)/2) on the grid.  Only
    arguments in [0, pi] are evaluated; the rest follow by symmetry."""
    head = grid(N)[: N + 1]
    half = np.sin(0.5 * head)
    sin, cos, sin2 = np.sin(head), np.cos(head), half * half
    mirror = slice(N - 1, 0, -1)  # t_{2N-m} = 2 pi - t_m for m = N-1 .. 1
    return (np.concatenate([sin, -sin[mirror]]), np.concatenate([cos, cos[mirror]]),
            np.concatenate([sin2, sin2[mirror]]))


def sin2_matrix(N: int) -> np.ndarray:
    """sin^2((s_i - t_j)/2) on the collocation grid."""
    return circulant(_trig_columns(N)[2])


def kernel_matrix(ctx: KernelContext, which, N: int):
    """Grid samples of one smooth kernel factor, diagonal filled analytically;
    ``which`` = ("C", "D") gives both double-layer factors from one pass."""
    factors = ctx.factors(N)
    return factors.cd() if which == ("C", "D") else factors.matrix(which)


def _spectral_derivative(values, axis):
    """Differentiate grid samples of a smooth biperiodic function spectrally."""
    mult = 1j * fft_modes(values.shape[axis] // 2).astype(complex)
    mult[values.shape[axis] // 2] = 0.0  # zero the unpaired mode in derivatives
    shape = [1, 1]
    shape[axis] = values.shape[axis]
    # numpy's fft takes a real input much more slowly than the same values as complex
    hat = np.fft.fft(np.asarray(values, dtype=complex), axis=axis)
    hat *= mult.reshape(shape)
    return np.fft.ifft(hat, axis=axis, out=hat)


def ef_matrices(ctx: KernelContext, N: int):
    """Grid matrices (E, F) of the hypersingular remainder kernel on the 2N
    operator grid, from the context's fused factor set: the mixed partials
    of A~ and B are taken spectrally on that grid."""
    return ctx.factors(N).ef()

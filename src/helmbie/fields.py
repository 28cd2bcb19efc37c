"""Near-field evaluation through the layer potentials and far-field patterns.

Off the boundary both potentials have smooth periodic parameterized
integrands, so the plain trapezoid rule is spectrally accurate; evaluation
points closer to the curve than 5 h max|x'| (h = pi/N) are rejected.

The potentials walk the points in blocks of rows = max(1, 2**16 // 2N)
(128 at N = 256) and form p - x(t_j), its length, the Hankel kernel and
the block's rows of the kernel-density product one block at a time, so
their memory is O(rows 2N) whatever the number of points.  Every entry is
formed by the same operations in the same order as over the whole batch,
so the blocks change no output bit.

The distance guard first takes a lower bound from the curve's coarse
sample, every 16th of its fine nodes: the distance to the nearest coarse
node less delta, the largest distance from a fine node to its nearest
coarse node.  Only the points this bound cannot clear are measured against
all fine nodes, and the nearest point of a failing batch is always among
them, so the guard raises for the same batches with the same message.

Far-field normalization: u(r x^) ~ e^{ikr}/sqrt(r) u_inf(x^) with

    u_inf = e^{i pi/4} / sqrt(8 pi k) *
            int [ e^{-ik x^.x(t)} phi(t)                       (SL term)
                  - ik (x^.n(t)) e^{-ik x^.x(t)} |x'(t)| g(t) ] dt   (DL term)

The phase constant is pinned by the radiation-limit test
sqrt(R) e^{-ikR} u(R x^) -> u_inf(x^).

The far field is one pass: with x^.m(t) = x^1 m1(t) + x^2 m2(t), every SL
and DL term of one wavenumber is the one product of e^{-ik x^.x(t)} with the
three nodal columns (sum of SL densities, m1 times the sum of DL densities,
m2 times it), so the exponential is formed once per call, as the cosine and
sine of the real phase.  ``FieldEvaluator.far_field``,
``single_layer_far_field`` and ``double_layer_far_field`` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, specfun
from .geometry import ParametricCurve, _as_points, grid_geometry

__all__ = [
    "FarFieldPattern",
    "FieldEvaluator",
    "far_field_constant",
    "single_layer_potential",
    "double_layer_potential",
    "single_layer_far_field",
    "double_layer_far_field",
    "far_field_linf_diff",
]


# kernel entries per block of evaluation points in the layer potentials: a
# block's work arrays (three real, one complex) take about 3 MiB, whatever the
# number of points
_BLOCK_ENTRIES = 2**16


def _positive_real(value, name: str = "wavenumber k") -> float:
    """value as a float; raises unless it is a finite positive real."""
    if np.imag(value) != 0.0 or not np.isfinite(value) or not np.real(value) > 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {value}")
    return float(np.real(value))


def far_field_constant(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 pi k); every far field calls it, so it checks k."""
    return np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * _positive_real(k))


def _term(k, density, prefix: str = ""):
    """k as a float and density as a complex array; raises unless k is a
    finite positive real and the density is 1-D, of even non-zero length,
    with finite values.  Every potential and far field checks its terms here."""
    k = _positive_real(k, f"{prefix}wavenumber k")
    density = np.asarray(density, dtype=complex)
    if density.ndim != 1 or density.size == 0 or density.size % 2 != 0:
        raise ValueError(f"{prefix}density must be a 1-D array of an even, non-zero "
                         f"number of nodal values, got shape {density.shape}")
    if not np.all(np.isfinite(density)):
        raise ValueError(f"{prefix}density has non-finite values")
    return k, density


def _blocks(pts, xb):
    """Each block of at most max(1, _BLOCK_ENTRIES // 2N) points, as its
    slice of ``pts`` and the components and length of p - x(t_j), each of
    shape (block, 2N)."""
    bx, by = np.ascontiguousarray(xb.T)
    rows = max(1, _BLOCK_ENTRIES // bx.size)
    for start in range(0, pts.shape[0], rows):
        block = pts[start:start + rows]
        dx = block[:, :1] - bx
        dy = block[:, 1:] - by
        r = dx * dx
        r += dy * dy
        yield slice(start, start + rows), dx, dy, np.sqrt(r, out=r)


def single_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int Phi_k(p - x(t)) phi(t) dt off the curve."""
    k, density = _term(k, density)
    N = density.size // 2
    _, xb, _ = grid_geometry(curve, N)
    pts = _as_points(points)
    out = np.empty(pts.shape[0], dtype=complex)
    for rows, _, _, r in _blocks(pts, xb):
        kern = specfun.hankel1(0, k * r)
        kern *= 0.25j
        out[rows] = (np.pi / N) * linalg.matmul(kern, density)
    return out


def double_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int dPhi_k/dn(t) |x'(t)| g(t) dt off the curve."""
    k, density = _term(k, density)
    N = density.size // 2
    _, xb, m = grid_geometry(curve, N)
    m1, m2 = np.ascontiguousarray(m.T)
    pts = _as_points(points)
    out = np.empty(pts.shape[0], dtype=complex)
    for rows, dx, dy, r in _blocks(pts, xb):
        dx *= m1
        dy *= m2
        dx += dy                                # (p - x(t)) . m(t)
        kern = specfun.hankel1(1, k * r)
        kern *= 0.25j * k
        kern *= dx
        kern /= r
        out[rows] = (np.pi / N) * linalg.matmul(kern, density)
    return out


def _angles(angles):
    """angles as a 1-D float array; raises unless they are a scalar or a
    1-D array, finite and non-empty."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.ndim != 1:
        raise ValueError(f"far-field angles must be a scalar or a 1-D array, "
                         f"got shape {angles.shape}")
    if angles.size < 1:
        raise ValueError("need at least one direction")
    if not np.all(np.isfinite(angles)):
        raise ValueError("far-field angles must be finite")
    return angles


def _directions(angles):
    angles = _angles(angles)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _phase(xhat, xb, scale):
    """scale * x^.x(t_j) as (directions, nodes), from two outer products."""
    out = np.multiply.outer(scale * xhat[:, 0], xb[:, 0])
    out += np.multiply.outer(scale * xhat[:, 1], xb[:, 1])
    return out


def _far_field(curve, k, sl_density, dl_density, angles):
    """Far field of an SL density plus a DL density on one grid, in one pass.

    e^{-ik x^.x(t)} is formed once, as cos and sin of the real phase, and
    meets phi, m1 g and m2 g in one product; the DL term is then
    -ik (x^1 sum e m1 g + x^2 sum e m2 g).
    """
    k, sl = _term(k, sl_density)
    _, dl = _term(k, dl_density)
    N = sl.size // 2
    _, xb, m = grid_geometry(curve, N)
    xhat = _directions(angles)
    p = xhat.shape[0]
    cols = np.stack([sl, m[:, 0] * dl, m[:, 1] * dl], axis=1)
    trig = np.empty((2, p, sl.size))  # cos, sin of k x^.x(t)
    arg = _phase(xhat, xb, k)
    np.cos(arg, out=trig[0])
    np.sin(arg, out=trig[1])
    # both real products at once: rows cos then sin, columns (re, im) of cols
    sums = linalg.matmul(trig.reshape(2 * p, -1), cols.view(float)).view(complex)
    e_sl, e_m1, e_m2 = (sums[:p] - 1j * sums[p:]).T
    vals = e_sl - 1j * k * (xhat[:, 0] * e_m1 + xhat[:, 1] * e_m2)
    return far_field_constant(k) * (np.pi / N) * vals


def single_layer_far_field(curve, k, density, angles):
    return _far_field(curve, k, density, np.zeros(np.shape(density)), angles)


def double_layer_far_field(curve, k, density, angles):
    return _far_field(curve, k, np.zeros(np.shape(density)), density, angles)


@dataclass(frozen=True)
class FarFieldPattern:
    """Angular amplitude sampled at unit directions given by angles."""

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        angles = _angles(self.angles)
        values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if values.shape != angles.shape:
            raise ValueError(f"far-field values must match the angles' shape "
                             f"{angles.shape}, got shape {values.shape}")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "values", values)

    @property
    def directions(self):
        return _directions(self.angles)


def far_field_linf_diff(p: FarFieldPattern, q: FarFieldPattern) -> float:
    if p.angles.size != q.angles.size or not np.allclose(p.angles, q.angles):
        raise ValueError("patterns sampled at different directions")
    return float(np.max(np.abs(p.values - q.values)))


class FieldEvaluator:
    """Sum of layer potentials with fixed densities on one curve.

    ``terms`` is a list of ("sl" | "dl", k, nodal density), with a finite
    positive real k and finite densities.  Evaluation rejects non-finite
    points and enforces the 5 h max|x'| distance guard; far fields require
    all terms to share one wavenumber.
    """

    def __init__(self, curve: ParametricCurve, terms):
        if not terms:
            raise ValueError("need at least one potential term")
        unknown = {kind for kind, _, _ in terms} - {"sl", "dl"}
        if unknown:
            raise ValueError(f"unknown potential kinds {sorted(unknown)}")
        self.curve = curve
        self.terms = [(kind, *_term(k, density, f"term {i} ({kind}): "))
                      for i, (kind, k, density) in enumerate(terms)]
        sizes = {density.size for _, _, density in self.terms}
        if len(sizes) != 1:
            raise ValueError("all densities must share one grid")
        self.N = sizes.pop() // 2
        self._max_speed = curve.max_speed()

    @property
    def min_distance(self) -> float:
        return 5.0 * (np.pi / self.N) * self._max_speed

    def __call__(self, points):
        pts = _as_points(points)
        if not np.all(np.isfinite(pts)):
            raise ValueError("evaluation points must be finite")
        # the exact distance only where the coarse bound cannot clear the
        # guard; the nearest point, if it fails, is always among these
        unclear = pts[self.curve.distance_bound(pts) <= self.min_distance]
        dist = self.curve.distance(unclear)
        if np.any(dist <= self.min_distance):
            worst = float(dist.min())
            raise ValueError(
                f"evaluation point at distance {worst:.3e} from the curve; "
                f"the quadrature guard requires > {self.min_distance:.3e}"
            )
        out = np.zeros(pts.shape[0], dtype=complex)
        for kind, k, density in self.terms:
            if kind == "sl":
                out += single_layer_potential(self.curve, k, density, pts)
            else:
                out += double_layer_potential(self.curve, k, density, pts)
        return out

    def far_field(self, angles) -> FarFieldPattern:
        ks = {k for _, k, _ in self.terms}
        if len(ks) != 1:
            raise ValueError("far field undefined for mixed wavenumbers")
        k = ks.pop()
        sl, dl = (sum((d for kind, _, d in self.terms if kind == which),
                      np.zeros(2 * self.N, dtype=complex)) for which in ("sl", "dl"))
        return FarFieldPattern(angles, _far_field(self.curve, k, sl, dl, angles))

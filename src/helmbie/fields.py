"""Near-field evaluation through the layer potentials and far-field patterns.

Off the boundary both potentials have smooth periodic parameterized
integrands, so the plain trapezoid rule is spectrally accurate; evaluation
points closer to the curve than 5 h max|x'| (h = pi/N) are rejected.

The potentials walk the points in blocks and form p - x(t_j), its length,
the Hankel kernel and the block's rows of the kernel-density product one
block at a time.  They run on every usable core: each of up to that many
worker threads, started per call and only for two blocks or more, takes one
contiguous run of whole blocks and writes its own slice of the output.  A
block has rows = max(1, 2**16 // cores // 2N) points (64 at N = 256 on two
cores), so the entries in flight stay at 2**16, a few MiB whatever the
number of points or cores.  Each block's kernel-density sum is
``np.einsum("ij,j->i", ...)`` without ``optimize``, which calls no BLAS, so
it runs on the worker's own thread and wakes no BLAS thread pool (see
``linalg``).  Every entry is formed by the same operations in the same order
as over the whole batch, and einsum forms every output row as the same sum
whatever the block, so neither the blocks nor the worker count change an
output bit.

The distance guard is one k-d tree query bounded by the guard distance:
it measures every point at most that far from the curve exactly, so it
raises as the exact distance of every point would.

Far-field normalization: u(r x^) ~ e^{ikr}/sqrt(r) u_inf(x^) with

    u_inf = e^{i pi/4} / sqrt(8 pi k) *
            int [ e^{-ik x^.x(t)} phi(t)                       (SL term)
                  - ik (x^.n(t)) e^{-ik x^.x(t)} |x'(t)| g(t) ] dt   (DL term)

The phase constant is pinned by the radiation-limit test
sqrt(R) e^{-ikR} u(R x^) -> u_inf(x^).

The far field is one pass: with x^.m(t) = x^1 m1(t) + x^2 m2(t), every SL
and DL term of one wavenumber is the one product of e^{-ik x^.x(t)} with the
three nodal columns (sum of SL densities, m1 times the sum of DL densities,
m2 times it).  The exponential enters as the cosine and sine of the real
phase k x^.x(t_j), a (2, p, 2N) table that depends only on the curve, k, N
and the p directions, never on the densities.  The curve keeps the table of
its most recent (N, k, directions), read-only, so repeated far fields at the
same directions (many incidences, or several formulations) form it once and
then cost only the density columns and the one product; the table holds the
same values either way, so a kept table changes no output bit.
``FieldEvaluator.far_field``, ``single_layer_far_field`` and
``double_layer_far_field`` all call it.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg, specfun
from .geometry import (ParametricCurve, _as_points, _curve, _numbers, _phase_table,
                       _positive_real, grid_geometry)

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


# kernel entries in flight in the layer potentials, shared by the worker
# threads' blocks: the work arrays (three real, one complex per block) take
# about 3 MiB, whatever the number of points or cores
_BLOCK_ENTRIES = 2**16


def far_field_constant(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 pi k); every far field calls it, so it checks k."""
    return np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * _positive_real(k))


def _term(k, density, prefix: str = ""):
    """k as a float and density as a complex array; raises unless k is a
    finite positive real and the density is 1-D, of even non-zero length,
    with finite values.  Every potential and far field checks its terms here."""
    k = _positive_real(k, f"{prefix}wavenumber k")
    density = _numbers(density, f"{prefix}density", "a 1-D array of an even, non-zero "
                       "number of finite nodal values", lambda d: d.size > 0 and d.size % 2 == 0,
                       kinds="iufc", shape=(None,))
    return k, density.astype(complex, copy=False)


def _by_blocks(pts, xb, block_values):
    """The potential at every point: ``block_values(dx, dy, r)`` gives one
    block's values from the components and length of p - x(t_j), each of
    shape (block, 2N).

    A block has max(1, _BLOCK_ENTRIES // cores // 2N) points.  With two
    blocks or more, each of min(cores, blocks) worker threads takes one
    contiguous run of whole blocks and writes its own slice of the output.
    Each worker runs in a copy of the caller's context, so numpy's error
    state (``np.errstate``) is the caller's there too.
    """
    bx, by = np.ascontiguousarray(xb.T)
    out = np.empty(pts.shape[0], dtype=complex)
    cores = linalg._usable_cores()
    rows = max(1, _BLOCK_ENTRIES // cores // bx.size)
    blocks = -(-pts.shape[0] // rows)
    workers = min(cores, blocks)

    def run(first, stop):
        for start in range(first * rows, stop * rows, rows):
            block = pts[start:start + rows]
            dx = block[:, :1] - bx
            dy = block[:, 1:] - by
            r = dx * dx
            r += dy * dy
            out[start:start + rows] = block_values(dx, dy, np.sqrt(r, out=r))

    if workers < 2:
        run(0, blocks)
        return out
    cuts = [blocks * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(contextvars.copy_context().run, run, *span)
                     for span in zip(cuts, cuts[1:])]:
            done.result()
    return out


def single_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int Phi_k(p - x(t)) phi(t) dt off the curve."""
    k, density = _term(k, density)
    N = density.size // 2
    _, xb, _ = grid_geometry(curve, N)

    def block_values(dx, dy, r):
        kern = specfun.hankel1(0, k * r)
        kern *= 0.25j
        return (np.pi / N) * np.einsum("ij,j->i", kern, density)

    return _by_blocks(_as_points(points), xb, block_values)


def double_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int dPhi_k/dn(t) |x'(t)| g(t) dt off the curve."""
    k, density = _term(k, density)
    N = density.size // 2
    _, xb, m = grid_geometry(curve, N)
    m1, m2 = np.ascontiguousarray(m.T)

    def block_values(dx, dy, r):
        dx *= m1
        dy *= m2
        dx += dy                                # (p - x(t)) . m(t)
        kern = specfun.hankel1(1, k * r)
        kern *= 0.25j * k
        kern *= dx
        kern /= r
        return (np.pi / N) * np.einsum("ij,j->i", kern, density)

    return _by_blocks(_as_points(points), xb, block_values)


def _angles(angles):
    """angles as a 1-D float array; raises unless they are finite reals, one
    or a non-empty 1-D array of them."""
    angles = _numbers(angles, "far-field angles", "finite reals, a scalar or a non-empty "
                      "1-D array of them", lambda a: a.ndim <= 1 and a.size > 0, shape=None)
    return np.atleast_1d(angles.astype(float, copy=False))


def _far_field(curve, k, sl_density, dl_density, angles):
    """Far field of an SL density plus a DL density on one grid, in one pass.

    e^{-ik x^.x(t)}, as the phase table's cos and sin, meets phi, m1 g and
    m2 g in one product; the DL term is then
    -ik (x^1 sum e m1 g + x^2 sum e m2 g).
    """
    k, sl = _term(k, sl_density)
    _, dl = _term(k, dl_density)
    N = sl.size // 2
    _, _, m = grid_geometry(curve, N)
    angles = _angles(angles)
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    p = xhat.shape[0]
    cols = np.stack([sl, m[:, 0] * dl, m[:, 1] * dl], axis=1)
    trig = _phase_table(curve, N, k, xhat)
    # both real products at once: rows cos then sin, columns (re, im) of cols
    sums = linalg.matmul(trig.reshape(2 * p, -1), cols.view(float)).view(complex)
    e_sl, e_m1, e_m2 = (sums[:p] - 1j * sums[p:]).T
    vals = e_sl - 1j * k * (xhat[:, 0] * e_m1 + xhat[:, 1] * e_m2)
    return far_field_constant(k) * (np.pi / N) * vals


def single_layer_far_field(curve, k, density, angles):
    _, density = _term(k, density)
    return _far_field(curve, k, density, np.zeros(density.shape), angles)


def double_layer_far_field(curve, k, density, angles):
    _, density = _term(k, density)
    return _far_field(curve, k, np.zeros(density.shape), density, angles)


@dataclass(frozen=True)
class FarFieldPattern:
    """Angular amplitude sampled at unit directions given by angles."""

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        angles = _angles(self.angles)
        values = _numbers(self.values, "far-field values",
                          f"finite numbers of the angles' shape {angles.shape}",
                          lambda v: v.ndim <= 1 and v.size == angles.size, kinds="iufc",
                          shape=None)
        values = np.atleast_1d(values.astype(complex, copy=False))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "values", values)


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
        self.curve = _curve(curve)
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
        # points past the guard read inf
        dist = self.curve.distance(pts, self.min_distance)
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

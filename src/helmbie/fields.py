"""Near-field evaluation through the layer potentials and far-field patterns.

Off the boundary both potentials have smooth periodic parameterized
integrands, so the plain trapezoid rule is spectrally accurate; evaluation
points closer to the curve than 5 h max|x'| (h = pi/N) are rejected.

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
from .geometry import ParametricCurve, grid_geometry

__all__ = [
    "FarFieldPattern",
    "FieldEvaluator",
    "far_field_constant",
    "single_layer_potential",
    "double_layer_potential",
    "single_layer_far_field",
    "double_layer_far_field",
    "point_source_far_field",
    "far_field_linf_diff",
]


def _wavenumber(k, where: str = "") -> float:
    """k as a float; raises unless it is a finite positive real."""
    if np.imag(k) != 0.0 or not np.isfinite(k) or not np.real(k) > 0.0:
        raise ValueError(f"{where}wavenumber k must be a finite positive real, got {k}")
    return float(np.real(k))


def far_field_constant(k: float) -> complex:
    """e^{i pi/4} / sqrt(8 pi k); every far field calls it, so it checks k."""
    return np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * _wavenumber(k))


def _on_grid(curve: ParametricCurve, density):
    """Complex nodal density, its N, and x(t), m(t) on its 2N grid."""
    density = np.asarray(density, dtype=complex)
    if density.size % 2 != 0:
        raise ValueError("density must have an even number of nodal values")
    N = density.size // 2
    _, xb, m = grid_geometry(curve, N)
    return density, N, xb, m


def _offsets(points, xb):
    """Components and length of p - x(t_j), each of shape (points, 2N)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, :1] - xb[:, 0]
    dy = pts[:, 1:] - xb[:, 1]
    r = dx * dx
    r += dy * dy
    return dx, dy, np.sqrt(r, out=r)


def single_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int Phi_k(p - x(t)) phi(t) dt off the curve."""
    density, N, xb, _ = _on_grid(curve, density)
    _, _, r = _offsets(points, xb)
    kern = specfun.hankel1(0, k * r)
    kern *= 0.25j
    return (np.pi / N) * linalg.matmul(kern, density)


def double_layer_potential(curve, k, density, points):
    """Trapezoid evaluation of int dPhi_k/dn(t) |x'(t)| g(t) dt off the curve."""
    density, N, xb, m = _on_grid(curve, density)
    dx, dy, r = _offsets(points, xb)
    dx *= m[:, 0]
    dy *= m[:, 1]
    dx += dy                                    # (p - x(t)) . m(t)
    kern = specfun.hankel1(1, k * r)
    kern *= 0.25j * k
    kern *= dx
    kern /= r
    return (np.pi / N) * linalg.matmul(kern, density)


def _directions(angles):
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size < 1:
        raise ValueError("need at least one direction")
    if not np.all(np.isfinite(angles)):
        raise ValueError("far-field angles must be finite")
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
    k = _wavenumber(k)
    sl, N, xb, m = _on_grid(curve, sl_density)
    dl = np.asarray(dl_density, dtype=complex)
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


def point_source_far_field(k, location, angles):
    """Far field of Phi_k(. - y0): const * e^{-ik x^.y0}."""
    xhat = _directions(angles)
    y0 = np.asarray(location, dtype=float)
    return far_field_constant(k) * np.exp(-1j * k * (xhat @ y0))


@dataclass(frozen=True)
class FarFieldPattern:
    """Angular amplitude sampled at unit directions given by angles."""

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if angles.size < 1 or angles.size != values.size:
            raise ValueError("angles and values must match and be nonempty")
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
        sizes = {len(np.asarray(d)) for _, _, d in terms}
        if len(sizes) != 1:
            raise ValueError("all densities must share one grid")
        unknown = {kind for kind, _, _ in terms} - {"sl", "dl"}
        if unknown:
            raise ValueError(f"unknown potential kinds {sorted(unknown)}")
        self.curve = curve
        self.terms = []
        for i, (kind, k, density) in enumerate(terms):
            k = _wavenumber(k, f"term {i} ({kind}): ")
            density = np.asarray(density, dtype=complex)
            if not np.all(np.isfinite(density)):
                raise ValueError(f"term {i} ({kind}): density has non-finite values")
            self.terms.append((kind, k, density))
        self.N = sizes.pop() // 2
        self._max_speed = curve.max_speed()

    @property
    def min_distance(self) -> float:
        return 5.0 * (np.pi / self.N) * self._max_speed

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("evaluation points must be finite")
        dist = self.curve.distance(pts)
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

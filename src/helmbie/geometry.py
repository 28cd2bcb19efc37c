"""Smooth closed curves given by 2*pi-periodic trigonometric parameterizations.

Every built-in curve is a finite trigonometric sum, so the first two
derivatives are closed-form and the spectral accuracy of the quadratures
downstream is not polluted by geometry approximation.  Orientation is
counterclockwise; the outward unit normal (x2', -x1')/|x'| points into the
exterior domain.

Built-in shapes
---------------
circle(r)    : (r cos t, r sin t)
ellipse(a,b) : (a cos t, b sin t)
kite         : (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)
cavity       : dimpled limacon r(t) = 1.35 (1 - 0.7 cos t), i.e.
               1.35 (cos t - 0.35 cos 2t - 0.35, sin t - 0.35 sin 2t);
               the dimple near t = 0 has negative curvature (re-entrant).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "FINE_SAMPLES",
    "ParametricCurve",
    "grid",
    "grid_geometry",
    "circle",
    "ellipse",
    "kite",
    "cavity",
    "make_curve",
]

FINE_SAMPLES = 4096  # fine sample behind the speed check, max_speed and distance
_DISTANCE_BLOCK = 64  # points per block in ParametricCurve.distance


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve x(t) = c0 + sum_m [ C[:,m] cos(m t) + S[:,m] sin(m t) ].

    ``cos_coef`` has shape (2, M+1) with the constant term in column 0;
    ``sin_coef`` has shape (2, M) for m = 1..M.  Both must be finite, and the
    speed |x'| on the fine sample must stay above 1e-12 times its maximum.
    Immutable and safe to share.  Keeps the read-only ``grid_geometry`` of
    the most recent N.
    """

    name: str
    cos_coef: np.ndarray
    sin_coef: np.ndarray
    _grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.cos_coef, dtype=float))
        s = np.atleast_2d(np.asarray(self.sin_coef, dtype=float))
        if c.shape[0] != 2 or s.shape[0] != 2 or c.shape[1] != s.shape[1] + 1:
            raise ValueError("coefficient arrays must have shapes (2, M+1) and (2, M)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
            raise ValueError(f"curve {self.name!r} has non-finite coefficients")
        object.__setattr__(self, "cos_coef", c)
        object.__setattr__(self, "sin_coef", s)
        # relative bound: ellipse(2, 0) reads |x'| ~ 1e-16 where it folds flat
        speed = self._fine_sample[1]
        if not np.min(speed) > 1e-12 * np.max(speed):
            raise ValueError(f"curve {self.name!r} is degenerate: |x'(t)| vanishes")

    @property
    def degree(self) -> int:
        return self.sin_coef.shape[1]

    def _trig_sum(self, t, order):
        """Order-th derivative of the trigonometric sum, vectorized over t."""
        t = np.asarray(t, dtype=float)
        m = np.arange(1, self.degree + 1)
        mt = np.multiply.outer(t, m)                      # (..., M)
        # d^p/dt^p cos(mt) and sin(mt), cycled through the quadrature of phases
        phase = 0.5 * np.pi * order
        cos_part = np.cos(mt + phase) * m**order          # derivative of cos
        sin_part = np.sin(mt + phase) * m**order          # derivative of sin
        out = cos_part @ self.cos_coef[:, 1:].T + sin_part @ self.sin_coef.T
        if order == 0:
            out = out + self.cos_coef[:, 0]
        return out

    def point(self, t):
        """x(t), shape (..., 2)."""
        return self._trig_sum(t, 0)

    def d1(self, t):
        """x'(t), shape (..., 2)."""
        return self._trig_sum(t, 1)

    def d2(self, t):
        """x''(t), shape (..., 2)."""
        return self._trig_sum(t, 2)

    def speed(self, t):
        """|x'(t)|."""
        return np.linalg.norm(self.d1(t), axis=-1)

    def normal(self, t):
        """Outward unit normal (x2', -x1')/|x'|, shape (..., 2)."""
        d = self.d1(t)
        n = np.stack([d[..., 1], -d[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    @cached_property
    def _fine_sample(self):
        """Coordinate rows x1, x2 (shape (2, S)) and speeds on FINE_SAMPLES
        equispaced nodes, sampled once, when the curve is constructed."""
        t = np.linspace(0.0, 2.0 * np.pi, FINE_SAMPLES, endpoint=False)
        return np.ascontiguousarray(self.point(t).T), self.speed(t)

    def max_speed(self) -> float:
        return float(np.max(self._fine_sample[1]))

    def distance(self, points):
        """Distance from each point to the nearest of the FINE_SAMPLES nodes.

        Blocks of points bound the (points, S) work arrays.  The minimum is
        taken over squared distances and rooted once per point: sqrt is
        monotone and correctly rounded, so the result is bit for bit the
        minimum of the rooted distances.
        """
        bx, by = self._fine_sample[0]
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _DISTANCE_BLOCK):
            block = pts[start:start + _DISTANCE_BLOCK]
            dx = block[:, :1] - bx
            dy = block[:, 1:] - by
            dx *= dx
            dy *= dy
            dx += dy
            out[start:start + block.shape[0]] = dx.min(axis=1)
        return np.sqrt(out)


def _grid_size(N, least: int = 1) -> int:
    """N as an int; raises unless it is an integer (numpy's too) >= least."""
    if not (isinstance(N, numbers.Integral) and N >= least):
        raise ValueError(f"N must be an integer >= {least}, got {N!r}")
    return int(N)


def grid(N: int) -> np.ndarray:
    """2N equispaced nodes t_j = j pi / N on [0, 2 pi)."""
    N = _grid_size(N)
    return np.arange(2 * N) * (np.pi / N)


def grid_geometry(curve: ParametricCurve, N: int):
    """Nodes t, x(t) and the unnormalized outward normal m(t) = (x2', -x1')
    on the 2N grid; |m| = |x'|.  Read-only, and sampled once while N repeats."""
    N = _grid_size(N)
    found = curve._grid.get(N)
    if found is None:
        nodes = grid(N)
        x = curve.point(nodes)
        d1 = curve.d1(nodes)
        found = (nodes, x, np.stack([d1[:, 1], -d1[:, 0]], axis=-1))
        for a in found:
            a.flags.writeable = False
        curve._grid.clear()
        curve._grid[N] = found
    return found


def circle(radius: float = 1.0) -> ParametricCurve:
    r = float(radius)
    return ParametricCurve(
        "circle",
        cos_coef=np.array([[0.0, r], [0.0, 0.0]]),
        sin_coef=np.array([[0.0], [r]]),
    )


def ellipse(a: float = 2.0, b: float = 1.0) -> ParametricCurve:
    return ParametricCurve(
        "ellipse",
        cos_coef=np.array([[0.0, float(a)], [0.0, 0.0]]),
        sin_coef=np.array([[0.0], [float(b)]]),
    )


def kite() -> ParametricCurve:
    return ParametricCurve(
        "kite",
        cos_coef=np.array([[-0.65, 1.0, 0.65], [0.0, 0.0, 0.0]]),
        sin_coef=np.array([[0.0, 0.0], [1.5, 0.0]]),
    )


def cavity() -> ParametricCurve:
    # limacon r(t) = s (1 - 0.7 cos t) written out as a trigonometric sum;
    # s = 1.35 sizes the dimple so the interior wavelength at k = 32 is
    # resolved on the same N ladder as the kite
    s = 1.35
    b = 0.35 * s
    return ParametricCurve(
        "cavity",
        cos_coef=np.array([[-b, s, -b], [0.0, 0.0, 0.0]]),
        sin_coef=np.array([[0.0, 0.0], [s, -b]]),
    )


_BUILDERS = {
    "circle": circle,
    "ellipse": ellipse,
    "kite": kite,
    "cavity": cavity,
}


def make_curve(name: str, *params: float) -> ParametricCurve:
    """Build a curve by name; extra positional parameters go to the builder."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}; choices: {sorted(_BUILDERS)}")
    return builder(*params)

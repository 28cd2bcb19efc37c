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


def _as_points(points) -> np.ndarray:
    """points as a float array of shape (n, 2); one point of shape (2,) gives n = 1."""
    pts = np.asarray(points)
    if np.iscomplexobj(pts) or pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"evaluation points must be real values of shape (n, 2), "
                         f"got {pts.dtype} values of shape {pts.shape}")
    return np.atleast_2d(pts.astype(float, copy=False))


@dataclass(frozen=True, eq=False)
class ParametricCurve:
    """Closed curve x(t) = c0 + sum_m [ C[:,m] cos(m t) + S[:,m] sin(m t) ].

    ``cos_coef`` has shape (2, M+1) with the constant term in column 0;
    ``sin_coef`` has shape (2, M) for m = 1..M.  Both must be finite, the
    speed |x'| on the fine sample must stay above 1e-12 times its maximum,
    and the polygon of the fine sample must turn once counterclockwise.
    Immutable, with read-only copies of its coefficients, and safe to share;
    compared and hashed by name and coefficient bytes.  Keeps two read-only
    tables, each for its most recent key: the ``grid_geometry`` of one N, and
    the far-field phase table of one (N, k, directions), the cos and sin of
    k x^.x(t_j) that the far fields of ``helmbie.fields`` read.  From its
    first distance query on, it also keeps a k-d tree of FINE_SAMPLES nodes.
    """

    name: str
    cos_coef: np.ndarray
    sin_coef: np.ndarray
    _grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _far: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies, frozen below, so that the caller's arrays stay writable
        c = np.atleast_2d(np.array(self.cos_coef, dtype=float))
        s = np.atleast_2d(np.array(self.sin_coef, dtype=float))
        if c.shape[0] != 2 or s.shape[0] != 2 or c.shape[1] != s.shape[1] + 1:
            raise ValueError("coefficient arrays must have shapes (2, M+1) and (2, M)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
            raise ValueError(f"curve {self.name!r} has non-finite coefficients")
        for attr, coef in (("cos_coef", c), ("sin_coef", s)):
            coef.flags.writeable = False
            object.__setattr__(self, attr, coef)
        # relative bound: ellipse(2, 0) reads |x'| ~ 1e-16 where it folds flat
        speed = self._fine_sample[1]
        if not np.min(speed) > 1e-12 * np.max(speed):
            raise ValueError(f"curve {self.name!r} is degenerate: |x'(t)| vanishes")
        # the turning number: how often the edges of the polygon wind around 0
        x = self._fine_sample[0]
        turning = _winding(*np.diff(x, axis=1, append=x[:, :1]))
        if turning == -1:
            raise ValueError(f"curve {self.name!r} is clockwise; negate sin_coef "
                             f"to run it counterclockwise")
        if turning != 1:
            raise ValueError(f"curve {self.name!r} crosses itself: its tangent "
                             f"turns {turning} times, not once")

    def _identity(self):
        return self.name, self.cos_coef.tobytes(), self.sin_coef.tobytes()

    def __eq__(self, other):
        if isinstance(other, ParametricCurve):
            return self._identity() == other._identity()
        return NotImplemented

    def __hash__(self):
        return hash(self._identity())

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

    def winding_number(self, point) -> int:
        """How often the polygon of the FINE_SAMPLES nodes winds around a
        point off the curve: 1 inside a counterclockwise curve, 0 outside."""
        x1, x2 = self._fine_sample[0]
        return _winding(x1 - point[0], x2 - point[1])

    @cached_property
    def _tree(self):
        """k-d tree of the FINE_SAMPLES nodes.  scipy.spatial is imported here,
        so only distance queries pay for it (about 56 ms and 4 MB)."""
        import scipy.spatial
        return scipy.spatial.cKDTree(self._fine_sample[0].T)

    def distance(self, points, within=np.inf):
        """Distance from each point, shape (n, 2) or (2,), to the nearest of
        the FINE_SAMPLES nodes, or inf past ``within``.  The tree roots the
        smallest dx*dx + dy*dy once per point; sqrt is monotone and correctly
        rounded, so this is bit for bit the minimum of the rooted distances.
        It bounds squared distances, so ``within`` is widened by 1e-12
        relative: no point at most ``within`` away reads inf."""
        if not within >= 0.0:
            raise ValueError(f"within must be a distance >= 0, got {within!r}")
        pts = _as_points(points)
        if not np.all(np.isfinite(pts)):
            raise ValueError("evaluation points must be finite")
        return self._tree.query(pts, distance_upper_bound=within * (1.0 + 1e-12))[0]


def _winding(dx, dy) -> int:
    """How often the closed polygon through the points (dx, dy) winds
    around the origin, which it must not pass through."""
    angle = np.arctan2(dy, dx)
    # each step's turn, wrapped into [-pi, pi)
    turn = (np.diff(angle, append=angle[:1]) + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(turn.sum() / (2.0 * np.pi)))


def _curve(curve) -> ParametricCurve:
    """curve itself; raises unless it is a ParametricCurve."""
    if not isinstance(curve, ParametricCurve):
        raise ValueError(f"curve must be a ParametricCurve, got {curve!r}")
    return curve


def _grid_size(N, least: int = 1) -> int:
    """N as an int; raises unless it is an integer (numpy's too) >= least."""
    if not (isinstance(N, numbers.Integral) and N >= least):
        raise ValueError(f"N must be an integer >= {least}, got {N!r}")
    return int(N)


def grid(N: int) -> np.ndarray:
    """2N equispaced nodes t_j = j pi / N on [0, 2 pi)."""
    N = _grid_size(N)
    return np.arange(2 * N) * (np.pi / N)


def _kept(memo, key, build):
    """memo[key], built once while key repeats.  A curve's memo keeps only
    its most recent key, and what it keeps is read-only."""
    found = memo.get(key)
    if found is None:
        found = build()
        for a in found if isinstance(found, tuple) else (found,):
            a.flags.writeable = False
        memo.clear()
        memo[key] = found
    return found


def grid_geometry(curve: ParametricCurve, N: int):
    """Nodes t, x(t) and the unnormalized outward normal m(t) = (x2', -x1')
    on the 2N grid; |m| = |x'|.  Read-only, and sampled once while N repeats."""
    curve, N = _curve(curve), _grid_size(N)

    def sample():
        nodes = grid(N)
        x = curve.point(nodes)
        d1 = curve.d1(nodes)
        return nodes, x, np.stack([d1[:, 1], -d1[:, 0]], axis=-1)

    return _kept(curve._grid, N, sample)


def _phase_table(curve: ParametricCurve, N: int, k: float, xhat: np.ndarray):
    """cos and sin of k x^.x(t_j) for the unit directions xhat (p, 2) on the
    2N grid, shape (2, p, 2N).  Read-only, and formed once while (N, k,
    directions) repeat."""

    def tabulate():
        _, xb, _ = grid_geometry(curve, N)
        table = np.empty((2, xhat.shape[0], 2 * N))
        arg = np.multiply.outer(k * xhat[:, 0], xb[:, 0])  # k x^.x(t_j)
        arg += np.multiply.outer(k * xhat[:, 1], xb[:, 1])
        np.cos(arg, out=table[0])
        np.sin(arg, out=table[1])
        return table

    return _kept(curve._far, (N, k, xhat.tobytes()), tabulate)


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

"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload is closed-loop: one caller, and each operation starts after
the previous one has finished.  Operations are grouped into units (a
solve-kite pass, a multi-incidence sweep, a nearfield batch); a unit's
inputs are drawn from ``default_rng([seed, unit index])``, so a seed fixes
the inputs whatever the run length, and the oracle checks a whole unit.

The operations call helmbie through the names the library exports
(``helmbie.assemble``, ``helmbie.solve``, ``helmbie.FieldEvaluator``) at
call time, so the traced run sees every call; the library receives only the
generated arrays and the objects built from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

import helmbie as hb

# Oracle bounds.  CROSSFORM is the cross-formulation far-field bound of
# ``helmbie verify crossform`` (absolute); the other two are relative to the
# largest magnitude of the checked quantity.
TOL_CROSSFORM = 1e-8
TOL_RECIPROCITY = 1e-10
TOL_GREEN = 1e-10


@dataclass
class Op:
    """One operation: ``run()`` returns the output its oracle checks."""

    kind: str
    run: Callable[[], np.ndarray]
    work: float = 1.0
    inputs: object = None


def _pipeline(curve, form, problem, N, angles):
    """assemble -> LU solve -> far field, as a user runs one formulation."""
    system = hb.assemble(form, problem, N)
    result = hb.solve(system)
    return hb.FieldEvaluator(curve, result.exterior_terms()).far_field(angles).values


def majority_failures(errors, tol):
    """Per-output failure flags from a symmetric matrix of pairwise errors.

    ``errors[i][j]`` compares outputs i and j (NaN where either is missing).
    An output fails when it is missing or not finite, when no other output
    is there to check it against, or when it misses ``tol`` against more
    than half of the others, so one wrong output is blamed on itself alone.
    """
    errors = np.asarray(errors, dtype=float)
    present = np.diag(errors) == 0.0
    failed = []
    for i in range(errors.shape[0]):
        others = present.copy()
        others[i] = False
        n_others = int(others.sum())
        misses = int(np.sum(~(errors[i, others] <= tol)))
        failed.append(not present[i] or n_others == 0 or misses > n_others / 2)
    return failed


def _pairwise(outputs, gap):
    n = len(outputs)
    errors = np.full((n, n), np.nan)
    for i, a in enumerate(outputs):
        for j, b in enumerate(outputs):
            if a is not None and b is not None:
                errors[i, j] = gap(i, j)
    return errors


class SolveKite:
    """Every formulation on the kite at N = 256, checked against each other."""

    name = "solve-kite"
    kind_metric = "solve_s.{kind}"
    aliases = {"solves_per_s": "work_per_s"}
    FORMULATIONS = ("l1", "l2", "l2plain", "l3", "l4")

    def __init__(self, seed, N=256, k_plus=8.0, k_minus=32.0, n_angles=360):
        self.seed = seed
        self.N = N
        self.k_plus = k_plus
        self.k_minus = k_minus
        self.curve = hb.kite()
        self.angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)

    def unit(self, index):
        rng = np.random.default_rng([self.seed, index])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        wave = hb.PlaneWave((float(np.cos(theta)), float(np.sin(theta))))
        problem = hb.TransmissionProblem(self.curve, self.k_plus, self.k_minus, 1.0, wave)
        return [
            Op(form, functools.partial(_pipeline, self.curve, form, problem,
                                       self.N, self.angles))
            for form in self.FORMULATIONS
        ]

    def check(self, ops, outputs):
        """Pairwise far-field gaps; returns (failed flags, relative error)."""
        errors = _pairwise(outputs, lambda i, j: np.max(np.abs(outputs[i] - outputs[j])))
        failed = majority_failures(errors, TOL_CROSSFORM)
        scale = max((np.max(np.abs(o)) for o in outputs if o is not None), default=0.0)
        return failed, _relative(np.nanmax(errors, initial=0.0), scale)


class MultiIncidence:
    """A sweep of 16 incidences on one curve, checked by reciprocity."""

    name = "multi-incidence"
    kind_metric = None
    aliases = {
        "incidence_s.p50": "op_s.p50",
        "incidence_s.max": "op_s.max",
        "solves_per_s": "work_per_s",
    }

    def __init__(self, seed, N=128, k_plus=8.0, k_minus=16.0, incidences=16):
        self.seed = seed
        self.N = N
        self.k_plus = k_plus
        self.k_minus = k_minus
        self.incidences = incidences
        self.curve = hb.kite()

    def unit(self, index):
        rng = np.random.default_rng([self.seed, index])
        theta = rng.uniform(0.0, 2.0 * np.pi, self.incidences)
        observe = theta + np.pi  # far field at x^ = -d_j
        ops = []
        for t in theta:
            wave = hb.PlaneWave((float(np.cos(t)), float(np.sin(t))))
            problem = hb.TransmissionProblem(self.curve, self.k_plus, self.k_minus, 1.0, wave)
            ops.append(Op("l1", functools.partial(_pipeline, self.curve, "l1", problem,
                                                  self.N, observe)))
        return ops

    def check(self, ops, outputs):
        """Reciprocity u_inf(-d_j; d_i) = u_inf(-d_i; d_j) of the sweep."""
        n = len(outputs)
        F = np.full((n, n), np.nan, dtype=complex)  # F[j, i] = u_inf(-d_j; d_i)
        for i, column in enumerate(outputs):
            if column is not None:
                F[:, i] = column
        scale = np.nanmax(np.abs(F), initial=0.0)
        errors = _pairwise(outputs, lambda i, j: _relative(abs(F[j, i] - F[i, j]), scale))
        failed = majority_failures(errors, TOL_RECIPROCITY)
        return failed, float(np.nanmax(errors, initial=0.0))


class Nearfield:
    """Green representation of an interior source at 2000 points per batch."""

    name = "nearfield"
    kind_metric = "batch_s.{kind}"
    aliases = {"points_per_s": "work_per_s", "batch_s.p50": "op_s.p50"}
    SOURCE = (0.1, 0.2)
    KS = (8.0, 32.0)
    ANNULUS = (2.5, 4.0)  # clear of the 5 h max|x'| guard at N = 256
    DISC = 0.35

    def __init__(self, seed, N=256, points=1000):
        self.seed = seed
        self.points = points
        self.curve = hb.kite()
        self.evaluators = {
            k: hb.FieldEvaluator(self.curve, kite_source_terms(k, N, self.SOURCE))
            for k in self.KS
        }

    def unit(self, index):
        rng = np.random.default_rng([self.seed, index])
        k = self.KS[index % len(self.KS)]
        outside = _annulus_points(rng, self.points, *self.ANNULUS)
        inside = _annulus_points(rng, self.points, 0.0, self.DISC)
        pts = np.concatenate([outside, inside])
        evaluator = self.evaluators[k]
        return [Op(f"k{k:g}", functools.partial(evaluator, pts), work=len(pts),
                   inputs=(k, pts))]

    def check(self, ops, outputs):
        """Error against Phi_k outside the curve and against 0 inside."""
        failed, worst = [], 0.0
        for op, u in zip(ops, outputs):
            if u is None:
                failed.append(True)
                continue
            k, pts = op.inputs
            n_out = self.points
            exact = green(k, pts[:n_out], self.SOURCE)
            err = max(np.max(np.abs(u[:n_out] - exact)), np.max(np.abs(u[n_out:])))
            rel = _relative(err, np.max(np.abs(exact)))
            failed.append(not rel <= TOL_GREEN)
            worst = max(worst, rel)
        return failed, worst


def _relative(err, scale):
    return float(err / scale) if scale > 0 else float("inf")


def _annulus_points(rng, n, r_min, r_max):
    """n points uniform in area in r_min <= |x| <= r_max."""
    r = np.sqrt(rng.uniform(r_min * r_min, r_max * r_max, n))
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def green(k, points, source):
    """Phi_k(x - y) = (i/4) H0(k |x - y|), straight from scipy."""
    r = np.linalg.norm(np.asarray(points) - np.asarray(source), axis=-1)
    return 0.25j * special.hankel1(0, k * r)


def kite_source_terms(k, N, source):
    """Exact Cauchy data of Phi_k(. - source) on the kite's 2N nodes, as the
    exterior Green representation terms -SL phi + DL a, which reproduce the
    source outside the curve and vanish inside it.  The kite is written out
    here rather than taken from helmbie so the oracle stays independent."""
    t = np.arange(2 * N) * (np.pi / N)
    x = np.stack([np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1)
    dx = np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1)
    m = np.stack([dx[:, 1], -dx[:, 0]], axis=-1)  # |x'| times the outward normal
    diff = x - np.asarray(source)
    r = np.linalg.norm(diff, axis=-1)
    a = 0.25j * special.hankel1(0, k * r)
    phi = np.sum((-0.25j * k * special.hankel1(1, k * r) / r)[:, None] * diff * m, axis=-1)
    return [("sl", k, -phi), ("dl", k, a)]


WORKLOADS = {w.name: w for w in (SolveKite, MultiIncidence, Nearfield)}

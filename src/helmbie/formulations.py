"""The four boundary-integral formulations of the Helmholtz transmission
problem and their Nystrom discretizations.

Unknowns and data live as nodal vectors on the 2N grid; interpolation onto
T_N is implicit in the nodal algebra, so the projected blocks are plain
matrix products.  Data vectors are

    h   = -(trace of u_inc) o x
    eta = -(normal derivative of u_inc) o x * |x'|

Sign convention.  With the jump relations used here (trace DL = +-I/2 + K,
conormal SL = -+I/2 + Kt, exterior Green formula u+ = -SL phi+ + DL a+), the
solve of the direct systems with right-hand sides (h, nu eta), (h, eta),
R_kappa (h, eta) returns the NEGATIVE of the total-wave Cauchy data:

    a = -(u_t o x),   phi = -|x'| (d_n u_t) o x,  u_t = u+ + u_inc.

The reconstruction below therefore uses trace(u+) o x = h - a and
|x'| d_n(u+) o x = eta - phi (and -a, -phi/nu on the interior side); the
indirect equation's density likewise generates the physical fields after a
sign flip.  Both facts are pinned by the matched-media null-scattering test
and an energy-flux balance test, and make all four formulations mutually
consistent.

Many incidences.  A formulation's matrix depends on the curve, k+, k-, nu, N
and kappa (l3) or rho (l4), never on the incident field, which enters only
through (h, eta).  ``assemble`` therefore keeps the last system it built in
one process-wide slot, keyed on the formulation, the curve's name and
coefficients, k+, k-, nu, N and the resolved kappa/rho.  On a hit it builds
only the data and the right-hand side (``FormulationSystem.rhs_for``) and
returns a system that shares the read-only matrix, ``aux``, the two full
blocks of the regularizer R_kappa and the LU factors, so a sweep over
incidences assembles and factors once.  A miss empties the slot before it
builds, so two systems are never held together and peak memory stays that
of one system.  The slot holds its system until the next miss or
``empty_slot()``, after every caller has dropped it: on the kite at N = 256
that is 32 MiB for l1 and l2 (matrix and LU), 40 MiB for l3 (with the two
blocks of R_kappa) and 16 MiB for l4 (with ``aux``), four times as much at
N = 512.

Many formulations.  The five formulations are block combinations of the same
Nystrom operators for k+ and k-, so next to the system the slot keeps the
``OperatorFamily`` objects of the last problem assembled, for one N: one
family per distinct wavenumber, at most two.  l3 also needs V and H for the
complex kappa; it builds that family itself and drops it once the two full
blocks of R_kappa are formed, since no other build reads it.  The kept
families are shared only with later builds for the same
``TransmissionProblem`` object at the same N (a system miss for another
formulation of it, or a direct ``assemble_l*`` call); a new problem object or
a new N replaces them, even when its system is a hit and builds nothing, and
a failed ``assemble`` drops them.  A problem object is a unit of reuse: an
equal problem built anew assembles its own families.  With every operator
built once, the two families of the kite at N = 256 hold about 81 MiB
(measured with tracemalloc, kernel factor sets included; Lambda and D Lambda
D of the k+ family, which the first-kind blocks and R_kappa read, are part
of it), four times as much at N = 512, until the next problem or
``empty_slot()``.  A lock guards only the slot's reads and writes; two
threads may race to build the same system or operator, which costs time but
never returns a wrong matrix.

Block algebra.  Every formulation writes its blocks into one preallocated
matrix.  l3 forms R_kappa L2 by block rows, as 2 V_kappa times the lower
block row of L2 and -2 nu H_kappa times the upper one, and l4 groups its
compositions into two products; both reassociate the floating-point sums of
the full-matrix forms kept in the test oracles.  l1, l2 and l2plain keep the
order of every sum, so their matrices are those of the full-matrix forms bit
for bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg, specfun
# Lambda and D Lambda D come from the k+ family; the two imports stay because
# perfbench/spans.py wraps lambda_matrix and dld_matrix in this module too
from .fourier import dld_matrix, lambda_matrix
from .geometry import FINE_SAMPLES, ParametricCurve, grid_geometry
from .operators import OperatorFamily

__all__ = [
    "FORMULATIONS",
    "PlaneWave",
    "PointSource",
    "TransmissionProblem",
    "TransmissionData",
    "build_data",
    "FormulationSystem",
    "SolveResult",
    "assemble_l1",
    "assemble_l2",
    "assemble_l3",
    "assemble_l4",
    "assemble",
    "empty_slot",
    "solve",
]

FORMULATIONS = ("l1", "l2", "l2plain", "l3", "l4")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave e^{i k d.x} with |d| = 1."""

    direction: tuple = (1.0, 0.0)

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(direction)
        if direction.shape != (2,) or not (np.isfinite(norm) and norm > 0):
            raise ValueError(f"plane-wave direction must be two finite coordinates, "
                             f"not both zero, got {self.direction}")

    def value(self, k, points):
        d = np.asarray(self.direction, dtype=float)
        d = d / np.linalg.norm(d)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(1j * k * (pts @ d))

    def gradient(self, k, points):
        d = np.asarray(self.direction, dtype=float)
        d = d / np.linalg.norm(d)
        return 1j * k * d * self.value(k, points)[:, None]


@dataclass(frozen=True)
class PointSource:
    """Incident field Phi_k(. - location)."""

    location: tuple = (0.0, 0.0)

    def __post_init__(self):
        location = np.asarray(self.location, dtype=float)
        if location.shape != (2,) or not np.all(np.isfinite(location)):
            raise ValueError(f"point-source location must be two finite "
                             f"coordinates, got {self.location}")

    def _displacement(self, points):
        y0 = np.asarray(self.location, dtype=float)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - y0
        return diff, np.linalg.norm(diff, axis=-1)

    def value(self, k, points):
        _, r = self._displacement(points)
        return 0.25j * specfun.hankel1(0, k * r)

    def gradient(self, k, points):
        diff, r = self._displacement(points)
        radial = -0.25j * k * specfun.hankel1(1, k * r) / r
        return radial[:, None] * diff


@dataclass(frozen=True)
class TransmissionProblem:
    """Curve, exterior/interior wavenumbers, impedance ratio, incident field."""

    curve: ParametricCurve
    k_plus: float
    k_minus: float
    nu: float
    incident: object

    def __post_init__(self):
        for name in ("k_plus", "k_minus", "nu"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if isinstance(self.incident, PointSource):
            curve = self.curve
            dist = curve.distance([self.incident.location])[0]
            # below the boundary-sampling resolution the source is
            # indistinguishable from a point on the curve
            if dist <= 2.0 * np.pi * curve.max_speed() / FINE_SAMPLES:
                raise ValueError("point source sits on the boundary")


@dataclass(frozen=True)
class TransmissionData:
    """Transmission data (h, eta) as nodal vectors on the 2N grid."""

    h: np.ndarray
    eta: np.ndarray
    N: int


def build_data(problem: TransmissionProblem, N: int) -> TransmissionData:
    """Sample h = -(u_inc o x), eta = -(d_n u_inc o x)|x'| on the 2N grid."""
    inc, k = problem.incident, problem.k_plus
    _, xb, m = grid_geometry(problem.curve, N)  # |x'| already inside m
    h = -inc.value(k, xb)
    eta = -np.sum(inc.gradient(k, xb) * m, axis=-1)
    return TransmissionData(h, eta, N)


@dataclass
class FormulationSystem:
    """Assembled dense system for one formulation at one resolution.

    Only ``problem``, ``data`` and ``rhs`` depend on the incident field; the
    rest is shared by every system ``assemble`` returns from its slot.
    """

    formulation: str
    matrix: np.ndarray
    rhs: np.ndarray
    N: int
    problem: TransmissionProblem
    data: TransmissionData
    kind: str = "direct"  # reconstruction: "direct" | "indirect"
    kappa: Optional[complex] = None
    rho: Optional[float] = None
    # needed by the indirect reconstruction
    aux: dict = field(default_factory=dict)
    # l3: the off-diagonal blocks (r12, r21) of R_kappa as one (2, 2N, 2N)
    # array; its diagonal blocks are I/(nu + 1) and nu I/(nu + 1)
    regularizer: Optional[np.ndarray] = None
    # wall time of the ``assemble`` call that returned this system (on a slot
    # hit, of its data and right-hand side); None from an ``assemble_l*`` call
    seconds: Optional[float] = None
    # [(matrix, LUFactors)] once factored; the list is shared with the slot
    _lu: list = field(default_factory=list, repr=False)

    def rhs_for(self, data: TransmissionData) -> np.ndarray:
        """Right-hand side of this formulation for the data (h, eta)."""
        h, eta = data.h, data.eta
        if self.formulation == "l1":
            return np.concatenate([h, self.problem.nu * eta])
        if self.formulation == "l3":
            nu = self.problem.nu
            r12, r21 = self.regularizer
            return np.concatenate([h / (nu + 1.0) + linalg.matmul(r12, eta),
                                   linalg.matmul(r21, h) + (nu / (nu + 1.0)) * eta])
        if self.formulation == "l4":
            return eta - 1j * self.rho * h
        return np.concatenate([h, eta])

    def _lu_factors(self):
        """(LU factors of ``matrix``, whether they were reused): computed on
        first use and shared with every system that shares the matrix."""
        if self._lu and self._lu[0][0] is self.matrix:
            return self._lu[0][1], True
        factors = linalg.lu_factor(self.matrix)
        self._lu[:] = [(self.matrix, factors)]
        return factors, False


@dataclass
class SolverDiagnostics:
    method: str
    iterations: int
    residual: float
    seconds: float
    history: Optional[np.ndarray] = None
    rcond: Optional[float] = None  # LAPACK 1-norm estimate; None for GMRES
    # seconds per stage: LU "factor" (0 when the factors were reused), "solve"
    # (the triangular solves) and "residual"; GMRES has the one stage "gmres".
    # Systems from ``assemble`` add "assemble" (``FormulationSystem.seconds``),
    # which ``seconds`` leaves out
    stages: dict = field(default_factory=dict)


@dataclass
class SolveResult:
    """Solution densities plus everything needed to rebuild the fields."""

    kind: str             # "direct" | "indirect"
    formulation: str
    N: int
    problem: TransmissionProblem
    data: TransmissionData
    diagnostics: SolverDiagnostics
    a: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    aux: dict = field(default_factory=dict)

    def exterior_terms(self):
        """Potential terms for u+ : list of (kind, k, density)."""
        k, nu = self.problem.k_plus, self.problem.nu
        if self.kind == "direct":
            h, eta = self.data.h, self.data.eta
            trace_p = h - self.a
            conorm_p = eta - self.phi
            return [("sl", k, -conorm_p), ("dl", k, trace_p)]
        m = -self.mu
        sl_dens = nu * (m + 2.0 * linalg.matmul(self.aux["kt_minus"], m))
        dl_dens = -2.0 * linalg.matmul(self.aux["v_minus"], m)
        return [("sl", k, sl_dens), ("dl", k, dl_dens)]

    def interior_terms(self):
        """Potential terms for u- : list of (kind, k, density)."""
        k, nu = self.problem.k_minus, self.problem.nu
        if self.kind == "direct":
            return [("sl", k, -self.phi / nu), ("dl", k, self.a)]
        return [("sl", k, 2.0 * self.mu)]


def _op_families(problem, N):
    """The k+ and k- operator families of the problem at N, shared through
    the slot with every build for the same problem object at the same N (see
    the module docstring)."""
    global _families
    with _slot_lock:
        if _families is None or _families[0] is not problem or _families[1] != N:
            _families = (problem, N, {})
        kept = _families[2]
        for k in (problem.k_plus, problem.k_minus):
            if k not in kept:
                kept[k] = OperatorFamily(problem.curve, k, N)
        return kept[problem.k_plus], kept[problem.k_minus]


def _blocks(matrix):
    """((a11, a12), (a21, a22)): the four square block views of a matrix."""
    n = matrix.shape[0] // 2
    top, bottom = matrix[:n], matrix[n:]
    return (top[:, :n], top[:, n:]), (bottom[:, :n], bottom[:, n:])


def _system(formulation, matrix, problem, N, **parts) -> FormulationSystem:
    """Check a built matrix block by block, freeze it and add the data."""
    n2 = 2 * N
    blocks = matrix.shape[0] // n2
    for i in range(blocks):
        for j in range(blocks):
            block = matrix[i * n2:(i + 1) * n2, j * n2:(j + 1) * n2]
            if not np.all(np.isfinite(block)):
                raise ValueError(
                    f"{formulation}: non-finite entries in block a{i + 1}{j + 1}"
                )
    # shared by every system the slot hands out
    for array in (matrix, *parts.get("aux", {}).values()):
        array.flags.writeable = False
    data = build_data(problem, N)
    system = FormulationSystem(formulation, matrix, None, N, problem, data, **parts)
    system.rhs = system.rhs_for(data)
    return system


def assemble_l1(problem: TransmissionProblem, N: int) -> FormulationSystem:
    """Second-kind direct system from the plain operator family.

    Blocks: (1+nu)/2 I + [nu K- - K+,  V+ - V- ; nu (T- - T+),  nu Kt+ - Kt-]
    with right-hand side (h, nu eta); the D Lambda D parts of the two
    hypersingular operators cancel in the difference.
    """
    fp, fm = _op_families(problem, N)
    nu = problem.nu
    eye = np.eye(2 * N)
    half = 0.5 * (1.0 + nu)
    matrix = np.empty((4 * N, 4 * N), dtype=complex)
    (a11, a12), (a21, a22) = _blocks(matrix)
    # summed left to right as written above, which fixes each entry's
    # rounding: with matched media, adding the identity last gives exactly I
    np.add(half * eye, nu * fm.k_plain, out=a11)
    a11 -= fp.k_plain
    np.subtract(fp.v_plain, fm.v_plain, out=a12)
    np.multiply(nu, fm.t_op - fp.t_op, out=a21)
    np.add(half * eye, nu * fp.kt_plain, out=a22)
    a22 -= fm.kt_plain
    return _system("l1", matrix, problem, N)


def _l2_matrix(problem, N, family, fp, fm):
    nu = problem.nu
    lam, dld = fp.lambda_mat, fp.dld_mat
    matrix = np.empty((4 * N, 4 * N), dtype=complex)
    (a11, a12), (a21, a22) = _blocks(matrix)
    if family == "tilde":
        # leading part plus kernel blocks; the 0.0 of the leading part's zero
        # blocks is added too, so that each entry keeps the sign of its zeros
        lead = 1.0 + 1.0 / nu
        np.add(0.0, -(fm.k_tilde + fp.k_tilde), out=a11)
        np.add(lead * lam, fp.r_tilde / nu + fm.r_tilde, out=a12)
        np.add(lead * (-nu * dld), -(fm.t_op + nu * fp.t_op), out=a21)
        np.add(0.0, fp.kt_tilde + fm.kt_tilde, out=a22)
        return matrix
    # unanalyzed plain-V variant, kept for the accuracy comparison
    np.negative(fm.k_plain + fp.k_plain, out=a11)
    np.add(fp.v_plain / nu, fm.v_plain, out=a12)
    np.subtract(-(1.0 + nu) * dld, fm.t_op + nu * fp.t_op, out=a21)
    np.add(fp.kt_plain, fm.kt_plain, out=a22)
    return matrix


def assemble_l2(
    problem: TransmissionProblem, N: int, family: str = "tilde"
) -> FormulationSystem:
    """First-kind direct system; 'tilde' is the accurate discretization
    ('l2'), 'plain' the unanalyzed single-layer variant ('l2plain') run only
    for comparison.  Right-hand side (h, eta)."""
    if family not in ("tilde", "plain"):
        raise ValueError("family must be 'tilde' or 'plain'")
    fp, fm = _op_families(problem, N)
    matrix = _l2_matrix(problem, N, family, fp, fm)
    return _system("l2" if family == "tilde" else "l2plain", matrix, problem, N)


def _regularizer(problem, N, fk, lam, dld):
    """The off-diagonal blocks (r12, r21) of
    R_kappa = [I, 2 V_kappa; -2 nu H_kappa, nu I] / (nu + 1)."""
    nu = problem.nu
    reg = np.empty((2, 2 * N, 2 * N), dtype=complex)
    np.divide(2.0 * (lam + fk.r_tilde), nu + 1.0, out=reg[0])
    np.divide(-2.0 * nu * (dld + fk.t_op), nu + 1.0, out=reg[1])
    return reg


def _kappa(problem, kappa=None) -> complex:
    if kappa is None:
        kappa = problem.k_plus + 0.5j
    kappa = complex(kappa)
    if not (np.isfinite(kappa) and kappa.imag > 0):
        raise ValueError("kappa must be finite with a positive imaginary part")
    return kappa


def _rho(problem, rho=None) -> float:
    if rho is None:
        rho = problem.k_plus
    rho = float(rho)
    if not (np.isfinite(rho) and rho != 0.0):
        raise ValueError("rho must be a finite nonzero real number")
    return rho


def assemble_l3(
    problem: TransmissionProblem, N: int, kappa: Optional[complex] = None
) -> FormulationSystem:
    """Regularized combined-field system R_kappa-preconditioned on top of the
    tilde-family blocks; kappa must have positive imaginary part.  Right-hand
    side R_kappa (h, eta).  The complex kappa family is built here and
    dropped on return: only the two full blocks of R_kappa are kept."""
    kappa = _kappa(problem, kappa)
    fp, fm = _op_families(problem, N)
    nu = problem.nu
    n2 = 2 * N
    lam, dld = fp.lambda_mat, fp.dld_mat
    reg = _regularizer(problem, N, OperatorFamily(problem.curve, kappa, N), lam, dld)
    reg.flags.writeable = False
    l2t = _l2_matrix(problem, N, "tilde", fp, fm)
    # R_kappa L2 by block rows: the diagonal blocks of R_kappa are multiples
    # of I, so each of its two full blocks meets one block row of L2
    r12, r21 = reg
    matrix = np.empty_like(l2t)
    linalg.matmul(r12, l2t[n2:], out=matrix[:n2])
    linalg.matmul(r21, l2t[:n2], out=matrix[n2:])
    l2t[:n2] *= 1.0 / (nu + 1.0)
    l2t[n2:] *= nu / (nu + 1.0)
    matrix += l2t
    # plus the leading blocks and those of k-
    eye = np.eye(n2)
    (a11, a12), (a21, a22) = _blocks(matrix)
    a11 += 0.5 * eye + fm.k_tilde
    a12 -= (lam + fm.r_tilde) / nu
    a21 += nu * (dld + fm.t_op)
    a22 += 0.5 * eye - fm.kt_tilde
    return _system("l3", matrix, problem, N, kappa=kappa, regularizer=reg)


def assemble_l4(
    problem: TransmissionProblem, N: int, rho: Optional[float] = None
) -> FormulationSystem:
    """Single-density indirect system from plain-family compositions.
    Right-hand side eta - i rho h."""
    rho = _rho(problem, rho)
    fp, fm = _op_families(problem, N)
    nu = problem.nu
    eye = np.eye(2 * N)
    kt_m = fm.kt_plain
    v_m = fm.v_plain
    k_p = fp.k_plain
    # -(nu+1)/2 I + big_K - i rho big_V with
    #   big_K = -Kt-(nu I - 2 Kt-) - nu Kt+(I + 2 Kt-) + 2 (T+ - T-) V-
    #   big_V = -nu V+(I + 2 Kt-) - (I - 2 K+) V-
    # is, with P = nu (Kt+ - i rho V+), grouped into two products:
    #   -(nu+1)/2 I - nu Kt- - P + 2 (Kt- - P) Kt- + [2 (T+ - T-) + i rho (I - 2 K+)] V-
    p_plus = nu * (fp.kt_plain - 1j * rho * fp.v_plain)
    matrix = linalg.matmul(2.0 * (kt_m - p_plus), kt_m)
    matrix += linalg.matmul(2.0 * (fp.t_op - fm.t_op)
                            + 1j * rho * (eye - 2.0 * k_p), v_m)
    matrix -= nu * kt_m + p_plus + 0.5 * (nu + 1.0) * eye
    return _system("l4", matrix, problem, N, kind="indirect", rho=rho,
                   aux={"kt_minus": kt_m, "v_minus": v_m})


_slot_lock = threading.Lock()
_slot: Optional[tuple] = None  # (key, system) of the last system built
# (problem, N, {k: OperatorFamily}) of the last problem assembled
_families: Optional[tuple] = None


def empty_slot():
    """Drop the kept system and operator families: their memory is freed once
    no caller holds them, and the next ``assemble`` builds from scratch."""
    global _slot, _families
    with _slot_lock:
        _slot = _families = None


def assemble(
    formulation: str,
    problem: TransmissionProblem,
    N: int,
    kappa: Optional[complex] = None,
    rho: Optional[float] = None,
) -> FormulationSystem:
    """Assemble one of ``FORMULATIONS``, reusing the last system built when
    only the incident field differs, and the operator families of the last
    problem object (see the module docstring).  l3 reads ``kappa`` and l4
    reads ``rho``; every other formulation ignores both."""
    global _slot, _families
    t0 = time.perf_counter()
    if formulation not in FORMULATIONS:
        raise ValueError(
            f"unknown formulation {formulation!r}; choices {sorted(FORMULATIONS)}"
        )
    kappa = _kappa(problem, kappa) if formulation == "l3" else None
    rho = _rho(problem, rho) if formulation == "l4" else None
    curve = problem.curve
    key = (formulation, curve.name, curve.cos_coef.tobytes(), curve.sin_coef.tobytes(),
           problem.k_plus, problem.k_minus, problem.nu, N, kappa, rho)
    with _slot_lock:
        shared = _slot[1] if _slot is not None and _slot[0] == key else None
        if shared is None:
            _slot = None  # let the old system go before the new one is built
        elif _families is not None and _families[0] is not problem:
            _families = None  # no build can share them any more
    if shared is not None:
        data = build_data(problem, N)
        system = replace(shared, problem=problem, data=data, rhs=shared.rhs_for(data))
        system.seconds = time.perf_counter() - t0
        return system
    try:
        if formulation == "l1":
            system = assemble_l1(problem, N)
        elif formulation == "l2":
            system = assemble_l2(problem, N, family="tilde")
        elif formulation == "l2plain":
            system = assemble_l2(problem, N, family="plain")
        elif formulation == "l3":
            system = assemble_l3(problem, N, kappa=kappa)
        else:
            system = assemble_l4(problem, N, rho=rho)
    except BaseException:
        with _slot_lock:
            _families = None  # they may hold what made the build fail
        raise
    system.seconds = time.perf_counter() - t0
    with _slot_lock:
        _slot = (key, system)
    return system


def solve(
    system: FormulationSystem,
    method: str = "lu",
    tol: float = 1e-12,
    maxit: Optional[int] = None,
) -> SolveResult:
    """Solve the assembled system; 'lu' direct (factored once per shared
    matrix) or restart-free 'gmres'."""
    t0 = time.perf_counter()
    if method == "lu":
        factors, reused = system._lu_factors()
        t1 = time.perf_counter()
        x = linalg.lu_solve(factors, system.rhs)
        t2 = time.perf_counter()
        res = np.linalg.norm(linalg.matmul(system.matrix, x) - system.rhs, np.inf)
        res /= max(np.linalg.norm(system.rhs, np.inf), 1e-300)
        t3 = time.perf_counter()
        stages = {"factor": 0.0 if reused else t1 - t0, "solve": t2 - t1,
                  "residual": t3 - t2}
        diag = SolverDiagnostics("lu", 0, float(res), t3 - t0,
                                 rcond=factors.rcond, stages=stages)
    elif method == "gmres":
        x, history = linalg.gmres(system.matrix, system.rhs, tol=tol, maxit=maxit)
        seconds = time.perf_counter() - t0
        diag = SolverDiagnostics("gmres", len(history) - 1, float(history[-1]),
                                 seconds, history=history, stages={"gmres": seconds})
    else:
        raise ValueError("method must be 'lu' or 'gmres'")
    if system.seconds is not None:
        diag.stages = {"assemble": system.seconds, **diag.stages}

    n2 = system.N * 2
    densities = {"mu": x} if system.kind == "indirect" else {"a": x[:n2], "phi": x[n2:]}
    return SolveResult(
        system.kind,
        system.formulation,
        system.N,
        system.problem,
        system.data,
        diag,
        aux=system.aux,
        **densities,
    )

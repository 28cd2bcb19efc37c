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
returns a system that shares the read-only matrix, ``aux``, the regularizer
R_kappa and the LU factors, so a sweep over incidences assembles and factors
once.  A miss empties the slot before it builds, so two systems are never
held together and peak memory stays that of one system.  The slot holds its
system until the next miss or ``empty_slot()``, after every caller has
dropped it: on the kite at N = 256 that is 32 MiB for l1 and l2 (matrix and
LU), 48 MiB for l3 (with R_kappa) and 16 MiB for l4 (with ``aux``), four
times as much at N = 512.  A lock guards only the slot's reads and writes;
two threads may race to build the same system, which costs time but never
returns a wrong matrix.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg, specfun
from .fourier import TrigPolynomial, dld_matrix, lambda_matrix
from .geometry import FINE_SAMPLES, ParametricCurve, grid_geometry
from .operators import OperatorFamily

__all__ = [
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


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave e^{i k d.x} with |d| = 1."""

    direction: tuple = (1.0, 0.0)

    def __post_init__(self):
        norm = np.linalg.norm(np.asarray(self.direction, dtype=float))
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError(f"plane-wave direction must be finite and nonzero, "
                             f"got {self.direction}")

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
    """Incident field Phi_k(. - location); ``side`` records where it sits."""

    location: tuple = (0.0, 0.0)
    side: str = "interior"

    def __post_init__(self):
        if self.side not in ("interior", "exterior"):
            raise ValueError("side must be 'interior' or 'exterior'")

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
    """Nodal transmission data (h, eta) as degree-N trigonometric polynomials."""

    h: TrigPolynomial
    eta: TrigPolynomial
    N: int


def build_data(problem: TransmissionProblem, N: int) -> TransmissionData:
    """Sample h = -(u_inc o x), eta = -(d_n u_inc o x)|x'| on the 2N grid."""
    inc, k = problem.incident, problem.k_plus
    _, xb, m = grid_geometry(problem.curve, N)  # |x'| already inside m
    h = -inc.value(k, xb)
    eta = -np.sum(inc.gradient(k, xb) * m, axis=-1)
    return TransmissionData(TrigPolynomial(h), TrigPolynomial(eta), N)


def _block(b11, b12, b21, b22):
    return np.block([[b11, b12], [b21, b22]])


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
    family: str = "plain"
    kappa: Optional[complex] = None
    rho: Optional[float] = None
    # needed by the indirect reconstruction
    aux: dict = field(default_factory=dict)
    regularizer: Optional[np.ndarray] = None  # R_kappa of l3, applied to the data
    # [(matrix, LUFactors)] once factored; the list is shared with the slot
    _lu: list = field(default_factory=list, repr=False)

    def rhs_for(self, data: TransmissionData) -> np.ndarray:
        """Right-hand side of this formulation for the data (h, eta)."""
        h, eta = data.h.nodal, data.eta.nodal
        if self.formulation == "l1":
            return np.concatenate([h, self.problem.nu * eta])
        if self.formulation == "l3":
            return self.regularizer @ np.concatenate([h, eta])
        if self.formulation == "l4":
            return eta - 1j * self.rho * h
        return np.concatenate([h, eta])

    def lu_factors(self) -> linalg.LUFactors:
        """LU factors of ``matrix``, computed on first use and shared with
        every system that shares the matrix."""
        if self._lu and self._lu[0][0] is self.matrix:
            return self._lu[0][1]
        factors = linalg.lu_factor(self.matrix)
        self._lu[:] = [(self.matrix, factors)]
        return factors


@dataclass
class SolverDiagnostics:
    method: str
    iterations: int
    residual: float
    seconds: float
    history: Optional[np.ndarray] = None
    rcond: Optional[float] = None  # LAPACK 1-norm estimate; None for GMRES


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
            h, eta = self.data.h.nodal, self.data.eta.nodal
            trace_p = h - self.a
            conorm_p = eta - self.phi
            return [("sl", k, -conorm_p), ("dl", k, trace_p)]
        m = -self.mu
        sl_dens = nu * (m + 2.0 * (self.aux["kt_minus"] @ m))
        dl_dens = -2.0 * (self.aux["v_minus"] @ m)
        return [("sl", k, sl_dens), ("dl", k, dl_dens)]

    def interior_terms(self):
        """Potential terms for u- : list of (kind, k, density)."""
        k, nu = self.problem.k_minus, self.problem.nu
        if self.kind == "direct":
            return [("sl", k, -self.phi / nu), ("dl", k, self.a)]
        return [("sl", k, 2.0 * self.mu)]

    def exterior_cauchy(self):
        """Parameterized Cauchy data (trace, |x'|-weighted conormal) of u+."""
        if self.kind != "direct":
            raise ValueError("Cauchy data stored only for the direct systems")
        return self.data.h.nodal - self.a, self.data.eta.nodal - self.phi


def _op_families(problem, N, kappa=None):
    fp = OperatorFamily(problem.curve, problem.k_plus, N)
    fm = OperatorFamily(problem.curve, problem.k_minus, N)
    fk = OperatorFamily(problem.curve, kappa, N) if kappa is not None else None
    return fp, fm, fk


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
    fp, fm, _ = _op_families(problem, N)
    nu = problem.nu
    eye = np.eye(2 * N)
    half = 0.5 * (1.0 + nu)
    a11 = half * eye + nu * fm.k_plain.matrix - fp.k_plain.matrix
    a12 = fp.v_plain.matrix - fm.v_plain.matrix
    a21 = nu * (fm.t_op.matrix - fp.t_op.matrix)
    a22 = half * eye + nu * fp.kt_plain.matrix - fm.kt_plain.matrix
    return _system("l1", _block(a11, a12, a21, a22), problem, N)


def _l2_matrix(problem, N, family, fp, fm, lam, dld):
    nu = problem.nu
    zero = np.zeros((2 * N, 2 * N))
    if family == "tilde":
        lead = (1.0 + 1.0 / nu) * _block(zero, lam, -nu * dld, zero)
        a11 = -(fm.k_tilde.matrix + fp.k_tilde.matrix)
        a12 = fp.r_tilde.matrix / nu + fm.r_tilde.matrix
        a21 = -(fm.t_op.matrix + nu * fp.t_op.matrix)
        a22 = fp.kt_tilde.matrix + fm.kt_tilde.matrix
        return lead + _block(a11, a12, a21, a22)
    # unanalyzed plain-V variant, kept for the accuracy comparison
    a11 = -(fm.k_plain.matrix + fp.k_plain.matrix)
    a12 = fp.v_plain.matrix / nu + fm.v_plain.matrix
    a21 = -(1.0 + nu) * dld - (fm.t_op.matrix + nu * fp.t_op.matrix)
    a22 = fp.kt_plain.matrix + fm.kt_plain.matrix
    return _block(a11, a12, a21, a22)


def assemble_l2(
    problem: TransmissionProblem, N: int, family: str = "tilde"
) -> FormulationSystem:
    """First-kind direct system; 'tilde' is the accurate discretization
    ('l2'), 'plain' the unanalyzed single-layer variant ('l2plain') run only
    for comparison.  Right-hand side (h, eta)."""
    if family not in ("tilde", "plain"):
        raise ValueError("family must be 'tilde' or 'plain'")
    fp, fm, _ = _op_families(problem, N)
    matrix = _l2_matrix(problem, N, family, fp, fm, lambda_matrix(N), dld_matrix(N))
    name = "l2" if family == "tilde" else "l2plain"
    return _system(name, matrix, problem, N, family=family)


def _regularizer(problem, N, fk, lam, dld):
    nu = problem.nu
    eye = np.eye(2 * N)
    v_kappa = lam + fk.r_tilde.matrix
    h_kappa = dld + fk.t_op.matrix
    return _block(eye, 2.0 * v_kappa, -2.0 * nu * h_kappa, nu * eye) / (nu + 1.0)


def _kappa(problem, kappa=None) -> complex:
    if kappa is None:
        kappa = problem.k_plus + 0.5j
    kappa = complex(kappa)
    if kappa.imag <= 0:
        raise ValueError("kappa needs a positive imaginary part")
    return kappa


def _rho(problem, rho=None) -> float:
    if rho is None:
        rho = problem.k_plus
    rho = float(rho)
    if rho == 0.0:
        raise ValueError("rho must be a nonzero real number")
    return rho


def assemble_l3(
    problem: TransmissionProblem, N: int, kappa: Optional[complex] = None
) -> FormulationSystem:
    """Regularized combined-field system R_kappa-preconditioned on top of the
    tilde-family blocks; kappa must have positive imaginary part.  Right-hand
    side R_kappa (h, eta)."""
    kappa = _kappa(problem, kappa)
    fp, fm, fk = _op_families(problem, N, kappa)
    nu = problem.nu
    lam = lambda_matrix(N)
    dld = dld_matrix(N)
    eye = np.eye(2 * N)
    lead = _block(0.5 * eye, -lam / nu, nu * dld, 0.5 * eye)
    mid = _block(
        fm.k_tilde.matrix,
        -fm.r_tilde.matrix / nu,
        nu * fm.t_op.matrix,
        -fm.kt_tilde.matrix,
    )
    reg = _regularizer(problem, N, fk, lam, dld)
    reg.flags.writeable = False
    l2t = _l2_matrix(problem, N, "tilde", fp, fm, lam, dld)
    matrix = lead + mid + reg @ l2t
    return _system("l3", matrix, problem, N, family="tilde", kappa=kappa,
                   regularizer=reg)


def assemble_l4(
    problem: TransmissionProblem, N: int, rho: Optional[float] = None
) -> FormulationSystem:
    """Single-density indirect system from plain-family compositions.
    Right-hand side eta - i rho h."""
    rho = _rho(problem, rho)
    fp, fm, _ = _op_families(problem, N)
    nu = problem.nu
    eye = np.eye(2 * N)
    kt_m = fm.kt_plain.matrix
    kt_p = fp.kt_plain.matrix
    v_m = fm.v_plain.matrix
    v_p = fp.v_plain.matrix
    k_p = fp.k_plain.matrix
    big_k = (
        -kt_m @ (nu * eye - 2.0 * kt_m)
        - nu * kt_p @ (eye + 2.0 * kt_m)
        + 2.0 * (fp.t_op.matrix - fm.t_op.matrix) @ v_m
    )
    big_v = -nu * v_p @ (eye + 2.0 * kt_m) - (eye - 2.0 * k_p) @ v_m
    matrix = -0.5 * (nu + 1.0) * eye + big_k - 1j * rho * big_v
    return _system("l4", matrix, problem, N, kind="indirect", rho=rho,
                   aux={"kt_minus": kt_m, "v_minus": v_m})


_ASSEMBLERS = ("l1", "l2", "l2plain", "l3", "l4")

_slot_lock = threading.Lock()
_slot: Optional[tuple] = None  # (key, system) of the last system built


def empty_slot():
    """Drop the kept system: its memory is freed once no caller holds it, and
    the next ``assemble`` builds from scratch."""
    global _slot
    with _slot_lock:
        _slot = None


def assemble(formulation: str, problem: TransmissionProblem, N: int, **kw):
    """Assemble one of 'l1', 'l2', 'l2plain', 'l3', 'l4' ('kappa' for l3,
    'rho' for l4), reusing the last system built when only the incident
    field differs (see the module docstring)."""
    global _slot
    if formulation not in _ASSEMBLERS:
        raise ValueError(
            f"unknown formulation {formulation!r}; choices {sorted(_ASSEMBLERS)}"
        )
    kappa = _kappa(problem, **kw) if formulation == "l3" else None
    rho = _rho(problem, **kw) if formulation == "l4" else None
    curve = problem.curve
    key = (formulation, curve.name, curve.cos_coef.tobytes(), curve.sin_coef.tobytes(),
           problem.k_plus, problem.k_minus, problem.nu, N, kappa, rho)
    with _slot_lock:
        shared = _slot[1] if _slot is not None and _slot[0] == key else None
        if shared is None:
            _slot = None  # let the old system go before the new one is built
    if shared is not None:
        data = build_data(problem, N)
        return replace(shared, problem=problem, data=data, rhs=shared.rhs_for(data))
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
        factors = system.lu_factors()
        x = linalg.lu_solve(factors, system.rhs)
        res = np.linalg.norm(system.matrix @ x - system.rhs, np.inf)
        res /= max(np.linalg.norm(system.rhs, np.inf), 1e-300)
        diag = SolverDiagnostics("lu", 0, float(res), time.perf_counter() - t0,
                                 rcond=factors.rcond)
    elif method == "gmres":
        out = linalg.gmres(system.matrix, system.rhs, tol=tol, maxit=maxit)
        diag = SolverDiagnostics(
            "gmres",
            out.iterations,
            out.residual,
            time.perf_counter() - t0,
            history=out.residuals,
        )
        x = out.x
    else:
        raise ValueError("method must be 'lu' or 'gmres'")

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

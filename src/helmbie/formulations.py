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
R_PS (h, eta) returns the NEGATIVE of the total-wave Cauchy data:

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
returns a system that shares the read-only matrix, ``aux`` and the LU
factors, so a sweep over incidences assembles and factors once.  A miss
empties the slot before it builds, so two systems are never held together
and peak memory stays that of one system.  The slot holds its system until
the next miss or ``empty_slot()``, after every caller has dropped it: on the
kite at N = 256 that is 32 MiB for l1, l2 and l3 (matrix and LU) and 16 MiB
for l4 (with ``aux``), four times as much at N = 512.

Many formulations.  The five formulations are block combinations of the same
Nystrom operators for k+ and k-, so next to the system the slot keeps the
``OperatorFamily`` objects of the last problem assembled, for one N: one
family per distinct wavenumber, at most two; l3's regularizer needs no
family of its own (see below).  Only ``assemble`` reaches the kept families,
and passes them with the resolved kappa or rho to the builders
``assemble_l1``-``assemble_l4``.  They are shared only with a later miss for
another formulation of the same ``TransmissionProblem`` object at the same
N; a new problem object or a new N replaces them, even when its system is a
hit and builds nothing, and a failed ``assemble`` drops them.  A problem
object is a unit of reuse: an equal problem built anew assembles its own
families.  With every operator built once, the two families of the kite at
N = 256 hold about 81 MiB (measured with tracemalloc, kernel factor sets
included; Lambda and D Lambda D of the k+ family, which the first-kind
blocks read, are part of it), four times as much at N = 512, until the next
problem or ``empty_slot()``.  A lock guards only the slot's reads and
writes; two threads may race to build the same system or operator, which
costs time but never returns a wrong matrix.

The l3 regularizer.  A regularizer only has to match the principal parts of
V and H at the complex wavenumber kappa (Boubendir, Dominguez, Levadoux and
Turc, SIAM J. Appl. Math. 75, 2015), so l3 uses
R_PS = [I, 2 V_PS; -2 nu H_PS, nu I] / (nu + 1), where V_PS and H_PS are
left-quantized Fourier multipliers with the symbols

    sigma_V(t, n) = 1 / (2 sqrt(n^2 - kappa^2 s(t)^2)),
    sigma_H(t, n) = -sqrt(n^2 - kappa^2 s(t)^2) / 2,    s = |x'| at the nodes,

and numpy's principal square root, Re >= 0.  The branch matters: on the kite
and the cavity at N = 128 (k+ = 8, k- = 32, GMRES to 1e-10), the symbols at
conj(kappa) take 1.5 times the iterations, and the other root 6 times.
Each operator is applied as sum_a diag(l_a(s)) C_a: C_a is the circulant of
the symbol at the speed s_a, one of three Chebyshev nodes on
[min s, max s], and l_a its Lagrange basis polynomial; a constant speed (the
circle) takes one circulant.  R_PS L2 therefore costs one FFT and three
scaled inverse FFTs per block row, O(N^2 log N), with no Bessel call and no
dense product, and nothing of R_PS is kept: ``rhs_for`` applies it to
(h, eta) the same way.

Block algebra.  Every formulation writes its blocks into one preallocated
matrix.  l3 applies R_PS to L2 by block rows, in place, and l4 groups its
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
from .fields import _positive_real
# Lambda and D Lambda D come from the k+ family; their two imports stay
# because perfbench/spans.py wraps lambda_matrix and dld_matrix here too
from .fourier import dld_matrix, fft_modes, lambda_matrix
from .geometry import FINE_SAMPLES, ParametricCurve, _grid_size, grid_geometry
from .operators import MIN_N, OperatorFamily

__all__ = [
    "FORMULATIONS",
    "PlaneWave",
    "PointSource",
    "TransmissionProblem",
    "TransmissionData",
    "build_data",
    "FormulationSystem",
    "SolveResult",
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
        if not isinstance(self.curve, ParametricCurve):
            raise ValueError(f"curve must be a ParametricCurve, got {self.curve!r}")
        for name in ("k_plus", "k_minus", "nu"):
            object.__setattr__(self, name, _positive_real(getattr(self, name), name))
        # checked by duck type, so that user-defined incident fields work
        if not all(callable(getattr(self.incident, m, None)) for m in ("value", "gradient")):
            raise ValueError(f"incident field needs callable value and gradient "
                             f"methods, got {self.incident!r}")
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


def build_data(problem: TransmissionProblem, N: int) -> TransmissionData:
    """Sample h = -(u_inc o x), eta = -(d_n u_inc o x)|x'| on the 2N grid."""
    inc, k = problem.incident, problem.k_plus
    _, xb, m = grid_geometry(problem.curve, N)  # |x'| already inside m
    h = -inc.value(k, xb)
    eta = -np.sum(inc.gradient(k, xb) * m, axis=-1)
    return TransmissionData(h, eta)


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
    kappa: Optional[complex] = None
    rho: Optional[float] = None
    # l4: K'- and V-, which ``solve`` applies to the density to form the terms
    aux: dict = field(default_factory=dict)
    # wall time of the ``assemble`` call that returned this system (on a slot
    # hit, of its data and right-hand side)
    seconds: float = 0.0
    # [(matrix, LUFactors)] once factored; the list is shared with the slot
    _lu: list = field(default_factory=list, repr=False)

    def rhs_for(self, data: TransmissionData) -> np.ndarray:
        """Right-hand side of this formulation for the data (h, eta)."""
        h, eta = data.h, data.eta
        if self.formulation == "l1":
            return np.concatenate([h, self.problem.nu * eta])
        if self.formulation == "l3":
            nu, n2 = self.problem.nu, 2 * self.N
            v_ps, h_ps = _principal_symbols(self.problem, self.N, self.kappa)
            rhs = np.concatenate([h / (nu + 1.0), (nu / (nu + 1.0)) * eta])
            _add_multipliers(rhs[:n2], v_ps, np.fft.fft(eta))
            _add_multipliers(rhs[n2:], h_ps, np.fft.fft(h))
            return rhs
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
    # Each also has "assemble" (``FormulationSystem.seconds``), which
    # ``seconds`` leaves out
    stages: dict = field(default_factory=dict)


@dataclass
class SolveResult:
    """Unknowns of one solve and the (kind, k, density) terms of u+ and u-."""

    formulation: str
    N: int
    problem: TransmissionProblem
    diagnostics: SolverDiagnostics
    exterior: list
    interior: list
    a: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None

    def exterior_terms(self):
        """Potential terms for u+ : list of (kind, k, density)."""
        return self.exterior

    def interior_terms(self):
        """Potential terms for u- : list of (kind, k, density)."""
        return self.interior


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


def _system(formulation, matrix, problem, N, kappa, rho, aux) -> FormulationSystem:
    """Check a built matrix block by block, freeze it and add the data and
    right-hand side."""
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
    for array in (matrix, *aux.values()):
        array.flags.writeable = False
    data = build_data(problem, N)
    system = FormulationSystem(formulation, matrix, None, N, problem, data,
                               kappa=kappa, rho=rho, aux=aux)
    system.rhs = system.rhs_for(data)
    return system


# The builders return the matrix of one formulation from the families fp (k+)
# and fm (k-); ``assemble`` alone makes, checks, times and keeps the system.
# They are not exported, and stay module-level functions because
# perfbench/spans.py wraps them by name.
def assemble_l1(problem: TransmissionProblem, N: int, fp, fm) -> np.ndarray:
    """Second-kind direct system from the plain operator family.

    Blocks: (1+nu)/2 I + [nu K- - K+,  V+ - V- ; nu (T- - T+),  nu Kt+ - Kt-]
    with right-hand side (h, nu eta); the D Lambda D parts of the two
    hypersingular operators cancel in the difference.
    """
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
    return matrix


def assemble_l2(problem: TransmissionProblem, N: int, fp, fm,
                formulation: str) -> np.ndarray:
    """First-kind direct system; 'l2' is the accurate tilde-family
    discretization, 'l2plain' the unanalyzed plain single-layer variant run
    only for comparison.  Right-hand side (h, eta)."""
    nu = problem.nu
    lam, dld = fp.lambda_mat, fp.dld_mat
    matrix = np.empty((4 * N, 4 * N), dtype=complex)
    (a11, a12), (a21, a22) = _blocks(matrix)
    if formulation == "l2":
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


_PS_NODES = 3  # Chebyshev nodes in the speed range, for the symbols of R_PS


def _principal_symbols(problem, N, kappa):
    """The off-diagonal blocks 2 V_PS / (nu + 1) and -2 nu H_PS / (nu + 1) of
    R_PS, each as a list of (l_a(s), sigma_a): the block is the sum over a of
    diag(l_a(s)) times the Fourier multiplier with the FFT-layout symbol
    sigma_a (see the module docstring)."""
    nu = problem.nu
    _, _, m = grid_geometry(problem.curve, N)
    speed = np.hypot(m[:, 0], m[:, 1])
    lo, hi = speed.min(), speed.max()
    if hi - lo <= 1e-12 * hi:
        # constant speed (up to rounding, as on the circle): one circulant
        nodes, weights = [hi], [np.ones_like(speed)]
    else:
        angles = (2 * np.arange(_PS_NODES) + 1) * np.pi / (2 * _PS_NODES)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(angles)
        # Lagrange basis polynomials of the nodes, at the speeds
        weights = [np.prod([(speed - b) / (a - b) for b in nodes if b != a], axis=0)
                   for a in nodes]
    n2 = fft_modes(N).astype(float) ** 2
    roots = [np.sqrt(n2 - (kappa * a) ** 2) for a in nodes]  # principal branch
    v_ps = [(w, 1.0 / ((nu + 1.0) * root)) for w, root in zip(weights, roots)]
    h_ps = [(w, (nu / (nu + 1.0)) * root) for w, root in zip(weights, roots)]
    return v_ps, h_ps


def _add_multipliers(out, terms, hat):
    """out += sum over (l, sigma) in terms of diag(l) ifft(sigma hat), for the
    FFT ``hat`` of a vector or of a block row's columns (axis 0)."""
    column = (slice(None),) + (None,) * (hat.ndim - 1)
    part = np.empty_like(hat)
    for weight, symbol in terms:
        np.multiply(hat, symbol[column], out=part)
        np.fft.ifft(part, axis=0, out=part)
        part *= weight[column]
        out += part


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


def assemble_l3(problem: TransmissionProblem, N: int, fp, fm,
                kappa: complex) -> np.ndarray:
    """Regularized combined-field system R_PS L2 + ... on top of the
    tilde-family blocks, for a kappa with positive imaginary part.
    Right-hand side R_PS (h, eta)."""
    nu = problem.nu
    n2 = 2 * N
    lam, dld = fp.lambda_mat, fp.dld_mat
    v_ps, h_ps = _principal_symbols(problem, N, kappa)
    # R_PS L2 by block rows, in place of L2: the diagonal blocks of R_PS are
    # multiples of I, so each of its two full blocks meets one block row of L2
    matrix = assemble_l2(problem, N, fp, fm, "l2")
    top, bottom = matrix[:n2], matrix[n2:]
    hat_top, hat_bottom = (np.fft.fft(row, axis=0) for row in (top, bottom))
    top *= 1.0 / (nu + 1.0)
    bottom *= nu / (nu + 1.0)
    _add_multipliers(top, v_ps, hat_bottom)
    del hat_bottom  # each FFT is half a matrix; drop it once applied
    _add_multipliers(bottom, h_ps, hat_top)
    del hat_top
    # plus the leading blocks and those of k-
    eye = np.eye(n2)
    (a11, a12), (a21, a22) = _blocks(matrix)
    a11 += 0.5 * eye + fm.k_tilde
    a12 -= (lam + fm.r_tilde) / nu
    a21 += nu * (dld + fm.t_op)
    a22 += 0.5 * eye - fm.kt_tilde
    return matrix


def assemble_l4(problem: TransmissionProblem, N: int, fp, fm,
                rho: float) -> np.ndarray:
    """Single-density indirect system from plain-family compositions, for a
    finite nonzero real rho.  Right-hand side eta - i rho h."""
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
    return matrix


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
    N = _grid_size(N, MIN_N)
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
        fp, fm = _op_families(problem, N)
        aux = {}
        if formulation == "l1":
            matrix = assemble_l1(problem, N, fp, fm)
        elif formulation == "l3":
            matrix = assemble_l3(problem, N, fp, fm, kappa)
        elif formulation == "l4":
            matrix = assemble_l4(problem, N, fp, fm, rho)
            aux = {"kt_minus": fm.kt_plain, "v_minus": fm.v_plain}
        else:
            matrix = assemble_l2(problem, N, fp, fm, formulation)
        system = _system(formulation, matrix, problem, N, kappa, rho, aux)
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
    diag.stages = {"assemble": system.seconds, **diag.stages}

    k_plus, k_minus, nu = system.problem.k_plus, system.problem.k_minus, system.problem.nu
    if system.formulation == "l4":
        m = -x  # the physical density (see the module docstring)
        sl_dens = nu * (m + 2.0 * linalg.matmul(system.aux["kt_minus"], m))
        dl_dens = -2.0 * linalg.matmul(system.aux["v_minus"], m)
        exterior = [("sl", k_plus, sl_dens), ("dl", k_plus, dl_dens)]
        interior = [("sl", k_minus, 2.0 * x)]
        densities = {"mu": x}
    else:
        n2 = system.N * 2
        a, phi = x[:n2], x[n2:]
        trace_p = system.data.h - a
        conorm_p = system.data.eta - phi
        exterior = [("sl", k_plus, -conorm_p), ("dl", k_plus, trace_p)]
        interior = [("sl", k_minus, -phi / nu), ("dl", k_minus, a)]
        densities = {"a": a, "phi": phi}
    return SolveResult(system.formulation, system.N, system.problem, diag,
                       exterior, interior, **densities)

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

Reuse.  A formulation's matrix depends on the curve, k+, k-, nu, N and kappa
(l3) or rho (l4), never on the incident field, and the five formulations are
block combinations of the same Nystrom operators for k+ and k-.  So
``assemble`` keeps one record: the incident-free system it last built, its
key (the formulation, the curve, k+, k-, nu, N and the resolved kappa/rho)
and the k+ and k- ``OperatorFamily`` objects it was built from (one when
k+ = k-; l3's regularizer needs none, see below).  A hit and a miss return
the kept system plus the caller's data and right-hand side through one path,
sharing the read-only matrix, ``aux`` and the LU factors, so a sweep over
incidences assembles and factors once.  A miss empties the record before it
builds, so two systems are never held together and a failed build leaves
nothing; it reuses the families only for the same ``TransmissionProblem``
object at the same N (an equal problem built anew builds its own).  A hit
for another problem object drops the families, and ``empty_slot()`` drops
everything; README gives the memory the record holds until then.  Both
families run their kernel passes before a builder allocates.  ``assemble``
reads the record once and replaces it whole, so threads need no lock: a
race costs a second build, never a wrong matrix.

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
matrix.  l3 applies R_PS to L2 in place, in chunks of columns (R_PS acts on
the row index only, so a chunk's FFTs are all it holds), and l4 groups its
compositions into two products; both reassociate the floating-point sums of
the full-matrix forms kept in the test oracles.  l1, l2 and l2plain keep the
order of every sum, so their matrices are those of the full-matrix forms bit
for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import linalg, specfun
# Lambda and D Lambda D come from the k+ family; their two imports stay
# because perfbench/spans.py wraps lambda_matrix and dld_matrix here too
from .fourier import dld_matrix, fft_modes, lambda_matrix
from .geometry import (FINE_SAMPLES, ParametricCurve, _curve, _grid_size, _numbers,
                       _positive_real, grid_geometry)
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
        direction = _numbers(self.direction, "plane-wave direction",
                             "two finite coordinates, not both zero",
                             lambda d: 0 < np.linalg.norm(d) < np.inf, shape=(2,))
        object.__setattr__(self, "direction", tuple(direction.astype(float).tolist()))

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
        location = _numbers(self.location, "point-source location",
                            "two finite coordinates", shape=(2,))
        object.__setattr__(self, "location", tuple(location.astype(float).tolist()))

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
    """Curve, wavenumbers k+ (outside) and k- (inside), nu, incident field.

    The radiating scattered field u+ and the interior field u- meet
    u- = u+ + u_inc and nu d_n u- = d_n (u+ + u_inc) on the curve.  Every
    formulation takes u_inc to solve the k+ equation inside the curve, so
    incident fields come from outside: a ``PointSource`` on or inside the
    curve is rejected.
    """

    curve: ParametricCurve
    k_plus: float
    k_minus: float
    nu: float
    incident: object

    def __post_init__(self):
        _curve(self.curve)
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
            if curve.winding_number(self.incident.location):
                raise ValueError("point source lies inside the curve")


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
    rest is shared by every system ``assemble`` returns: each is the slot's
    incident-free system (``data`` and ``rhs`` None) plus the caller's data.
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
    # hit, of its data and right-hand side; 0 in the slot)
    seconds: float = 0.0
    # [(matrix, LUFactors)] once factored; the list is shared with the slot
    _lu: list = field(default_factory=list, repr=False)

    def rhs_for(self, data: TransmissionData) -> np.ndarray:
        """Right-hand side of this formulation for the data (h, eta)."""
        h, eta = data.h, data.eta
        if self.formulation == "l1":
            return np.concatenate([h, self.problem.nu * eta])
        if self.formulation == "l3":
            rhs = np.concatenate([h, eta])
            _apply_regularizer(rhs, self.problem.nu,
                               *_principal_symbols(self.problem, self.N, self.kappa))
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
    # seconds per stage: LU "factor" (0 when the factors were reused) and
    # "solve" (the triangular solves), or GMRES "gmres"; then "residual" and
    # "assemble" (``FormulationSystem.seconds``), which ``seconds`` leaves out
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
    """New k+ and k- families of the problem at N (one when k+ = k-); each runs
    its kernel pass as it is built, so no builder holds anything meanwhile."""
    fp = OperatorFamily(problem.curve, problem.k_plus, N)
    fm = (fp if problem.k_minus == problem.k_plus
          else OperatorFamily(problem.curve, problem.k_minus, N))
    return fp, fm


def _blocks(matrix):
    """((a11, a12), (a21, a22)): the four square block views of a matrix."""
    n = matrix.shape[0] // 2
    top, bottom = matrix[:n], matrix[n:]
    return (top[:, :n], top[:, n:]), (bottom[:, :n], bottom[:, n:])


# The builders return the matrix of one formulation from the families fp (k+)
# and fm (k-), l4's with its ``aux``; ``assemble`` alone makes, checks, times
# and keeps the system.  A family's K' is a transposed view of its K, and an
# elementwise pass over a transposed operand costs about twice a transposing
# copy, so l1-l3 sum the block a22 = f(K'+, K'-) as its transpose f(K+, K-)
# (I is symmetric; the same sums, entry for entry) and write it with one
# transposing copy.
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
    # a22 is summed as its transpose, from K (see the comment above the builders)
    a22_t = half * eye + nu * fp.k_plain
    a22_t -= fm.k_plain
    a22[...] = a22_t.T
    return matrix


def assemble_l2(problem: TransmissionProblem, N: int, fp, fm,
                formulation: str) -> np.ndarray:
    """First-kind direct system with right-hand side (h, eta),

        [-(K+ + K-), V+ + V-/nu; -(1 + nu) D Lambda D - (T+ + nu T-), K'+ + K'-].

    'l2' is the accurate tilde family, V~ = Lambda + R~ with (1 + 1/nu) Lambda
    added last; 'l2plain' the unanalyzed plain variant, run only for
    comparison.  The 0.0 added to a11 and a22 keeps the sign of zeros that
    l2's zero leading blocks give."""
    nu = problem.nu
    if formulation == "l2":
        k_p, k_m, v_p, v_m = fp.k_tilde, fm.k_tilde, fp.r_tilde, fm.r_tilde
    else:
        k_p, k_m, v_p, v_m = fp.k_plain, fm.k_plain, fp.v_plain, fm.v_plain
    matrix = np.empty((4 * N, 4 * N), dtype=complex)
    (a11, a12), (a21, a22) = _blocks(matrix)
    np.subtract(0.0, k_p + k_m, out=a11)
    np.add(v_p, v_m / nu, out=a12)
    np.subtract(-(1.0 + nu) * fp.dld_mat, fp.t_op + nu * fm.t_op, out=a21)
    # a22 is summed as its transpose, from K (see the comment above the builders)
    a22[...] = np.add(0.0, k_p + k_m).T
    if formulation == "l2":
        a12 += (1.0 + 1.0 / nu) * fp.lambda_mat
    return matrix


_PS_NODES = 3  # Chebyshev nodes in the speed range, for the symbols of R_PS
_PS_COLUMNS = 128  # columns of L2 that assemble_l3 passes through R_PS at once


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


def _apply_regularizer(x, nu, v_ps, h_ps):
    """Apply R_PS in place to x, a 4N vector or a 4N x m block of columns: a
    multiple of each half plus sum_a diag(l_a) ifft(sigma_a fft(other half))."""
    n2 = x.shape[0] // 2
    top, bottom = x[:n2], x[n2:]
    hat_top, hat_bottom = (np.fft.fft(rows, axis=0) for rows in (top, bottom))
    top *= 1.0 / (nu + 1.0)
    bottom *= nu / (nu + 1.0)
    column = (slice(None),) + (None,) * (x.ndim - 1)
    part = np.empty_like(hat_top)
    for rows, terms, hat in ((top, v_ps, hat_bottom), (bottom, h_ps, hat_top)):
        for weight, symbol in terms:
            np.multiply(hat, symbol[column], out=part)
            np.fft.ifft(part, axis=0, out=part)
            part *= weight[column]
            rows += part


def _kappa(problem, kappa=None) -> complex:
    if kappa is None:
        kappa = problem.k_plus + 0.5j
    return complex(_numbers(kappa, "kappa", "finite with a positive imaginary part",
                            lambda v: v.imag > 0, kinds="iufc"))


def _rho(problem, rho=None) -> float:
    if rho is None:
        rho = problem.k_plus
    return float(_numbers(rho, "rho", "a finite nonzero real number", lambda v: v != 0.0))


def assemble_l3(problem: TransmissionProblem, N: int, fp, fm,
                kappa: complex) -> np.ndarray:
    """Regularized combined-field system R_PS L2 + ... on top of the
    tilde-family blocks, for a kappa with positive imaginary part.
    Right-hand side R_PS (h, eta)."""
    nu = problem.nu
    v_ps, h_ps = _principal_symbols(problem, N, kappa)
    # R_PS L2 in place of L2.  R_PS acts on the row index only, so it is
    # applied to _PS_COLUMNS columns at a time: its FFTs hold chunks, not rows
    matrix = assemble_l2(problem, N, fp, fm, "l2")
    for start in range(0, matrix.shape[1], _PS_COLUMNS):
        _apply_regularizer(matrix[:, start:start + _PS_COLUMNS], nu, v_ps, h_ps)
    # plus the leading blocks and those of k-
    eye = np.eye(2 * N)
    (a11, a12), (a21, a22) = _blocks(matrix)
    a11 += 0.5 * eye + fm.k_tilde
    a12 -= (fp.lambda_mat + fm.r_tilde) / nu
    a21 += nu * (fp.dld_mat + fm.t_op)
    a22 += np.ascontiguousarray((0.5 * eye - fm.k_tilde).T)
    return matrix


def assemble_l4(problem: TransmissionProblem, N: int, fp, fm,
                rho: float) -> tuple:
    """Single-density indirect system from plain-family compositions, for a
    finite nonzero real rho.  Right-hand side eta - i rho h.

    Returns the matrix and the system's ``aux``: K'- as a C-contiguous copy
    of the family's transposed view, which both products here and every
    ``solve`` hand to BLAS without another copy, and V-.
    """
    nu = problem.nu
    eye = np.eye(2 * N)
    kt_m = np.ascontiguousarray(fm.kt_plain)
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
    return matrix, {"kt_minus": kt_m, "v_minus": v_m}


_slot: Optional[tuple] = None  # (key, system, (fp, fm) or None), see "Reuse"


def empty_slot():
    """Drop the kept system and operator families: their memory is freed once
    no caller holds them, and the next ``assemble`` builds from scratch."""
    global _slot
    _slot = None


def assemble(
    formulation: str,
    problem: TransmissionProblem,
    N: int,
    kappa: Optional[complex] = None,
    rho: Optional[float] = None,
) -> FormulationSystem:
    """Assemble one of ``FORMULATIONS``, reusing the kept system or its
    operator families where "Reuse" in the module docstring allows.  l3 reads
    ``kappa`` and l4 reads ``rho``; every other formulation ignores both."""
    global _slot
    t0 = time.perf_counter()
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; "
                         f"choices {sorted(FORMULATIONS)}")
    N = _grid_size(N, MIN_N)
    kappa = _kappa(problem, kappa) if formulation == "l3" else None
    rho = _rho(problem, rho) if formulation == "l4" else None
    key = (formulation, problem.curve, problem.k_plus, problem.k_minus, problem.nu,
           N, kappa, rho)
    found = _slot
    if found is not None and found[0] == key:
        _, kept, families = found
        if kept.problem is not problem:
            families = None  # no build can share the families any more
    else:
        families = (found[2] if found is not None and found[1].problem is problem
                    and found[1].N == N else None)
        # let the old system go before the new one is built; a failed build
        # leaves nothing to reuse
        found = _slot = None
        fp, fm = families = families or _op_families(problem, N)
        aux = {}
        if formulation == "l1":
            matrix = assemble_l1(problem, N, fp, fm)
        elif formulation == "l3":
            matrix = assemble_l3(problem, N, fp, fm, kappa)
        elif formulation == "l4":
            matrix, aux = assemble_l4(problem, N, fp, fm, rho)
        else:
            matrix = assemble_l2(problem, N, fp, fm, formulation)
        n2 = 2 * N
        for i, j in np.ndindex(matrix.shape[0] // n2, matrix.shape[1] // n2):
            if not np.all(np.isfinite(matrix[i * n2:(i + 1) * n2, j * n2:(j + 1) * n2])):
                raise ValueError(f"{formulation}: non-finite entries in block a{i + 1}{j + 1}")
        # shared by every system the slot hands out
        for array in (matrix, *aux.values()):
            array.flags.writeable = False
        kept = FormulationSystem(formulation, matrix, None, N, problem, None,
                                 kappa=kappa, rho=rho, aux=aux)
    data = build_data(problem, N)
    system = replace(kept, problem=problem, data=data, rhs=kept.rhs_for(data))
    system.seconds = time.perf_counter() - t0
    _slot = (key, kept, families)
    return system


def solve(
    system: FormulationSystem,
    method: str = "lu",
    tol: float = 1e-10,
) -> SolveResult:
    """Solve the assembled system; 'lu' direct (factored once per shared
    matrix) or 'gmres' to the relative residual ``tol``.  Either way the
    diagnostics report the true relative residual ||A x - b||_2 / ||b||_2."""
    t0 = time.perf_counter()
    if method == "lu":
        factors, reused = system._lu_factors()
        t1 = time.perf_counter()
        x = linalg.lu_solve(factors, system.rhs)
        stages = {"factor": 0.0 if reused else t1 - t0,
                  "solve": time.perf_counter() - t1}
        iterations, history, rcond = 0, None, factors.rcond
    elif method == "gmres":
        x, history = linalg.gmres(system.matrix, system.rhs, tol=tol)
        stages = {"gmres": time.perf_counter() - t0}
        iterations, rcond = len(history) - 1, None
    else:
        raise ValueError("method must be 'lu' or 'gmres'")
    t2 = time.perf_counter()
    res = np.linalg.norm(linalg.matmul(system.matrix, x) - system.rhs)
    res /= max(np.linalg.norm(system.rhs), 1e-300)
    t3 = time.perf_counter()
    stages = {"assemble": system.seconds, **stages, "residual": t3 - t2}
    diag = SolverDiagnostics(method, iterations, float(res), t3 - t0, history=history,
                             rcond=rcond, stages=stages)

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

"""Batch driver: convergence studies, verification suites, CSV/JSON export.

A study solves each (formulation, N) cell of a ladder against a common
reference solution (by default the second-kind direct formulation at a much
larger N) and reports the max far-field error over equispaced directions.
Every reference, every ladder cell and ``helmbie solve`` run through
``solve_cell``: assemble, solve and far field on a problem of the cell's
own, with one meaning of ``seconds``, and ``cell_fields`` writes the JSON
record of each from its ``SolverDiagnostics``.  Each config key is declared
once, as a ``StudyConfig`` field carrying its default text, parser and doc.
Verification suites package the library's absolute-accuracy checks; each
returns measured numbers next to its tolerances.  They are the one place
these numbers are computed: ``helmbie verify`` prints them, and the
acceptance criteria of the test suite assert on the same reports.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy
from scipy import special as _sp

from .fields import FieldEvaluator, far_field_linf_diff
from .formulations import (
    FORMULATIONS,
    PlaneWave,
    PointSource,
    SolverDiagnostics,
    TransmissionProblem,
    _kappa,
    _rho,
    assemble,
    solve,
)
from .fourier import TrigPolynomial, dld_matrix, fft_modes, lambda_matrix, psi_hat
from .geometry import grid, grid_geometry, make_curve
from .linalg import GmresError, _check_gmres, _usable_cores
from .operators import MIN_N, OperatorFamily

__all__ = [
    "CELL_ERRORS",
    "ConfigError",
    "StudyConfig",
    "StudyReport",
    "cell_fields",
    "environment",
    "run_convergence",
    "run_verification",
    "solve_cell",
    "write_far_field",
    "VERIFICATION_SUITES",
]


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


def _key(default: str, parse, doc: str):
    """One config key: its default text, the parser of its text, its doc."""
    return field(metadata={"default": default, "parse": parse, "doc": doc})


def _list(item):
    """Parser of a comma-separated list; blank entries are skipped."""
    return lambda text: tuple(item(x) for x in text.split(",") if x.strip())


def _point(text):
    return tuple(float(x) for x in text.split(","))


def _optional(parse):
    """Parser that reads a blank value as None."""
    return lambda text: parse(text) if text.strip() else None


@dataclass
class StudyConfig:
    """A study; each field is the config key of the same name, and a config
    file may override any key."""

    curve: str = _key("kite", str, "circle | ellipse | kite | cavity")
    curve_params: tuple = _key("", _list(float), "floats for circle/ellipse")
    k_plus: float = _key("8.0", float, "exterior wavenumber")
    k_minus: float = _key("32.0", float, "interior wavenumber")
    nu: float = _key("1.0", float, "ratio nu in nu d_n u- = d_n (u+ + u_inc)")
    incident: str = _key("plane", str, "plane | point")
    direction: tuple = _key("1,0", _point, "plane-wave direction (normalized)")
    source: tuple = _key("2,1.5", _point, "point-source location, outside the curve")
    formulations: tuple = _key("l2,l2plain", _list(str.strip),
                               "any of " + ",".join(FORMULATIONS))
    n_ladder: tuple = _key("96,128,160", _list(int), "study resolutions")
    n_reference: int = _key("320", int, "reference resolution (>= 2x max ladder N)")
    reference_formulation: str = _key(
        "l1", str, "reference solver; 'self2x' = same formulation at twice the "
        "cell's N (Richardson-style self reference)")
    kappa: complex | None = _key("", _optional(lambda text: complex(*_point(text))),
                                 "l3 regularizer wavenumber 're,im'; default k+ +0.5i")
    rho: float | None = _key("", _optional(float), "l4 coupling parameter; default k+")
    solver: str = _key("lu", str, "lu | gmres")
    gmres_tol: float = _key("1e-10", float, "GMRES relative residual tolerance")
    directions: int = _key("360", int, "far-field sample count")
    dump_farfield: bool = _key("false", lambda t: t.lower() in ("true", "1", "yes"),
                               "also write per-cell far-field CSVs")
    out_dir: Path = _key("out", Path, "output directory")

    @classmethod
    def from_mapping(cls, raw: dict) -> "StudyConfig":
        keys = {f.name: f.metadata for f in fields(cls)}
        unknown = set(raw) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, key in keys.items():
            try:
                values[name] = key["parse"](str(raw.get(name, key["default"])))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad config value for {name}: {exc}") from exc
        cfg = cls(**values)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "StudyConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read the config file {path}: {reason}") from exc
        raw = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            raw[key.strip()] = val.strip().strip('"')
        return cls.from_mapping(raw)

    def validate(self):
        if self.incident not in ("plane", "point"):
            raise ConfigError("incident must be 'plane' or 'point'")
        try:
            problem = self.build_problem()
            _kappa(problem, self.kappa)
            _rho(problem, self.rho)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad problem: {exc}") from exc
        bad = [f for f in self.formulations if f not in FORMULATIONS]
        if bad:
            raise ConfigError(f"unknown formulations {bad}")
        if not self.n_ladder:
            raise ConfigError("empty N ladder")
        # a repeated cell would be solved again, reusing the kept system
        for name in ("formulations", "n_ladder"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ConfigError(f"{name} repeats an entry: {entries}")
        if min(self.n_ladder) < MIN_N:
            raise ConfigError(f"ladder N must be >= {MIN_N}")
        if self.reference_formulation != "self2x":
            if self.reference_formulation not in FORMULATIONS:
                raise ConfigError(
                    f"unknown reference formulation {self.reference_formulation!r}"
                )
            # with the ladder at >= MIN_N this also keeps n_reference >= MIN_N
            if self.n_reference < 2 * max(self.n_ladder):
                raise ConfigError("n_reference must be >= 2x the largest ladder N")
        if self.solver not in ("lu", "gmres"):
            raise ConfigError("solver must be 'lu' or 'gmres'")
        try:
            _check_gmres(self.gmres_tol)
        except ValueError as exc:
            raise ConfigError(f"bad gmres_tol: {exc}") from exc
        if self.directions < 1:
            raise ConfigError("directions must be >= 1")

    def build_problem(self) -> TransmissionProblem:
        curve = make_curve(self.curve, *self.curve_params)
        if self.incident == "plane":
            incident = PlaneWave(self.direction)
        else:
            incident = PointSource(self.source)
        return TransmissionProblem(curve, self.k_plus, self.k_minus, self.nu, incident)


# the thread-count variables of the BLAS and OpenMP runtimes numpy and scipy
# may load; each one read at the start of a run sets its pool size
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """The JSON block that says where a run ran: the python, numpy, scipy
    and helmbie versions, the cores this process may use, and each thread
    variable (null when unset)."""
    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "helmbie": __version__,
        "cores": _usable_cores(),
        "thread_variables": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def cell_fields(formulation: str, N: int, diagnostics: SolverDiagnostics | None,
                seconds: float) -> dict:
    """The JSON fields of one cell: how it was solved and how well.

    ``history`` is the GMRES residual history (null for LU); a failed cell,
    with no diagnostics, reads 0 iterations, null and no stages.
    """
    d = diagnostics or SolverDiagnostics(None, 0, None, 0.0)
    return {
        "formulation": formulation,
        "N": N,
        "solver": d.method,
        "iterations": d.iterations,
        "residual": d.residual,
        "rcond": d.rcond,
        "history": None if d.history is None else d.history.tolist(),
        "seconds": seconds,
        "stages": d.stages,
    }


@dataclass
class StudyRow:
    formulation: str
    N: int
    error_linf: float
    seconds: float  # of ``solve_cell``; 0 on a failure
    diagnostics: SolverDiagnostics | None = None  # None on a failure
    failure: str = ""


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list = field(default_factory=list)
    reference_label: str = ""

    def to_csv(self) -> str:
        lines = ["formulation,N,error_linf,iters,seconds"]
        for r in self.rows:
            err = "nan" if r.failure else f"{r.error_linf:.6e}"
            iters = r.diagnostics.iterations if r.diagnostics else 0
            lines.append(f"{r.formulation},{r.N},{err},{iters},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "curve": self.config.curve,
            "k_plus": self.config.k_plus,
            "k_minus": self.config.k_minus,
            "nu": self.config.nu,
            "reference": self.reference_label,
            "environment": environment(),
            "rows": [
                {
                    **cell_fields(r.formulation, r.N, r.diagnostics, r.seconds),
                    "error_linf": None if r.failure else r.error_linf,
                    "failure": r.failure,
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2)


# what fails a cell: a singular or non-finite system, GMRES missing its tolerance
CELL_ERRORS = (GmresError, np.linalg.LinAlgError, ValueError)


def solve_cell(config: StudyConfig, form: str, N: int):
    """Solve one (formulation, N) cell on a problem of its own.

    Returns (SolveResult, far field over ``config.directions`` equispaced
    directions, seconds of assembly, solve and far field together); raises
    one of ``CELL_ERRORS`` when the cell fails.
    """
    problem = config.build_problem()
    angles = np.linspace(0.0, 2.0 * np.pi, config.directions, endpoint=False)
    t0 = time.perf_counter()
    system = assemble(form, problem, N, kappa=config.kappa, rho=config.rho)
    result = solve(system, config.solver, tol=config.gmres_tol)
    ff = FieldEvaluator(problem.curve, result.exterior_terms()).far_field(angles)
    return result, ff, time.perf_counter() - t0


def write_far_field(out_dir, form, N, ff):
    """Write one far field as angle,re,im CSV; returns the path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"farfield_{form}_N{N}.csv"
    lines = ["angle,re,im"] + [
        f"{a:.10f},{v.real:.16e},{v.imag:.16e}"
        for a, v in zip(ff.angles, ff.values)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_convergence(config: StudyConfig) -> StudyReport:
    """Solve the ladder, measure far-field errors against the reference.

    Each reference and each cell builds its own problem in ``solve_cell``,
    and ``assemble`` shares operator families only within one problem
    object, so each cell pays for its own families in its seconds.
    """
    report = StudyReport(config)

    def reference_key(form, N):
        if config.reference_formulation == "self2x":
            return (form, 2 * N)
        return (config.reference_formulation, config.n_reference)

    def reference(key):
        """Far field of one reference, or the exception that stopped it."""
        try:
            return solve_cell(config, *key)[1]
        except CELL_ERRORS as exc:
            return exc

    def run_cell(form, N):
        ref = refs[reference_key(form, N)]
        if isinstance(ref, Exception):
            return StudyRow(form, N, float("nan"), 0.0, failure=str(ref))
        try:
            result, ff, seconds = solve_cell(config, form, N)
        except CELL_ERRORS as exc:
            return StudyRow(form, N, float("nan"), 0.0, failure=str(exc))
        if config.dump_farfield:
            write_far_field(config.out_dir, form, N, ff)
        return StudyRow(form, N, far_field_linf_diff(ff, ref), seconds,
                        result.diagnostics)

    cells = [(f, N) for f in config.formulations for N in config.n_ladder]
    # every distinct reference is solved once, before any cell runs; a
    # failed one is recorded on each row that needs it
    keys = sorted({reference_key(f, N) for f, N in cells})
    refs = {key: reference(key) for key in keys}
    rows = [run_cell(*cell) for cell in cells]
    report.rows = sorted(rows, key=lambda r: (r.formulation, r.N))
    if config.reference_formulation == "self2x":
        report.reference_label = "self at 2N"
    else:
        report.reference_label = (
            f"{config.reference_formulation} at N={config.n_reference}"
        )
    return report


# ----------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------


@dataclass
class Check:
    label: str
    value: float
    tol: float
    ok: bool


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, label, value, tol, larger_is_fail=True):
        ok = value <= tol if larger_is_fail else value >= tol
        self.checks.append(Check(label, float(value), float(tol), bool(ok)))

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            out.append(f"  {status}  {c.label}: {c.value:.3e} (tol {c.tol:.1e})")
        out.extend(f"  note: {n}" for n in self.notes)
        return out


def _psi_hat_quadrature(m, n_max):
    """Composite Gauss-Legendre oracle for the weight coefficients.

    Uses evenness about pi, geometric panel grading into the log endpoint,
    and panels short enough for the cos(n t) oscillation; independent of the
    closed-form series route.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = [1e-14]
    while edges[-1] < 0.1:
        edges.append(edges[-1] * 2.0)
    edges.extend(np.linspace(edges[-1], np.pi, 4 * n_max + 8).tolist())
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ts.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * weights)
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    if m == 0:
        psi = np.ones_like(t)
    else:
        log_term = np.log(np.sin(0.5 * t) ** 2)
        psi = log_term if m == 1 else np.sin(0.5 * t) ** 2 * log_term
    ns = np.arange(n_max + 1)
    cosnt = np.cos(np.outer(ns, t))
    return (cosnt @ (w * psi)) / np.pi  # 2/(2 pi) * integral over [0, pi]


def verify_weights() -> VerificationReport:
    """Weight tables vs the quadrature oracle; spectral symbols; the
    documented discrepancies of the commonly printed tables."""
    rep = VerificationReport("weights")
    n_max = 64
    ns = np.arange(n_max + 1)
    for m in (0, 1, 2):
        oracle = _psi_hat_quadrature(m, n_max)
        table = psi_hat(m, ns)
        rep.add(f"psi{m} table vs quadrature oracle, |n| <= {n_max}",
                np.max(np.abs(table - oracle)), 1e-12)
    # tables printed for the log(4 sin^2) weight must NOT pass the oracle
    oracle1 = _psi_hat_quadrature(1, 2)
    oracle2 = _psi_hat_quadrature(2, 1)
    rep.add("printed psi1(0) = -2 log 4 rejected",
            abs(-2.0 * np.log(4.0) - oracle1[0]), 1e-6, larger_is_fail=False)
    rep.add("printed psi1(n) = -2/|n| rejected",
            abs(-2.0 - oracle1[1]), 1e-6, larger_is_fail=False)
    rep.add("printed psi2(0) = 1/2 rejected",
            abs(0.5 - oracle2[0]), 1e-6, larger_is_fail=False)
    rep.add("printed psi2(1) = -3/8 rejected",
            abs(-0.375 - oracle2[1]), 1e-6, larger_is_fail=False)
    # the production Lambda and D Lambda D matrices are circulants, so the FFT
    # of the first column is their symbol; errors are measured relative to
    # max(1, |eigenvalue|)
    N = 64
    n = np.abs(fft_modes(N))
    for label, matrix, exact in (
        ("Lambda", lambda_matrix(N),
         np.where(n == 0, np.log(2.0), 0.5 / np.maximum(n, 1))),
        ("D Lambda D", dld_matrix(N), -0.5 * n),
    ):
        err = np.abs(np.fft.fft(matrix[:, 0]) - exact) / np.maximum(1.0, np.abs(exact))
        rep.add(f"{label} symbol exactness, |n| <= {N}", np.max(err), 1e-14)
    return rep


def _circle_eig_scipy(k, n):
    n = abs(n)
    j = _sp.jv(n, k)
    jp = _sp.jvp(n, k)
    h = _sp.hankel1(n, k)
    hp = _sp.h1vp(n, k)
    lam_v = 0.5j * np.pi * j * h
    lam_k = 0.5j * np.pi * k * jp * h - 0.5
    lam_kt = 0.5j * np.pi * k * j * hp + 0.5
    lam_h = 0.5j * np.pi * k * k * jp * hp
    return lam_v, lam_k, lam_kt, lam_h


def verify_circle() -> VerificationReport:
    """Operator eigenvalues on the unit circle vs separation of variables."""
    rep = VerificationReport("circle")
    k, N, n_max = 2.0, 64, 8
    fam = OperatorFamily(make_curve("circle"), k, N)
    t = grid(N)
    groups = {
        "V plain": (fam.v_plain, 0, 1e-10),
        "K plain": (fam.k_plain, 1, 1e-10),
        "Kt plain": (fam.kt_plain, 2, 1e-10),
        "V tilde": (fam.v_tilde, 0, 1e-11),
        "K tilde": (fam.k_tilde, 1, 1e-11),
        "Kt tilde": (fam.kt_tilde, 2, 1e-11),
        "H": (fam.h_op, 3, 1e-8),
    }
    for label, (op, idx, tol) in groups.items():
        # applied from C order, so that a residual depends on the operator's
        # entries and not on its layout (each K' is a transposed view)
        op = np.ascontiguousarray(op)
        worst = 0.0
        for n in range(-n_max, n_max + 1):
            lam = _circle_eig_scipy(k, n)[idx]
            e = np.exp(1j * n * t)
            err = np.max(np.abs(op @ e - lam * e)) / abs(lam)
            worst = max(worst, err)
        rep.add(f"{label} eigenvalues |n| <= {n_max}", worst, tol)
    return rep


def _interior_source_cauchy(curve, k, N, location):
    src = PointSource(location)
    _, xb, m = grid_geometry(curve, N)
    a = src.value(k, xb)
    phi = np.sum(src.gradient(k, xb) * m, axis=-1)
    return a, phi


def verify_calderon() -> VerificationReport:
    """Green-formula residual identities on the kite, interior source."""
    rep = VerificationReport("calderon")
    k = 8.0
    curve = make_curve("kite")
    res = {}
    for N in (32, 128):
        fam = OperatorFamily(curve, k, N)
        a, phi = _interior_source_cauchy(curve, k, N, (0.1, 0.2))
        eye = np.eye(2 * N)
        r1 = np.max(np.abs((-0.5 * eye + fam.k_plain) @ a
                           - fam.v_plain @ phi))
        r2 = np.max(np.abs(fam.h_op @ a
                           - (0.5 * eye + fam.kt_plain) @ phi))
        res[N] = (r1, r2)
    rep.add("trace identity residual, N = 128", res[128][0], 1e-10)
    rep.add("conormal identity residual, N = 128", res[128][1], 1e-10)
    rep.add("trace residual decrease factor 32 -> 128",
            res[32][0] / max(res[128][0], 1e-300), 1e3, larger_is_fail=False)
    rep.add("conormal residual decrease factor 32 -> 128",
            res[32][1] / max(res[128][1], 1e-300), 1e3, larger_is_fail=False)
    return rep


def verify_extinction() -> VerificationReport:
    """Exterior Green representation: reproduces an interior source outside,
    vanishes inside."""
    rep = VerificationReport("extinction")
    k, N = 8.0, 128
    curve = make_curve("kite")
    src = PointSource((0.1, 0.2))
    a, phi = _interior_source_cauchy(curve, k, N, (0.1, 0.2))
    ev = FieldEvaluator(curve, [("sl", k, -phi), ("dl", k, a)])
    ang = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    ext = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    inner = 0.35 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    rep.add("representation error at 10 exterior points",
            np.max(np.abs(ev(ext) - src.value(k, ext))), 1e-10)
    rep.add("extinction error at 10 interior points",
            np.max(np.abs(ev(inner))), 1e-10)
    return rep


def _gmres_iterations(system):
    """GMRES iterations to 1e-10, or inf when GMRES does not reach it."""
    try:
        result = solve(system, "gmres", tol=1e-10)
    except GmresError:
        return np.inf
    return result.diagnostics.iterations


def verify_crossform() -> VerificationReport:
    """All four formulations agree pairwise in the far field (k+ = 8,
    k- = 32, plane wave) on the kite at nu = 1 and nu = 2 and on the cavity
    at nu = 0.5, and the stability of their discrete operators shows as
    GMRES counts that N = 128 and 256 share within 3 (kite, nu = 1)."""
    rep = VerificationReport("crossform")
    N = 256
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    forms = ("l1", "l2", "l3", "l4")
    for name, nu in (("kite", 1.0), ("kite", 2.0), ("cavity", 0.5)):
        curve = make_curve(name)
        prob = TransmissionProblem(curve, 8.0, 32.0, nu, PlaneWave((1.0, 0.0)))
        patterns, iterations = {}, {}
        for form in forms:
            system = assemble(form, prob, N)
            result = solve(system)
            patterns[form] = FieldEvaluator(curve, result.exterior_terms()).far_field(angles)
            if name == "kite" and nu == 1.0:
                iterations[form] = _gmres_iterations(system)
        for i, fa in enumerate(forms):
            for fb in forms[i + 1:]:
                rep.add(f"far-field gap {fa} vs {fb}, {name}, nu = {nu:g}",
                        far_field_linf_diff(patterns[fa], patterns[fb]), 1e-8)
        for form, fine in iterations.items():
            coarse = _gmres_iterations(assemble(form, prob, N // 2))
            rep.add(f"gmres iteration change {form}, N={N // 2} -> {N}",
                    abs(fine - coarse), 3)
    return rep


def _h0_errors(curve, k):
    """RMS errors of the plain and tilde single layers applied to exp(cos t)
    at N = 32, 48, 64, against the tilde single layer at N = 512."""
    n_ref = 512
    fam_ref = OperatorFamily(curve, k, n_ref)
    t_ref = grid(n_ref)
    ref = TrigPolynomial(fam_ref.v_tilde @ np.exp(np.cos(t_ref)))
    errs = {}
    for N in (32, 48, 64):
        fam = OperatorFamily(curve, k, N)
        t = grid(N)
        phi = np.exp(np.cos(t))
        target = ref.eval(t)
        errs[N] = {}
        for label, op in (("plain", fam.v_plain), ("tilde", fam.v_tilde)):
            errs[N][label] = float(
                np.linalg.norm(op @ phi - target) / np.sqrt(2 * N)
            )
    return errs


def verify_rates() -> VerificationReport:
    """Single-layer error: tilde no worse than plain, superalgebraic decay."""
    rep = VerificationReport("rates")
    errs = _h0_errors(make_curve("kite"), 8.0)
    floor = 1e-14
    for N in (32, 48, 64):
        gap = errs[N]["tilde"] - errs[N]["plain"]
        rep.add(f"tilde <= plain at N={N} (signed gap)", gap, 1e-15)
    binding = 0
    for a, b in ((32, 48), (48, 64)):
        for label in ("plain", "tilde"):
            if errs[a][label] <= 10.0 * floor:
                rep.note(
                    f"{label} N={a} already at roundoff floor "
                    f"({errs[a][label]:.2e}); decay factor not binding"
                )
                continue
            binding += 1
            rep.add(
                f"{label} error drop {a} -> {b}",
                errs[a][label] / max(errs[b][label], floor / 10.0),
                10.0, larger_is_fail=False,
            )
    # with every error at the floor no rate would be checked at all
    rep.add("binding decay factors", binding, 1, larger_is_fail=False)
    for N in (32, 48, 64):
        rep.note(f"H0 errors at N={N}: plain {errs[N]['plain']:.3e}, "
                 f"tilde {errs[N]['tilde']:.3e}")
    return rep


VERIFICATION_SUITES = {
    "weights": verify_weights,
    "circle": verify_circle,
    "calderon": verify_calderon,
    "extinction": verify_extinction,
    "crossform": verify_crossform,
    "rates": verify_rates,
}


def run_verification(suite: str) -> VerificationReport:
    """Run one named suite; raises ConfigError for unknown names."""
    try:
        fn = VERIFICATION_SUITES[suite]
    except KeyError:
        raise ConfigError(
            f"unknown suite {suite!r}; choices {sorted(VERIFICATION_SUITES)}"
        )
    return fn()

"""Dense complex direct solver, GMRES through scipy, and the dense product.

One BLAS.  numpy and scipy wheels each bundle their own OpenBLAS (numpy's
scipy-openblas64, scipy's scipy-openblas32), and each copy keeps its own
thread pool.  After a call a pool's worker keeps spinning on a core, so a
scipy LU that follows a numpy product waits for cores the other pool holds:
on two cores and two BLAS threads, the LU of a 1024 x 1024 complex matrix
took about 50 ms alone, 100-120 ms right after a numpy (512 x 512)(512 x 1024)
product and about 50 ms after the same product through scipy.  Every product
of a matrix with a matrix or a vector on the ``assemble -> solve -> far
field`` path therefore goes through ``matmul`` below, which calls scipy's
BLAS, the one that also factors and solves; ``gmres`` hands scipy's GMRES a
``LinearOperator`` over it.  Only products with a 2-vector, which OpenBLAS
runs on the calling thread, stay in numpy.

Products on worker threads stay on their thread.  OpenBLAS threads a
``zgemv`` of 1024 * GEMM_MULTITHREAD_THRESHOLD (4096) entries or more, and
its pool's worker then spins on the core that another Python worker thread
needs.  The near-field potentials, which split their points over the usable
cores, did not run faster than on one thread until their block products went
through ``serial_matmul``: the same ``matmul`` in row slices below that
threshold, so OpenBLAS runs each on the calling thread.  Each row is the
same dot product either way, so the slices change no output bit.  Every
other product keeps ``matmul`` and its threaded BLAS.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

__all__ = [
    "SingularMatrixError",
    "GmresError",
    "LUFactors",
    "lu_factor",
    "lu_solve",
    "gmres",
    "matmul",
    "serial_matmul",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Pivot collapsed to working precision during factorization."""

    def __init__(self, pivot_index: int, message: str):
        super().__init__(message)
        self.pivot_index = pivot_index


class GmresError(RuntimeError):
    """GMRES failed to reach the tolerance; carries the residual history."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = np.asarray(history)


@dataclass(frozen=True)
class LUFactors:
    """Partial-pivot LU factors of a square matrix, with the LAPACK estimate
    of its reciprocal 1-norm condition number."""

    lu: np.ndarray
    piv: np.ndarray
    rcond: float

    @property
    def shape(self):
        """Shape of the factored matrix, so np.shape() reads like the matrix's."""
        return self.lu.shape


def matmul(a, b):
    """a @ b for a matrix ``a`` and a matrix or vector ``b``, through scipy's
    BLAS (see the module docstring).

    The column-major BLAS call works on the transposes, b.T a.T = (a b).T, so
    C-contiguous operands are passed without a copy and the result is
    C-contiguous.
    """
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    dtype = np.dtype(float if real else complex)
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul needs a matrix and a matrix or vector with as "
                         f"many rows as it has columns, got shapes {a.shape} "
                         f"and {b.shape}")
    if a.size == 0 or b.size == 0:
        # what a @ b gives: no entries, or sums of nothing; gemv raises here
        return np.zeros(a.shape[:1] + b.shape[1:], dtype=dtype)
    if b.ndim == 1:
        gemv = scipy.linalg.blas.dgemv if real else scipy.linalg.blas.zgemv
        return gemv(1.0, a.T, b, trans=1)
    gemm = scipy.linalg.blas.dgemm if real else scipy.linalg.blas.zgemm
    return gemm(1.0, b.T, a.T).T


# entries of one gemv from which OpenBLAS threads it (1024 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4)
_THREADED_GEMV = 4096


def serial_matmul(a, x):
    """a @ x for a matrix ``a`` and a vector ``x``, through ``matmul`` in row
    slices of fewer than _THREADED_GEMV entries, so OpenBLAS runs each on the
    calling thread (see the module docstring).  A row of _THREADED_GEMV
    entries or more is a slice of its own, which OpenBLAS may still thread."""
    a = np.asarray(a)
    if a.ndim != 2:
        return matmul(a, x)                     # which rejects the shape
    rows = max(1, (_THREADED_GEMV - 1) // max(1, a.shape[1]))
    if a.shape[0] <= rows:
        return matmul(a, x)
    return np.concatenate([matmul(a[start:start + rows], x)
                           for start in range(0, a.shape[0], rows)])


def _usable_cores() -> int:
    """The cores this process may run on; macOS and Windows have no affinity
    call, so there it is the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _square(matrix) -> np.ndarray:
    """The matrix as a complex array; raise unless it is square and not empty."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("matrix must not be empty")
    return a


def lu_factor(matrix) -> LUFactors:
    """Factor a dense complex matrix by partial-pivot LU with a pivot guard."""
    a = _square(matrix)
    # zgecon needs the 1-norm, which is NaN or inf exactly when an entry is
    # (or when the column sums overflow), so it doubles as the finite check
    anorm = np.linalg.norm(a, 1)
    if not np.isfinite(anorm):
        raise ValueError("non-finite entries in the linear system")
    with warnings.catch_warnings():
        # the pivot guard below is the error path for singular input
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(np.max(diag), 1.0)
    worst = int(np.argmin(diag))
    if diag[worst] <= 1e-14 * scale:
        raise SingularMatrixError(
            worst, f"matrix singular to working precision at pivot {worst}"
        )
    rcond, _ = scipy.linalg.lapack.zgecon(lu, anorm, norm="1")
    return LUFactors(lu, piv, float(rcond))


def lu_solve(factors: LUFactors, rhs):
    """Solve a dense complex system from its ``lu_factor``: the two
    triangular solves."""
    b = np.asarray(rhs, dtype=complex)
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite entries in the linear system")
    return scipy.linalg.lu_solve((factors.lu, factors.piv), b, check_finite=False)


def _check_gmres(tol):
    """Raise unless tol is finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"GMRES tol must be finite and positive, got {tol}")


def gmres(matrix, b, tol: float = 1e-10):
    """scipy's GMRES from a zero initial guess, restarted only when rounding
    calls for it, with its products through ``matmul``.

    Returns ``(x, history)``: an iterate whose true relative 2-norm residual
    meets ``tol``, and the Arnoldi estimate of the relative residual after
    each iteration (``history[0]`` is 1, so ``len(history) - 1`` is the
    iteration count).  scipy checks the true residual before it reports
    success; when rounding leaves it above ``tol``, a second cycle starts
    from the first one's iterate, so the history may rise once where it
    begins.  Raises GmresError with the history if that cycle fails too.
    """
    # imported here, so that a process that solves only by LU never loads it
    import scipy.sparse.linalg as sla

    _check_gmres(tol)
    mat = _square(matrix)
    b = np.asarray(b, dtype=complex)
    n = mat.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must be a vector of length {n}, "
                         f"got shape {b.shape}")
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n, dtype=complex), np.array([0.0])

    history = [1.0]
    op = sla.LinearOperator((n, n), lambda v: matmul(mat, v), dtype=complex)
    x, info = sla.gmres(op, b, rtol=tol, atol=0.0, restart=n, maxiter=2,
                        callback=history.append, callback_type="pr_norm")
    if info != 0:
        raise GmresError(f"GMRES did not reach tol={tol:g} in {len(history) - 1} "
                         f"iterations (last estimated relative residual "
                         f"{history[-1]:.3e})", history)
    return x, np.asarray(history)

"""Dense complex direct solver, a restart-free GMRES, and the dense product.

One BLAS.  numpy and scipy wheels each bundle their own OpenBLAS (numpy's
scipy-openblas64, scipy's scipy-openblas32), and each copy keeps its own
thread pool.  After a call a pool's worker keeps spinning on a core, so a
scipy LU that follows a numpy product waits for cores the other pool holds:
on two cores and two BLAS threads, the LU of a 1024 x 1024 complex matrix
took about 50 ms alone, 100-120 ms right after a numpy (512 x 512)(512 x 1024)
product and about 50 ms after the same product through scipy.  Every product of a matrix with a matrix or a vector on the
``assemble -> solve -> far field`` path therefore goes through ``matmul``
below, which calls scipy's BLAS, the one that also factors and solves.  Only
products with a 2-vector, which OpenBLAS runs on the calling thread, stay in
numpy.
"""

from __future__ import annotations

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
    if b.ndim == 1:
        gemv = scipy.linalg.blas.dgemv if real else scipy.linalg.blas.zgemv
        return gemv(1.0, a.T, b, trans=1)
    gemm = scipy.linalg.blas.dgemm if real else scipy.linalg.blas.zgemm
    return gemm(1.0, b.T, a.T).T


def lu_factor(matrix) -> LUFactors:
    """Factor a dense complex matrix by partial-pivot LU with a pivot guard."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
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


def _check_gmres(tol, maxit=None):
    """Raise unless tol is finite and positive and maxit (if given) >= 1."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"GMRES tol must be finite and positive, got {tol}")
    if maxit is not None and not maxit >= 1:
        raise ValueError(f"GMRES maxit must be >= 1, got {maxit}")


def gmres(matrix, b, tol: float = 1e-10, maxit: int | None = None):
    """Restart-free GMRES with modified Gram-Schmidt Arnoldi, zero initial guess.

    Returns ``(x, history)``: the first iterate whose relative residual meets
    ``tol``, and the relative residual after each iteration (``history[0]``
    is 1, so ``len(history) - 1`` is the iteration count).  Raises GmresError
    with the history otherwise.
    """
    _check_gmres(tol, maxit)
    mat = np.asarray(matrix, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = b.size
    if maxit is None:
        maxit = n
    maxit = min(maxit, n)

    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros(n, dtype=complex), np.array([0.0])

    basis = [b / beta]
    hess = np.zeros((maxit + 1, maxit), dtype=complex)
    cs = np.zeros(maxit, dtype=complex)
    sn = np.zeros(maxit, dtype=complex)
    g = np.zeros(maxit + 1, dtype=complex)
    g[0] = beta
    history = [1.0]

    for j in range(maxit):
        w = matmul(mat, basis[j])
        for i in range(j + 1):
            hess[i, j] = np.vdot(basis[i], w)
            w = w - hess[i, j] * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)

        for i in range(j):
            hi, hj = hess[i, j], hess[i + 1, j]
            hess[i, j] = np.conj(cs[i]) * hi + np.conj(sn[i]) * hj
            hess[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = np.hypot(abs(hess[j, j]), abs(hess[j + 1, j]))
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = hess[j, j] / denom
            sn[j] = hess[j + 1, j] / denom
        hess[j, j] = np.conj(cs[j]) * hess[j, j] + np.conj(sn[j]) * hess[j + 1, j]
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = np.conj(cs[j]) * g[j]

        rel = abs(g[j + 1]) / beta
        history.append(min(rel, history[-1]))  # |sn| <= 1 keeps this monotone

        if rel <= tol:
            y = scipy.linalg.solve_triangular(
                hess[: j + 1, : j + 1], g[: j + 1], check_finite=False
            )
            x = np.zeros(n, dtype=complex)
            for i in range(j + 1):
                x += y[i] * basis[i]
            return x, np.asarray(history)

        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            break  # invariant subspace without convergence
        basis.append(w / norm_w)

    raise GmresError(
        f"GMRES did not reach tol={tol:g} in {maxit} iterations "
        f"(last relative residual {history[-1]:.3e})",
        history,
    )

"""Dense Nystrom matrices for the four Helmholtz boundary operators.

Every discrete operator acts on nodal vectors over the 2N-point grid.  The
product quadrature against a weight psi_m is the circulant matrix W_m (its
symbol is 2 pi psihat_m), so a weighted kernel block is the elementwise
product W_m * K with K the sampled smooth kernel factor.  Families:

    plain:  V = W1*A + W0*B,           K  = W1*(C sin^2) + W0*D
    tilde:  V~ = Lambda + W2*At + W0*B, K~ = W2*C + W0*D
    T  = W1*E + W0*F,   H = D Lambda D + T

psihat_0 is the delta at n = 0, so W0 = (pi/N) times the all-ones matrix and
is applied as that scalar; W1, W2, Lambda and D Lambda D have real even
symbols and are real matrices.  The five kernel operators V, R~, K, K~ and
T come from one pass: the first access to any of them samples one fused
factor set (see ``helmbie.kernels``), forms W1 and W2 once, expands each of
A, B, A~, C and D once and builds all five; the set lives only as long as
the pass.  The tilde single layer is stored via its smooth remainder
R~ = W2*At + W0*B so the formulations can use Lambda and R~ separately.

K' is K^T.  The kernel of K' is that of K with s and t exchanged, and on the
symmetric grid the weights are even circulants, so the Nystrom matrix of K'
is the transpose of K's: K and K~ are built together from one sampling of
C and D, and each K' is a read-only view of the transpose (Fortran-ordered,
holding no memory of its own; a caller that hands it to BLAS makes its own
C-contiguous copy, as l4 does).  W1 and W2 are symmetric only up to
rounding, so this K' differs from W*(C^T sin^2) + W0*D^T (the form kept in
the test oracles) by at most eps max|K|.

Each operator is a plain read-only ndarray, built on first access and
returned as the same object on every later one.  Matrices assemble in
O(N^2 log N); N <= 512 is the design target, so dense storage and direct
factorization are fine.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fourier import conv_matrix, dld_matrix, lambda_matrix, weight_table
from .geometry import ParametricCurve, _grid_size
from .kernels import KernelContext, KernelFactors, ef_matrices, kernel_matrix, sin2_matrix

__all__ = [
    "OperatorFamily",
    "MIN_N",
]

MIN_N = 8  # smallest grid the operators are assembled on


def _frozen(matrix):
    """The matrix made read-only: a family hands one array to every caller."""
    matrix.flags.writeable = False
    return matrix


class OperatorFamily:
    """Lazy cache of all discrete operators for one (curve, k, N) triple.

    Every operator is a read-only 2N x 2N ndarray on the 2N grid: V, R~, V~,
    K, K', K~, K~', T, H and the two spectral matrices Lambda and D Lambda D.
    """

    # every kernel is sampled on the 2N grid the operators act on; kept as a
    # constant because perfbench/spans.py keys its build spans on it
    oversample = 1

    def __init__(self, curve: ParametricCurve, k, N: int):
        self.N = N = _grid_size(N, MIN_N)
        self.ctx = KernelContext(curve, k)
        self._w0 = np.pi / N  # W0 is (pi/N) times the all-ones matrix

    @cached_property
    def lambda_mat(self):
        return _frozen(lambda_matrix(self.N))

    @cached_property
    def dld_mat(self):
        return _frozen(dld_matrix(self.N))

    @cached_property
    def _kernel_ops(self):
        """{name: operator} for V, R~, K, K~ and T, from one pass over one
        factor set of the context.

        Each weight is formed once.  K and K~ come first, from one sampling
        of C and D; then T, from the E and F of ``ef_matrices``; V and R~
        come last, from the A, B and A~ it returns with them, so that neither
        is held while it runs (the order of lowest peak memory).
        """
        N, w0 = self.N, self._w0
        w1, w2 = (conv_matrix(weight_table(m, N)) for m in (1, 2))
        factors = KernelFactors(self.ctx, N)
        c_mat, d_mat = kernel_matrix(factors, ("C", "D"), N)
        w0_d = w0 * d_mat
        ops = {"k_plain": w1 * (c_mat * sin2_matrix(N)) + w0_d,
               "k_tilde": w2 * c_mat + w0_d}
        del c_mat, d_mat, w0_d
        e_mat, f_mat, a_mat, b_mat, at_mat = ef_matrices(factors, N)
        ops["t_op"] = w1 * e_mat + w0 * f_mat
        del e_mat, f_mat
        w0_b = w0 * b_mat
        ops["v_plain"] = w1 * a_mat + w0_b
        ops["r_tilde"] = w2 * at_mat + w0_b
        return {name: _frozen(op) for name, op in ops.items()}

    @cached_property
    def v_plain(self):
        return self._kernel_ops["v_plain"]

    @cached_property
    def r_tilde(self):
        return self._kernel_ops["r_tilde"]

    @cached_property
    def v_tilde(self):
        return _frozen(self.lambda_mat + self.r_tilde)

    @cached_property
    def k_plain(self):
        return self._kernel_ops["k_plain"]

    @cached_property
    def kt_plain(self):
        """K', the transpose of K (see the module docstring)."""
        return _frozen(self.k_plain.T)

    @cached_property
    def k_tilde(self):
        return self._kernel_ops["k_tilde"]

    @cached_property
    def kt_tilde(self):
        """K~', the transpose of K~ (see the module docstring)."""
        return _frozen(self.k_tilde.T)

    @cached_property
    def t_op(self):
        return self._kernel_ops["t_op"]

    @cached_property
    def h_op(self):
        return _frozen(self.dld_mat + self.t_op)

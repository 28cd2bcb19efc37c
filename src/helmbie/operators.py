"""Dense Nystrom matrices for the four Helmholtz boundary operators.

Every discrete operator acts on nodal vectors over the 2N-point grid.  The
product quadrature against a weight psi_m is the circulant matrix W_m (its
symbol is 2 pi psihat_m), so a weighted kernel block is the elementwise
product W_m * K with K the sampled smooth kernel factor.  Families:

    plain:  V = W1*A + W0*B,           K  = W1*(C sin^2) + W0*D
    tilde:  V~ = Lambda + W2*At + W0*B, K~ = W2*C + W0*D
    T  = W1*E + W0*F,   H = D Lambda D + T

psihat_0 is the delta at n = 0, so W0 = (pi/N) times the all-ones matrix and
is applied as that scalar; W1 and W2 have real even symbols and are formed as
real matrices on each use, not kept.  All factors of one family come from
one fused kernel pass (see ``helmbie.kernels``), which the family's context
keeps.  The tilde single layer is stored via its smooth remainder
R~ = W2*At + W0*B so the formulations can use Lambda and R~ separately.

K' is K^T.  The kernel of K' is that of K with s and t exchanged, and on the
symmetric grid the weights are even circulants, so the Nystrom matrix of K'
is the transpose of K's: K and K~ are built together from one sampling of
C and D, and each K' is a contiguous copy of the transpose.  W1 and W2 are
symmetric only up to rounding, so this K' differs from W*(C^T sin^2) + W0*D^T
(the form kept in the test oracles) by at most eps max|K|.

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
from .kernels import KernelContext, ef_matrices, kernel_matrix, sin2_matrix

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

    def _kernel(self, which):
        return kernel_matrix(self.ctx, which, self.N)

    def _w(self, m):
        """W_m as a real matrix, formed on each use (0.8 ms at N = 256)
        rather than kept (2 MiB per weight and family at N = 256)."""
        return conv_matrix(weight_table(m, self.N)).real

    @cached_property
    def lambda_mat(self):
        return _frozen(lambda_matrix(self.N))

    @cached_property
    def dld_mat(self):
        return _frozen(dld_matrix(self.N))

    @cached_property
    def v_plain(self):
        return _frozen(self._w(1) * self._kernel("A")
                       + self._w0 * self._kernel("B"))

    @cached_property
    def r_tilde(self):
        return _frozen(self._w(2) * self._kernel("At") + self._w0 * self._kernel("B"))

    @cached_property
    def v_tilde(self):
        return _frozen(self.lambda_mat + self.r_tilde)

    @cached_property
    def _k_pair(self):
        """(K, K~) from one sampling of C and D: a family that builds one
        double layer builds the other with it."""
        c_mat, d_mat = self._kernel(("C", "D"))
        w0_d = self._w0 * d_mat
        return (_frozen(self._w(1) * (c_mat * sin2_matrix(self.N)) + w0_d),
                _frozen(self._w(2) * c_mat + w0_d))

    @cached_property
    def k_plain(self):
        return self._k_pair[0]

    @cached_property
    def kt_plain(self):
        """K', the transpose of K (see the module docstring)."""
        return _frozen(np.ascontiguousarray(self.k_plain.T))

    @cached_property
    def k_tilde(self):
        return self._k_pair[1]

    @cached_property
    def kt_tilde(self):
        """K~', the transpose of K~ (see the module docstring)."""
        return _frozen(np.ascontiguousarray(self.k_tilde.T))

    @cached_property
    def t_op(self):
        e_mat, f_mat = ef_matrices(self.ctx, self.N)
        return _frozen(self._w(1) * e_mat + self._w0 * f_mat)

    @cached_property
    def h_op(self):
        return _frozen(self.dld_mat + self.t_op)

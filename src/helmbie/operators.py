"""Dense Nystrom matrices for the four Helmholtz boundary operators.

Every discrete operator acts on nodal vectors over the 2N-point grid.  The
product quadrature against a weight psi_m is the circulant matrix W_m (its
symbol is 2 pi psihat_m), so a weighted kernel block is the elementwise
product W_m * K with K the sampled smooth kernel factor.  Families:

    plain:  V = W1*A + W0*B,           K  = W1*(C sin^2) + W0*D
    tilde:  V~ = Lambda + W2*At + W0*B, K~ = W2*C + W0*D
    T  = W1*E + W0*F,   H = D Lambda D + T

psihat_0 is the delta at n = 0, so W0 = (pi/N) times the all-ones matrix and
is applied as that scalar; W1 and W2 have real even symbols and are stored as
real matrices.  All factors of one family come from one fused kernel pass
(see ``helmbie.kernels``), which the family's context keeps.  The tilde
single layer is stored via its smooth remainder R~ = W2*At + W0*B so the
formulations can use Lambda and R~ separately.

K' is K^T.  The kernel of K' is that of K with s and t exchanged, and on the
symmetric grid the weights are even circulants, so the Nystrom matrix of K'
is the transpose of K's: each K is built from one sampling of C and D and
its K' is a contiguous copy of the transpose.  W1 and W2 are symmetric only
up to rounding, so this K' differs from W*(C^T sin^2) + W0*D^T (the form kept
in the test oracles) by at most eps max|K|.

Matrices assemble in O(N^2 log N) and are immutable once built; N <= 512 is
the design target, so dense storage and direct factorization are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import conv_matrix, dld_matrix, lambda_matrix, weight_table
from .geometry import ParametricCurve
from .kernels import KernelContext, ef_matrices, kernel_matrix, sin2_matrix

__all__ = [
    "DiscreteOperator",
    "OperatorFamily",
    "MIN_N",
]

MIN_N = 8  # smallest grid the operators are assembled on


@dataclass(frozen=True)
class DiscreteOperator:
    """2N x 2N complex matrix tagged with its continuous counterpart."""

    matrix: np.ndarray
    family: str           # "plain" | "tilde" | "spectral"
    continuous_id: str    # "V" | "K" | "Kt" | "H" | "T" | "R"
    k: complex
    N: int


class OperatorFamily:
    """Lazy cache of all discrete operators for one (curve, k, N) triple."""

    def __init__(self, curve: ParametricCurve, k, N: int, oversample: int = 1):
        if N < MIN_N:
            raise ValueError(f"N must be >= {MIN_N}")
        self.ctx = KernelContext(curve, k)
        self.N = N
        self.oversample = oversample
        self._w0 = np.pi / N  # W0 is (pi/N) times the all-ones matrix

    def _kernel(self, which):
        return kernel_matrix(self.ctx, which, self.N)

    @cached_property
    def _w1(self):
        return conv_matrix(weight_table(1, self.N)).real.copy()

    @cached_property
    def _w2(self):
        return conv_matrix(weight_table(2, self.N)).real.copy()

    @cached_property
    def lambda_mat(self):
        return lambda_matrix(self.N)

    @cached_property
    def dld_mat(self):
        return dld_matrix(self.N)

    def _wrap(self, matrix, family, cid):
        return DiscreteOperator(matrix, family, cid, self.ctx.k, self.N)

    @cached_property
    def v_plain(self):
        m = self._w1 * self._kernel("A") + self._w0 * self._kernel("B")
        return self._wrap(m, "plain", "V")

    @cached_property
    def r_tilde(self):
        m = self._w2 * self._kernel("At") + self._w0 * self._kernel("B")
        return self._wrap(m, "tilde", "R")

    @cached_property
    def v_tilde(self):
        return self._wrap(self.lambda_mat + self.r_tilde.matrix, "tilde", "V")

    def _k_kt(self, family, k_mat):
        """K and its transpose Kt, which is the Nystrom matrix of K'."""
        kt_mat = np.ascontiguousarray(k_mat.T)
        return self._wrap(k_mat, family, "K"), self._wrap(kt_mat, family, "Kt")

    @cached_property
    def _k_kt_plain(self):
        c_mat, d_mat = self._kernel(("C", "D"))
        k_mat = self._w1 * (c_mat * sin2_matrix(self.N)) + self._w0 * d_mat
        return self._k_kt("plain", k_mat)

    @property
    def k_plain(self):
        return self._k_kt_plain[0]

    @property
    def kt_plain(self):
        return self._k_kt_plain[1]

    @cached_property
    def _k_kt_tilde(self):
        c_mat, d_mat = self._kernel(("C", "D"))
        return self._k_kt("tilde", self._w2 * c_mat + self._w0 * d_mat)

    @property
    def k_tilde(self):
        return self._k_kt_tilde[0]

    @property
    def kt_tilde(self):
        return self._k_kt_tilde[1]

    @cached_property
    def t_op(self):
        e_mat, f_mat = ef_matrices(self.ctx, self.N, self.oversample)
        return self._wrap(self._w1 * e_mat + self._w0 * f_mat, "plain", "T")

    @cached_property
    def h_op(self):
        return self._wrap(self.dld_mat + self.t_op.matrix, "plain", "H")


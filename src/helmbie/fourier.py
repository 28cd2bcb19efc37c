"""Trigonometric interpolation and the spectral product-quadrature engine.

Degree-N trigonometric polynomials live on the uniform grid t_j = j pi/N,
j = 0..2N-1, and are stored both as nodal values and as coefficients
c_n, n = -N+1..N, kept in FFT layout; the unpaired top mode at index N is
interpreted as +N throughout (one-sided convention).

The singular quadrature weights

    psi_0 = 1
    psi_1 = log sin^2(t/2)
    psi_2 = sin^2(t/2) log sin^2(t/2)

have explicitly known Fourier coefficients under the normalization
psihat(n) = (1/2pi) int_0^{2pi} psi(t) e_{-n}(t) dt, so that

    int_0^{2pi} psi(s - t) e_n(t) dt = 2 pi psihat(n) e_n(s).

The values used here are the ones validated against an independent
quadrature oracle (see the test suite):

    psihat_1(0) = -2 log 2,         psihat_1(n) = -1/|n|
    psihat_2(0) = 1/2 - log 2,      psihat_2(+-1) = -3/8 + (log 2)/2
    psihat_2(n) = (1/4) [ 1/|n+1| + 1/|n-1| - 2/|n| ]   for |n| >= 2

which follow from log(4 sin^2(t/2)) = -2 sum_{m>=1} cos(m t)/m.  Versions of
these tables scaled for the weight log(4 sin^2(t/2)) circulate in the
literature; the quadrature-oracle test pins the normalization used here.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "TrigPolynomial",
    "fft_modes",
    "psi_hat",
    "weight_table",
    "conv_matrix",
    "lambda_symbol",
    "lambda_matrix",
    "dld_matrix",
]


def fft_modes(N: int) -> np.ndarray:
    """Mode numbers in FFT layout: [0, 1, .., N, -N+1, .., -1]."""
    n = np.fft.fftfreq(2 * N, d=1.0 / (2 * N)).astype(int)
    n[N] = N  # one-sided top mode
    return n


class TrigPolynomial:
    """Degree-N trigonometric polynomial: 2N nodal values + spectral view."""

    def __init__(self, nodal, spectral=None):
        nodal = np.asarray(nodal, dtype=complex)
        if nodal.ndim != 1 or nodal.size < 2 or nodal.size % 2 != 0:
            raise ValueError("nodal data must be a 1-d array of even length >= 2")
        self.nodal = nodal
        self.N = nodal.size // 2
        if spectral is None:
            spectral = np.fft.fft(nodal) / nodal.size
        self.spectral = np.asarray(spectral, dtype=complex)

    @classmethod
    def from_coeffs(cls, spectral) -> "TrigPolynomial":
        spectral = np.asarray(spectral, dtype=complex)
        nodal = np.fft.ifft(spectral) * spectral.size
        return cls(nodal, spectral)

    @property
    def modes(self) -> np.ndarray:
        return fft_modes(self.N)

    def coeff(self, n: int) -> complex:
        if not -self.N < n <= self.N:
            raise ValueError(f"mode {n} outside (-N, N] with N={self.N}")
        return self.spectral[n % (2 * self.N)]

    def eval(self, t):
        """Evaluate the interpolant at arbitrary points."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self.modes))
        return phases @ self.spectral

    def __len__(self):
        return self.nodal.size


def psi_hat(m: int, n):
    """Fourier coefficient psihat_m(n) of the quadrature weight psi_m."""
    n = np.asarray(n, dtype=int)
    a = np.abs(n)
    if m == 0:
        out = np.where(a == 0, 1.0, 0.0)
    elif m == 1:
        out = np.where(a == 0, -2.0 * np.log(2.0), -1.0 / np.maximum(a, 1))
    elif m == 2:
        with np.errstate(divide="ignore"):
            generic = 0.25 * (
                1.0 / np.abs(a + 1) + 1.0 / np.abs(a - 1) - 2.0 / np.maximum(a, 1)
            )
        out = np.where(
            a == 0,
            0.5 - np.log(2.0),
            np.where(a == 1, -0.375 + 0.5 * np.log(2.0), generic),
        )
    else:
        raise ValueError("weight id m must be 0, 1 or 2")
    if np.isscalar(n) or out.ndim == 0:
        return float(out)
    return out


def weight_table(m: int, N: int) -> np.ndarray:
    """Symbol psihat_m(n), -N < n <= N, in FFT layout."""
    return psi_hat(m, fft_modes(N))


def _real_circulant(symbol) -> np.ndarray:
    """Dense matrix of the Fourier multiplier with a real, even FFT-layout
    symbol: M[i, j] = (1/2N) sum_n sigma(n) exp(i n (t_i - t_j)), so that
    M g = ifft(symbol * fft(g)).  M is real, and kept as float64: the
    imaginary part of the inverse FFT is rounding only."""
    return scipy.linalg.circulant(np.fft.ifft(np.asarray(symbol, dtype=complex)).real)


def conv_matrix(table: np.ndarray) -> np.ndarray:
    """Dense quadrature-weight matrix W of the symbol 2 pi psihat_m(n):
    (W g)_i = int psi_m(s_i - t) P_N[g](t) dt for nodal values g.  The
    symbol is real and even, so W is real."""
    return _real_circulant(2.0 * np.pi * table)


def lambda_symbol(N: int) -> np.ndarray:
    """Symbol of the log-kernel convolution Lambda: log 2 at n=0, 1/(2|n|) else."""
    n = fft_modes(N)
    return np.where(n == 0, np.log(2.0), 1.0 / (2.0 * np.maximum(np.abs(n), 1)))


def lambda_matrix(N: int) -> np.ndarray:
    return _real_circulant(lambda_symbol(N))


def dld_symbol(N: int) -> np.ndarray:
    """Symbol of D Lambda D: -|n|/2, with constants annihilated."""
    return -0.5 * np.abs(fft_modes(N)).astype(float)


def dld_matrix(N: int) -> np.ndarray:
    return _real_circulant(dld_symbol(N))

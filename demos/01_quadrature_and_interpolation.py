"""Spectral building blocks: trigonometric interpolation and the singular
product quadratures.

The whole solver rests on three periodic weight functions whose Fourier
coefficients are known in closed form,

    psi_0 = 1,  psi_1 = log sin^2(t/2),  psi_2 = sin^2(t/2) log sin^2(t/2),

and on interpolation at the uniform 2N-point grid.  Each weight enters the
Nystrom matrices as one dense matrix W = conv_matrix(weight_table(m, N)),
with (W g)_i = int psi_m(s_i - t) P_N[g](t) dt.  This script shows the
geometric interpolation error decay and that W acts diagonally on Fourier
modes.
"""

import numpy as np

from helmbie import TrigPolynomial, grid, psi_hat, weight_table
from helmbie.fourier import conv_matrix, dld_matrix, lambda_matrix

print("weight coefficients (normalization: (1/2pi) int psi e_{-n})")
print(f"  psihat_1(0) = {psi_hat(1, 0):+.12f}   (= -2 log 2)")
print(f"  psihat_1(4) = {psi_hat(1, 4):+.12f}   (= -1/4)")
print(f"  psihat_2(0) = {psi_hat(2, 0):+.12f}   (= 1/2 - log 2)")
print(f"  psihat_2(1) = {psi_hat(2, 1):+.12f}   (= -3/8 + log(2)/2)")
print(f"  psihat_2(6) = {psi_hat(2, 6):+.12f}   (= (1/7 + 1/5 - 2/6)/4)")

print("\ninterpolation of g(t) = 1/(2 + cos t): L2 error vs N")
g = lambda t: 1.0 / (2.0 + np.cos(t))
fine = grid(256)
for N in (4, 8, 16, 32):
    p = TrigPolynomial(g(grid(N)))
    err = np.sqrt(np.mean(np.abs(p.eval(fine) - g(fine)) ** 2))
    print(f"  N = {N:3d}: {err:.3e}")

print("\nproduct quadrature is diagonal on Fourier modes:")
N = 16
t = grid(N)
out = conv_matrix(weight_table(1, N)) @ np.exp(2j * t)
print("  int psi_1(s-t) e_2(t) dt / e_2(s) =",
      f"{(out[3] / np.exp(2j * t[3])).real:+.12f}",
      f"(= 2 pi psihat_1(2) = {2 * np.pi * psi_hat(1, 2):+.12f})")

out0 = conv_matrix(weight_table(0, N)) @ np.cos(t) ** 2
print("  psi_0 row sums reproduce the trapezoidal rule:",
      np.allclose(out0, (np.pi / N) * np.sum(np.cos(t) ** 2)))

print("\ndiagonal spectral operators:")
delta = np.zeros(2 * N, dtype=complex)
delta[3] = 1.0
e3 = TrigPolynomial.from_coeffs(delta)
lam_e3 = TrigPolynomial(lambda_matrix(N) @ e3.nodal)
dld_e3 = TrigPolynomial(dld_matrix(N) @ e3.nodal)
print(f"  Lambda e_3 / e_3      = {lam_e3.coeff(3).real:+.10f}  (= 1/6)")
print(f"  D Lambda D e_3 / e_3  = {dld_e3.coeff(3).real:+.10f}  (= -3/2)")

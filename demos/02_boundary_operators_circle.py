"""The four boundary operators on the unit circle vs separation of variables.

On the circle every operator is diagonal on the Fourier modes with
Bessel-product eigenvalues,

    V  e_n = (i pi / 2)       J_n(k) H_n(k)  e_n
    K  e_n = ((i pi k / 2) J_n'(k) H_n(k) - 1/2) e_n
    Kt e_n = ((i pi k / 2) J_n(k) H_n'(k) + 1/2) e_n
    H  e_n = (i pi k^2 / 2)  J_n'(k) H_n'(k) e_n,

which pins the absolute accuracy of the discretizations: the plain family
(log-split) and the more accurate tilde family (Lambda-split).
"""

import numpy as np
from scipy import special as sp

from helmbie import OperatorFamily, circle, grid

k, N = 2.0, 64
fam = OperatorFamily(circle(), k, N)
t = grid(N)


def eigs(n):
    n = abs(n)
    j, jp = sp.jv(n, k), sp.jvp(n, k)
    h, hp = sp.hankel1(n, k), sp.h1vp(n, k)
    return (0.5j * np.pi * j * h,
            0.5j * np.pi * k * jp * h - 0.5,
            0.5j * np.pi * k * j * hp + 0.5,
            0.5j * np.pi * k * k * jp * hp)


ops = [("V plain", fam.v_plain, 0), ("V tilde", fam.v_tilde, 0),
       ("K plain", fam.k_plain, 1), ("K tilde", fam.k_tilde, 1),
       ("Kt plain", fam.kt_plain, 2), ("Kt tilde", fam.kt_tilde, 2),
       ("H", fam.h_op, 3)]

print(f"relative eigenvalue errors at k = {k}, N = {N}")
header = "   n  " + "".join(f"{name:>11s}" for name, _, _ in ops)
print(header)
for n in (0, 1, 2, 4, 8):
    e = np.exp(1j * n * t)
    lams = eigs(n)
    row = [f"{np.max(np.abs(op.matrix @ e - lams[idx] * e)) / abs(lams[idx]):11.1e}"
           for _, op, idx in ops]
    print(f"  {n:2d}  " + "".join(row))

print("\ncirculant structure (rotational invariance), V plain:")
col = fam.v_plain.matrix[:, 0]
shift = np.stack([np.roll(col, j) for j in range(2 * N)], axis=1)
print("  max row-shift deviation:",
      f"{np.max(np.abs(fam.v_plain.matrix - shift)):.2e}")

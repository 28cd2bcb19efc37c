"""Absolute correctness anchors on a non-trivial shape: the kite.

For u = Phi_k(. - y0) with y0 inside the curve, the exterior Calderon
projector gives two residual identities on the parameterized Cauchy data
(a, phi) = (u o x, |x'| d_n u o x):

    (-I/2 + K) a - V phi = 0
    H a - (I/2 + Kt) phi = 0

and the exterior Green representation -SL phi + DL a reproduces u outside
while extinguishing identically inside.  Both are strong whole-calculus
tests: any wrong jump sign, kernel factor, or quadrature weight breaks them
at O(1).  The operators are the read-only Nystrom matrices of an
``OperatorFamily``, applied to the nodal Cauchy data as plain products.
"""

import numpy as np

from helmbie import FieldEvaluator, OperatorFamily, grid_geometry, kite
from helmbie.formulations import PointSource

curve = kite()
k = 8.0
src = PointSource((0.1, 0.2))

print("Calderon residuals (max norm) vs N:")
for N in (16, 32, 64, 128):
    fam = OperatorFamily(curve, k, N)
    _, xb, m = grid_geometry(curve, N)
    a = src.value(k, xb)
    phi = np.sum(src.gradient(k, xb) * m, axis=-1)
    eye = np.eye(2 * N)
    r1 = np.max(np.abs((-0.5 * eye + fam.k_plain) @ a
                       - fam.v_plain @ phi))
    r2 = np.max(np.abs(fam.h_op @ a
                       - (0.5 * eye + fam.kt_plain) @ phi))
    print(f"  N = {N:4d}:  trace {r1:.3e}   conormal {r2:.3e}")

print("\nGreen representation at N = 128:")
N = 128
_, xb, m = grid_geometry(curve, N)
a = src.value(k, xb)
phi = np.sum(src.gradient(k, xb) * m, axis=-1)
ev = FieldEvaluator(curve, [("sl", k, -phi), ("dl", k, a)])

ang = np.linspace(0, 2 * np.pi, 10, endpoint=False)
outside = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
inside = 0.35 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
print("  max |representation - source| at 10 exterior points:",
      f"{np.max(np.abs(ev(outside) - src.value(k, outside))):.3e}")
print("  max |field| at 10 interior points (extinction):      ",
      f"{np.max(np.abs(ev(inside))):.3e}")

print("\nradiation limit sqrt(R) e^{-ikR} u(R x^) -> far field:")
xhat = np.array([np.cos(0.3), np.sin(0.3)])
ff = ev.far_field(np.array([0.3])).values[0]
for R in (50.0, 100.0, 200.0):
    u = ev(np.array([R * xhat]))[0]
    val = np.sqrt(R) * np.exp(-1j * k * R) * u
    print(f"  R = {R:5.0f}:  {val:+.10f}   (|gap| {abs(val - ff):.2e})")
print(f"  far_field():  {ff:+.10f}")

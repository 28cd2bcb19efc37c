"""Solving one transmission problem four ways.

A plane wave hits the kite with exterior wavenumber 8, interior wavenumber
32, impedance ratio 1.  The four formulations,

    l1  second-kind direct        (plain family)
    l2  first-kind direct         (tilde family)
    l3  regularized combined field (tilde family, principal-symbol
        regularizer at complex kappa, applied by FFTs)
    l4  single-density indirect   (plain-family compositions)

must produce the same exterior far field; their pairwise gaps, the GMRES
behavior, and a physical energy-balance check are printed below.
"""

import numpy as np

from helmbie import FieldEvaluator, far_field_linf_diff, kite
from helmbie.formulations import PlaneWave, TransmissionProblem, assemble, solve

curve = kite()
prob = TransmissionProblem(curve, 8.0, 32.0, 1.0, PlaneWave((1.0, 0.0)))
N = 160
angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)

patterns = {}
for form in ("l1", "l2", "l3", "l4"):
    result = solve(assemble(form, prob, N))
    patterns[form] = FieldEvaluator(
        curve, result.exterior_terms()
    ).far_field(angles)
    print(f"{form}: solved  (lu residual {result.diagnostics.residual:.1e},"
          f" {result.diagnostics.seconds:.2f} s)")

print("\npairwise far-field gaps (max over 360 directions):")
names = sorted(patterns)
for i, fa in enumerate(names):
    for fb in names[i + 1:]:
        gap = far_field_linf_diff(patterns[fa], patterns[fb])
        print(f"  {fa} vs {fb}: {gap:.2e}")

# at N = 64 the k- = 32 kernel is not resolved and the counts drift; from
# N = 128 on they no longer grow with N
print("\nGMRES iteration counts at tol 1e-10, maxit 4N:")
print("        N = 128   N = 160")
counts = {(form, n): solve(assemble(form, prob, n), "gmres", tol=1e-10,
                           maxit=4 * n).diagnostics.iterations
          for n in (128, N) for form in ("l1", "l2", "l3", "l4")}
for form in ("l1", "l2", "l3", "l4"):
    print(f"  {form}: {counts[form, 128]:9d} {counts[form, N]:9d}")
print("  (regularization clusters the l3 spectrum: far fewer iterations than l2)")

print("\nenergy flux through a circle of radius 6 (lossless medium -> 0):")
ev = FieldEvaluator(curve, solve(assemble("l1", prob, N)).exterior_terms())
M, R = 720, 6.0
th = np.linspace(0, 2 * np.pi, M, endpoint=False)
xh = np.stack([np.cos(th), np.sin(th)], axis=-1)
pts = R * xh
h = 1e-3
dup = (ev(pts + h * xh) - ev(pts - h * xh)) / (2 * h)
up = ev(pts)
ui = prob.incident.value(8.0, pts)
dui = np.sum(prob.incident.gradient(8.0, pts) * xh, axis=-1)
flux_total = np.imag(np.sum(np.conj(ui + up) * (dui + dup))) * 2 * np.pi * R / M
flux_scat = np.imag(np.sum(np.conj(up) * dup)) * 2 * np.pi * R / M
print(f"  scattered-only flux (outgoing power): {flux_scat:+.6f}")
print(f"  total-field flux (conservation):      {flux_total:+.2e}")

"""Move the branch points: deformation equations and the tau function.

Everything that varies when a branch point moves is available in closed
form: the period matrix derivative, the residue-matrix equations, the
Hamiltonians generating them, and the tau function itself as
(det A)^(-1/2) prod (lam_m - lam_n)^(-1/8) times a theta constant.  Each
closed form is checked against a finite difference here, and a
characteristic dragged along with the branch point shows what breaking
the constancy of the monodromy data does.
"""

import numpy as np

from rhtheta.hyperelliptic import HyperellipticCurve, compute_periods
from rhtheta.isomonodromy import (
    hamiltonians,
    rauch_check,
    schlesinger_residuals,
    tau_closed_form,
    tau_gradient_check,
    thomae_ratios,
)
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar

pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
char = ThetaChar((0.11,), (-0.23,))
sol = RHSolution(pd, char, 1.5 + 1.1j)

print("period matrix derivative, finite difference vs closed form:")
for m in range(4):
    print(f"  branch point {m}: {rauch_check(sol, m):.2e}")

hs = hamiltonians(sol)
print("\nHamiltonians (closed form vs squared trace of the residues):")
for m, (a, b) in enumerate(zip(hs.values, hs.contour_values)):
    print(f"  H{m} = {a:+.10f}   squared trace {abs(a - b):.1e}")
print(f"sum of Hamiltonians: {abs(hs.values.sum()):.2e} (a global scaling "
      f"changes nothing)")

ev = tau_closed_form(sol)
print(f"\ntau      = {ev.value:+.12f}")
print(f"  factor = {ev.factor:+.12f}  theta = {ev.theta_factor:+.12f}")
for m in range(4):
    print(f"  d ln tau / d lambda_{m} vs H_{m}: "
          f"{tau_gradient_check(sol, m):.2e}")

odd = tau_closed_form(pd, ThetaChar((0.5,), (0.5,)))
print(f"on the theta divisor: |tau| = {abs(odd.value):.2e} while the "
      f"curve factor stays at {abs(odd.factor):.4f}")

print(f"\nThomae ratios (fourth powers over the branch point products):")
print("  ", np.round(thomae_ratios(pd).real, 12))

print("\ndeformation equations for the residue matrices, moving point 0:")
res = schlesinger_residuals(sol, 0)
for n, r in enumerate(res):
    print(f"  equation for A{n}: {r:.2e}")
drift = schlesinger_residuals(sol, 0, char_drift=20.0)
print(f"negative control (characteristic dragged with the point): "
      f"{np.max(drift):.2f}")

"""Theta functions with characteristics on a computed period matrix.

Demonstrates the lattice-shift multiplier, the parity of half-integer
characteristics, the derivative consistency between the B direction and
the z Hessian, and the search for an odd nonsingular characteristic,
which later pins down the prime form.
"""

import numpy as np

from rhtheta.hyperelliptic import HyperellipticCurve, compute_periods
from rhtheta.theta import (
    ThetaChar,
    find_odd_nonsingular_char,
    theta,
    theta_derivs,
)

pd = compute_periods(HyperellipticCurve(
    [-2.1 - 0.3j, -1.2 + 0.8j, -0.2 - 0.9j, 0.9 + 0.7j, 1.8 - 0.5j,
     2.4 + 0.9j]))
B = pd.B
g = 2

ch = ThetaChar((0.07, -0.19), (0.31, 0.12))
z = np.array([0.21 - 0.08j, -0.33 + 0.14j])
print(f"theta[p,q](z|B) = {theta(z, B, ch):.12f}")

# shifting z by a lattice vector multiplies the value by a known factor
n, m = np.array([1, -1]), np.array([0, 2])
p, q = ch.arrays()
mult = np.exp(2j * np.pi * (p @ n - q @ m)
              - 1j * np.pi * m @ B @ m - 2j * np.pi * m @ z)
lhs = theta(z + n + B @ m, B, ch)
rhs = mult * theta(z, B, ch)
print(f"lattice shift residual     {abs(lhs - rhs) / abs(rhs):.2e}")

# half-integer characteristics split by parity; odd ones vanish at z = 0
even = odd = 0
for a in range(4):
    for b in range(4):
        half = ThetaChar((a // 2 / 2, a % 2 / 2), (b // 2 / 2, b % 2 / 2))
        if half.parity() == 1:
            even += 1
        else:
            odd += 1
            assert abs(theta(np.zeros(g), B, half)) < 1e-12
print(f"half characteristics       {even} even, {odd} odd")

# moving B in a symmetric direction is the z Hessian, scaled
ev = theta_derivs(z, B, ch)
h = 1e-5
dB = np.zeros((g, g))
dB[0, 1] = dB[1, 0] = h
fd = (theta(z, B + dB, ch) - theta(z, B - dB, ch)) / (2 * h)
want = 2 * ev.hess[0, 1] / (4j * np.pi)
print(f"B-direction derivative     fd vs closed {abs(fd - want):.2e}")

star, grad = find_odd_nonsingular_char(B)
print(f"odd nonsingular char       p*={star.p} q*={star.q}, "
      f"|grad| = {np.linalg.norm(grad):.4f}")

"""Riemann theta functions with characteristics, to certified accuracy.

theta[p,q](z|B) = sum over n in Z^g of
    exp(pi i (n+p).B(n+p) + 2 pi i (n+p).(z+q))

for a symmetric g x g matrix B with positive definite imaginary part.  The
lattice sum is truncated to a box around the Gaussian center of the summand
with a radius certified from the smallest eigenvalue of Im B, so values,
gradients, and Hessians come out with near machine accuracy or the call
fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRiemannMatrix, TruncationOverflow

# Hard cap on the per-axis summation radius; reached only for nearly
# degenerate period matrices where the series is numerically hopeless.
MAX_RADIUS = 40.0


@dataclass(frozen=True)
class ThetaChar:
    """Characteristic [p, q]; entries are arbitrary reals, half-integers
    for the characteristics attached to spin structures."""

    p: tuple
    q: tuple

    @classmethod
    def zero(cls, g):
        return cls((0.0,) * g, (0.0,) * g)

    @classmethod
    def from_arrays(cls, p, q):
        return cls(tuple(float(x) for x in p), tuple(float(x) for x in q))

    @property
    def g(self):
        return len(self.p)

    def arrays(self):
        return np.array(self.p, dtype=float), np.array(self.q, dtype=float)

    def parity(self):
        """+1 for even, -1 for odd half-integer characteristics."""
        e = 4.0 * np.dot(self.p, self.q)
        if abs(e - round(e)) > 1e-12:
            raise ValueError("parity is defined for half-integer characteristics")
        return -1 if round(e) % 2 else 1

    def shifted(self, n, m):
        return ThetaChar(tuple(np.array(self.p) + np.asarray(n)),
                         tuple(np.array(self.q) + np.asarray(m)))


@dataclass
class ThetaEvaluation:
    value: complex
    grad: np.ndarray
    hess: np.ndarray
    radius: float


def _check_riemann_matrix(B):
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise NotRiemannMatrix("period matrix must be square")
    if np.max(np.abs(B - B.T)) > 1e-8 * max(1.0, np.max(np.abs(B))):
        raise NotRiemannMatrix("period matrix not symmetric")
    lam_min = np.linalg.eigvalsh(B.imag).min()
    if lam_min <= 0:
        raise NotRiemannMatrix("Im B not positive definite")
    return B, lam_min


def _lattice(z, B, p, q, lam_min, tol):
    """Integer summation box certified against the Gaussian tail."""
    Y = B.imag
    radius = np.sqrt((-np.log(tol) + 8.0) / (np.pi * lam_min))
    if radius > MAX_RADIUS:
        raise TruncationOverflow(
            f"summation radius {radius:.1f} exceeds cap {MAX_RADIUS}; "
            "period matrix too close to degenerate")
    center = -np.linalg.solve(Y, np.imag(z) + np.imag(q)) - p
    axes = [np.arange(int(np.floor(c - radius)), int(np.ceil(c + radius)) + 1)
            for c in center]
    grids = np.meshgrid(*axes, indexing="ij")
    n = np.vstack([gr.ravel() for gr in grids])
    return n, radius


def _shifted_terms(z, B, char, tol):
    """Summands of theta[p,q](z|B) over the certified lattice box.

    Returns (m, terms, scale, radius): the shifted lattice points
    m = n + p as columns, the summands divided by ``scale``, which keeps
    the largest of them at modulus one, and the summation radius.
    """
    z = np.asarray(z, dtype=complex).ravel()
    B, lam_min = _check_riemann_matrix(B)
    g = len(z)
    if char is None:
        char = ThetaChar.zero(g)
    p, q = char.arrays()
    n, radius = _lattice(z, B, p, q, lam_min, tol)
    m = n + p[:, None]
    expo = (1j * np.pi * np.einsum("ak,ab,bk->k", m, B, m)
            + 2j * np.pi * m.T @ (z + q))
    shift = expo.real.max()
    return m, np.exp(expo - shift), np.exp(shift), radius


def theta_derivs(z, B, char=None, tol=1e-14):
    """Value, gradient, and Hessian of theta[p,q] at z.

    Derivatives are exact term-by-term sums, never finite differences.
    """
    m, terms, scale, radius = _shifted_terms(z, B, char, tol)
    value = scale * terms.sum()
    u = 2j * np.pi * m
    grad = scale * (u @ terms)
    hess = scale * np.einsum("ak,bk,k->ab", u, u, terms)
    return ThetaEvaluation(value=value, grad=grad, hess=hess, radius=radius)


def theta(z, B, char=None, tol=1e-14):
    """Value of theta[p,q](z|B)."""
    _, terms, scale, _ = _shifted_terms(z, B, char, tol)
    return scale * terms.sum()


def half_characteristics(g):
    """All 4^g half-integer characteristics, lexicographic in (p, q)."""
    vals = (0.0, 0.5)
    out = []
    for bits in range(4 ** g):
        digits = []
        b = bits
        for _ in range(2 * g):
            digits.append(vals[b % 2])
            b //= 2
        p = tuple(digits[:g][::-1])
        q = tuple(digits[g:][::-1])
        out.append(ThetaChar(p, q))
    return out


def find_odd_nonsingular_char(B, tol_nonsingular=1e-8):
    """First odd half-integer characteristic with nonvanishing gradient.

    The gradient of an odd theta at the origin supplies the square-root
    differential entering the scalar prime form; it must be nonzero for
    that construction to make sense.
    """
    B, _ = _check_riemann_matrix(B)
    g = B.shape[0]
    best = None
    for ch in half_characteristics(g):
        if ch.parity() != -1:
            continue
        ev = theta_derivs(np.zeros(g), B, ch)
        norm = np.linalg.norm(ev.grad)
        if norm > tol_nonsingular:
            return ch
        if best is None or norm > best[0]:
            best = (norm, ch)
    from .errors import NoOddNonsingularChar
    raise NoOddNonsingularChar(
        f"all odd characteristics have gradient below {tol_nonsingular:g} "
        f"(best {best[0]:.2e})")

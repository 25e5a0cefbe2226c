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

from .errors import NoOddNonsingularChar, NotRiemannMatrix, TruncationOverflow

# Hard cap on the per-axis summation radius; reached only for nearly
# degenerate period matrices where the series is numerically hopeless.
MAX_RADIUS = 40.0
# Most summands, lattice points times stacked points, held at once.
_MAX_TERMS = 1 << 20


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


def _lattice(zq, B, p, lam_min, tol):
    """Integer summation box certified against the Gaussian tail; stacked
    points share one box holding each point's own box."""
    Y = B.imag
    radius = np.sqrt((-np.log(tol) + 8.0) / (np.pi * lam_min))
    if radius > MAX_RADIUS:
        raise TruncationOverflow(
            f"summation radius {radius:.1f} exceeds cap {MAX_RADIUS}; "
            "period matrix too close to degenerate")
    center = -np.linalg.solve(Y, np.imag(zq)).T - p     # a row per point
    lo, hi = ((center.min(axis=0), center.max(axis=0)) if center.ndim > 1
              else (center, center))
    axes = [np.arange(int(np.floor(a - radius)), int(np.ceil(b + radius)) + 1)
            for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    n = np.vstack([gr.ravel() for gr in grids])
    return n, radius


def _shifted_terms(z, B, char, tol):
    """Summands of theta[p,q](z|B) over the certified lattice box.

    Yields (m, terms, scale, radius): the shifted lattice points
    m = n + p as columns, the summands divided by ``scale``, which keeps
    the largest of them at modulus one, and the summation radius.  For
    stacked points z of shape (g, N), terms and scale gain a last axis
    over the points, and the stack is halved into consecutive slices, one
    yield each, until no box holds more than ``_MAX_TERMS`` summands.
    """
    z = np.asarray(z, dtype=complex)
    z = z if z.ndim == 2 else z.ravel()
    B, lam_min = _check_riemann_matrix(B)
    p, q = (char or ThetaChar.zero(z.shape[0])).arrays()
    todo = [(z.T + q).T]
    while todo:
        zq = todo.pop(0)
        n, radius = _lattice(zq, B, p, lam_min, tol)
        if 1 < zq[0].size and _MAX_TERMS < n.shape[1] * zq[0].size:
            todo[:0] = np.array_split(zq, 2, axis=1)
            continue
        m = n + p[:, None]
        expo = (1j * np.pi * np.einsum("ak,ab,bk->k", m, B, m)
                + (2j * np.pi * m.T @ zq).T).T
        shift = expo.real.max(axis=0)
        yield m, np.exp(expo - shift), np.exp(shift), radius


def theta_derivs(z, B, char=None, tol=1e-14):
    """Value, gradient, and Hessian of theta[p,q] at z.

    Derivatives are exact term-by-term sums, never finite differences.
    Stacked points z, shape (g, N), share one check of B; value, grad and
    hess gain a last axis: (N,), (g, N), (g, g, N).
    """
    parts = []
    for m, terms, scale, radius in _shifted_terms(z, B, char, tol):
        u = 2j * np.pi * m
        parts.append((scale * terms.sum(axis=0), scale * (u @ terms),
                      scale * np.einsum("ak,bk,k...->ab...", u, u, terms)))
    value, grad, hess = (x[0] if len(x) == 1 else np.concatenate(x, axis=-1)
                         for x in zip(*parts))
    return ThetaEvaluation(value=value, grad=grad, hess=hess, radius=radius)


def theta(z, B, char=None, tol=1e-14):
    """Value of theta[p,q](z|B); one value per point for stacked z."""
    vals = [scale * terms.sum(axis=0)
            for _, terms, scale, _ in _shifted_terms(z, B, char, tol)]
    return vals[0] if len(vals) == 1 else np.concatenate(vals)


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
    raise NoOddNonsingularChar(
        f"all odd characteristics have gradient below {tol_nonsingular:g} "
        f"(best {best[0]:.2e})")

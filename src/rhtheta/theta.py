"""Riemann theta functions with characteristics, to certified accuracy.

theta[p,q](z|B) = sum over n in Z^g of
    exp(pi i (n+p).B(n+p) + 2 pi i (n+p).(z+q))

for a symmetric g x g matrix B with positive definite imaginary part
Y = Im B.  What depends on B alone (the check of B, the summation radius
and a lattice template) is computed once by ``ThetaContext``; a call only
shifts the template to its points.  The scheme follows Deconinck, Heil,
Bobenko, van Hoeij and Schmies, "Computing Riemann theta functions",
Math. Comp. 73 (2004): ellipsoid truncation, enumerated on the Cholesky
factor of Y.

Truncation.  With ||v||_Y = sqrt(v.Yv) and c = -Y^-1 Im z - p, the modulus
of the summand of n is exp(-pi ||n - c||_Y^2) times a factor common to all
n.  Let lam be the smallest eigenvalue of Y and

    r = sqrt((-log tol + 8) / (pi lam)),   R = sqrt(lam) r,

(r capped at MAX_RADIUS).  Every sum covers the certified ellipsoid
E(c) = {n : ||n - c||_Y <= R}, which lies in the box |n_i - c_i| <= r
because ||v||_Y >= sqrt(lam) |v|.  A discarded summand has ||n - c||_Y > R,
so it is below exp(-pi R^2) = e^-8 tol times the peak of the envelope.  For
their sum, split the discarded points into the shells
pi R^2 + j < pi ||n - c||_Y^2 <= pi R^2 + j + 1, j = 0, 1, ...  Shell j
lies in the box |n_i - c_i| <= r_j = sqrt(r^2 + (j + 1) / (pi lam)), so it
holds at most (2 r_j + 1)^g points, each below e^-j e^-8 tol times the
peak; the whole tail is therefore at most

    e^-8 tol sum_j e^-j (2 r_j + 1)^g

times the peak, which bounds the points outside any box of half width r
around c as well.

Covering.  The template is K = {k in Z^g : ||k||_Y <= R + delta}, where
delta = max over the 2^g corners v of [-1/2, 1/2]^g of ||v||_Y.  For a
centre c let a = round(c), so f = c - a lies in that cube.  For n in E(c),

    ||n - a||_Y <= ||n - c||_Y + ||f||_Y <= R + delta,

since ||.||_Y is convex and so peaks on the cube at a corner.  Hence
a + K contains E(c) for every c.  K is enumerated once per B by
Fincke-Pohst on Y = U^T U, U upper triangular:
||Uk||^2 = sum_i (U_ii k_i + sum_{j>i} U_ij k_j)^2, so once k_{i+1..g}
are fixed, k_i ranges over an interval, from the last coordinate down.

Evaluation.  A call sums over all of a + K, which holds E(c) and the
points of the margin delta.  With A = a + p, the shifted lattice point is
m = A + k and the exponent splits as

    pi i k.Bk + k.W + const,   W = 2 pi i (B A + z + q),
                               const = pi i A.BA + 2 pi i A.(z + q),

where pi i k.Bk is stored with the template, so a point costs one product
of the template with W and one exponential per template point.
Derivatives are moments of the summands e_k:
grad = 2 pi i sum m e_k = 2 pi i (A S0 + S1) and
hess = (2 pi i)^2 (A A^T S0 + A S1^T + S1 A^T + S2) with S_j the j-th
moment of k; a call sums them only up to the order asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NoOddNonsingularChar, NotRiemannMatrix, TruncationOverflow

# Hard cap on the per-axis summation radius; reached only for nearly
# degenerate period matrices where the series is numerically hopeless.
MAX_RADIUS = 40.0
# Most summands, template points times stacked points, held at once (a
# single point holds its whole template); slices this small stay in cache,
# which made stacked g2/g3 calls 1.5-1.8x faster than slices of 2^20.
_MAX_TERMS = 1 << 14


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
    """Value and derivatives; grad is None below order 1, hess below 2."""

    value: complex
    grad: np.ndarray
    hess: np.ndarray
    radius: float


def _ellipsoid_points(U, rho):
    """Integer points k, as rows, with |Uk| <= rho for upper triangular U
    (Fincke-Pohst, all branches of one coordinate at a time)."""
    k = np.zeros((1, 0), dtype=np.int64)
    # padded so that rounding drops no point on the boundary
    left = np.array([rho * rho * (1.0 + 1e-12)])
    for i in range(U.shape[0] - 1, -1, -1):
        s = k @ U[i, i + 1:]
        mid = -s / U[i, i]
        half = np.sqrt(np.maximum(left, 0.0)) / U[i, i]
        lo = np.ceil(mid - half).astype(np.int64)
        count = np.floor(mid + half).astype(np.int64) - lo + 1
        rows = np.repeat(np.arange(len(lo)), count)
        ki = lo[rows] + np.arange(len(rows)) - np.repeat(
            np.cumsum(count) - count, count)
        left = left[rows] - (U[i, i] * ki + s[rows]) ** 2
        k = np.column_stack([ki, k[rows]])
    return k


class ThetaContext:
    """Everything the theta sums need from one period matrix B: B checked,
    the summation radius and the lattice template (see the module
    docstring), built once and shared by every call with this B."""

    def __init__(self, B, tol=1e-14):
        B = np.asarray(B, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise NotRiemannMatrix("period matrix must be square")
        if np.max(np.abs(B - B.T)) > 1e-8 * max(1.0, np.max(np.abs(B))):
            raise NotRiemannMatrix("period matrix not symmetric")
        lam_min = np.linalg.eigvalsh(B.imag).min()
        if lam_min <= 0:
            raise NotRiemannMatrix("Im B not positive definite")
        radius = np.sqrt((-np.log(tol) + 8.0) / (np.pi * lam_min))
        if radius > MAX_RADIUS:
            raise TruncationOverflow(
                f"summation radius {radius:.1f} exceeds cap {MAX_RADIUS}; "
                "period matrix too close to degenerate")
        self.tol = tol
        self.radius = radius
        # the symmetric part has the same quadratic form, and the shift of
        # the exponent by A needs B symmetric
        self.B = 0.5 * (B + B.T)
        Y = self.B.imag
        self.Y_inv = np.linalg.inv(Y)
        corners = np.array(list(itertools.product((-0.5, 0.5),
                                                  repeat=len(B))))
        delta = np.sqrt(np.einsum("ka,ab,kb->k", corners, Y, corners).max())
        k = _ellipsoid_points(np.linalg.cholesky(Y).T,
                              np.sqrt(lam_min) * radius + delta)
        self.k = k.astype(float)
        self.quad = 1j * np.pi * np.einsum("ka,ab,kb->k", self.k, self.B,
                                           self.k)
        self.kk = (self.k[:, :, None] * self.k[:, None, :]).reshape(len(k), -1)


def _real_times_complex(a, b):
    """a @ b for real a and complex b, as one real product with b's real
    and imaginary parts interleaved; numpy would copy a to complex."""
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _sums(z, B, char, tol, order):
    """Value and, up to ``order``, gradient and Hessian of theta[p,q] at z
    (g,) or at stacked points (g, N), summed over the template of B.

    Stacked points are summed in slices of at most ``_MAX_TERMS`` summands.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order {order} is not 0, 1 or 2")
    ctx = B if isinstance(B, ThetaContext) else ThetaContext(B, tol)
    if tol != ctx.tol:
        raise ValueError(f"tolerance {tol:g} differs from the context's "
                         f"{ctx.tol:g}")
    z = np.asarray(z, dtype=complex)
    zq = z if z.ndim == 2 else z.reshape(-1, 1)
    g, n = zq.shape
    p, q = (char or ThetaChar.zero(g)).arrays()
    zq = zq + q[:, None]
    A = np.rint(-ctx.Y_inv @ zq.imag - p[:, None]) + p[:, None]
    BA = ctx.B @ A
    W = 2j * np.pi * (BA + zq)
    const = 1j * np.pi * (A * (BA + 2.0 * zq)).sum(axis=0)
    sums = [np.empty((g ** j, n), dtype=complex) for j in range(order + 1)]
    step = max(1, _MAX_TERMS // len(ctx.k))
    for lo in range(0, n, step):
        sl = slice(lo, lo + step)
        expo = ctx.quad[:, None] + _real_times_complex(ctx.k, W[:, sl])
        shift = expo.real.max(axis=0)
        terms = np.exp(expo - shift)
        scale = np.exp(const[sl] + shift)
        sums[0][0, sl] = scale * terms.sum(axis=0)
        for j, moment in enumerate((ctx.k, ctx.kk)[:order], start=1):
            sums[j][:, sl] = scale * _real_times_complex(moment.T, terms)
    value = sums[0][0]
    u = 2j * np.pi
    grad = hess = None
    if order >= 1:
        s1 = sums[1]
        grad = u * (A * value + s1)
    if order >= 2:
        hess = u * u * (A[:, None] * A[None, :] * value + A[:, None] * s1[None]
                        + s1[:, None] * A[None, :] + sums[2].reshape(g, g, n))
    if z.ndim != 2:
        value = value[0]
        grad = None if grad is None else grad[:, 0]
        hess = None if hess is None else hess[:, :, 0]
    return ThetaEvaluation(value=value, grad=grad, hess=hess,
                           radius=ctx.radius)


def theta_derivs(z, B, char=None, tol=1e-14, order=2):
    """Value, gradient, and Hessian of theta[p,q] at z.

    B is the period matrix or its ``ThetaContext``.  Derivatives are exact
    term-by-term sums, never finite differences, summed only up to
    ``order``.  Stacked points z, shape (g, N), share one template; value,
    grad and hess gain a last axis: (N,), (g, N), (g, g, N).
    """
    return _sums(z, B, char, tol, order)


def theta(z, B, char=None, tol=1e-14):
    """Value of theta[p,q](z|B); one value per point for stacked z."""
    return _sums(z, B, char, tol, order=0).value


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
    """First odd half-integer characteristic with nonvanishing gradient,
    and that gradient at the origin.

    The gradient of an odd theta at the origin supplies the square-root
    differential entering the scalar prime form; it must be nonzero for
    that construction to make sense.  B is the period matrix or its
    ``ThetaContext``.
    """
    ctx = B if isinstance(B, ThetaContext) else ThetaContext(B)
    g = ctx.B.shape[0]
    best = None
    for ch in half_characteristics(g):
        if ch.parity() != -1:
            continue
        grad = theta_derivs(np.zeros(g), ctx, ch, order=1).grad
        norm = np.linalg.norm(grad)
        if norm > tol_nonsingular:
            return ch, grad
        if best is None or norm > best[0]:
            best = (norm, ch)
    raise NoOddNonsingularChar(
        f"all odd characteristics have gradient below {tol_nonsingular:g} "
        f"(best {best[0]:.2e})")

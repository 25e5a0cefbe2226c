"""Szego and Bergmann kernels, the prime form, subset characteristics, and
the projective connection of a hyperelliptic curve.

Everything is expressed through theta functions on the Jacobian.  The
scalar ingredients are

* an odd nonsingular half characteristic [p*, q*], whose gradient at the
  origin combines with the normalized differentials into the polynomial
  Q(lambda) = sum_beta (A^-1 grad)_beta lambda^(beta-1);
* the half differential h with h^2 = Q(lambda)/w, fixed per point by the
  principal square root; up to sign h = const * prod_m (lambda -
  lambda_m)^e_m (``h_exponents``), so a path continues it by its winding
  about the branch points;
* the Abel map kept on the universal cover, so theta quotients with
  different characteristics stay consistent between calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    CharOnThetaDivisor,
    CoincidentPoints,
    LoopConstructionFailed,
    RelationViolated,
)
from .theta import (ThetaChar, find_odd_nonsingular_char, half_characteristics,
                    theta, theta_derivs)


# Gates of the Riemann-constant scan, relative to the theta scale, and of
# the subset half characteristics, absolute.
_SCAN_TOL = 1e-6
_SUBSET_TOL = 1e-8


def _sheet_sign(sheet):
    return 1.0 if sheet == 1 else -1.0


def riemann_constant(periods):
    """Vector of Riemann constants for the Abel map based at the first
    branch point.

    For this basepoint the constant is the half period K with
    theta(K + U(D)) = 0 over all (g-1)-element branch point divisors D
    (Mumford, Tata II, IIIa): a loser stops at its first non-vanishing D,
    and the scan insists on a unique winner.  Each |theta| is divided by
    its growth exp(pi y.Y^-1 y), y = Im z, Y = Im B, before the gate."""
    g = periods.curve.genus
    B, ctx = periods.B, periods.theta_context
    n_pts = len(periods.curve.points)
    U = [periods.abel(branch_index=m) for m in range(n_pts)]
    divisors = [sum((U[m] for m in D), np.zeros(g, dtype=complex))
                for D in itertools.combinations(range(n_pts), g - 1)]
    gate = _SCAN_TOL * abs(theta(np.zeros(g), ctx))

    def vanishes(z):
        y = z.imag
        return abs(theta(z, ctx)) * np.exp(-np.pi * y @ ctx.Y_inv @ y) < gate

    halves = [B @ p + q
              for p, q in map(ThetaChar.arrays, half_characteristics(g))]
    winners = [K for K in halves if all(vanishes(K + d) for d in divisors)]
    if len(winners) != 1:
        raise RelationViolated(
            f"riemann constant scan found {len(winners)} candidates")
    return winners[0]


def even_subset_characteristics(periods):
    """Half characteristics of branch point subsets of size g+1 through the
    basepoint.

    Each subset T (taken with the Riemann constant) solves
    B p + q = sum_{m in T} U(m) - K for half-integer p, q; the resulting
    characteristics are even and their theta constants nonzero.  Returns
    ((T, char), ...) in lexicographic subset order, computed on first use
    and kept on the period data, so a curve pays for one Riemann-constant
    scan.
    """
    if periods._even_subsets is not None:
        return periods._even_subsets
    g = periods.curve.genus
    B = periods.B
    K = riemann_constant(periods)
    n_pts = len(periods.curve.points)
    U = [periods.abel(branch_index=m) for m in range(n_pts)]
    out = []
    for T in itertools.combinations(range(n_pts), g + 1):
        if T[0] != 0:
            continue
        z = sum((U[m] for m in T), np.zeros(g, dtype=complex)) - K
        p = 0.5 * np.rint(2.0 * np.linalg.solve(B.imag, z.imag))
        q = 0.5 * np.rint(2.0 * (z - B @ p).real)
        res = z - (B @ p + q)
        if np.max(np.abs(res)) > _SUBSET_TOL:
            raise RelationViolated(
                f"subset {T} does not give a half characteristic "
                f"(residual {np.max(np.abs(res)):.2e})")
        ch = ThetaChar.from_arrays(np.mod(p, 1.0), np.mod(q, 1.0))
        if ch.parity() != 1:
            raise RelationViolated(f"subset {T} characteristic is odd")
        if abs(theta(np.zeros(g), periods.theta_context, ch)) < _SUBSET_TOL:
            raise RelationViolated(f"subset {T} theta constant vanishes")
        out.append((T, ch))
    periods._even_subsets = tuple(out)
    return periods._even_subsets


class KernelContext:
    """Kernel machinery of one curve and one twist characteristic.

    The twist characteristic [p, q] is arbitrary real; its theta constant
    must not vanish.  The odd half characteristic and everything derived
    from it is fixed by the curve alone.
    """

    def __init__(self, periods, char=None):
        self.periods = periods
        g = periods.curve.genus
        self.char = char if char is not None else ThetaChar.zero(g)
        ctx = periods.theta_context
        self.odd_char, self.gstar = find_odd_nonsingular_char(ctx)
        # Q(lambda) = sum_beta coeff_beta lambda^beta, coefficients in
        # ascending order; h^2 = Q/w.  Q and theta[*] vanish at g-1 branch
        # points, where h has exponent +1/4; it has -1/4 at the others
        self.q_coeffs = periods.C @ self.gstar
        Q = np.abs(self.q_poly(periods.curve.points))
        divisor = Q <= 1e-8 * np.max(Q)
        if divisor.sum() != g - 1:
            raise RelationViolated(f"Q vanishes at {divisor.sum()} branch "
                                   f"points, not {g - 1}")
        self.h_exponents = np.where(divisor, 0.25, -0.25)
        self.theta0 = theta(np.zeros(g), ctx, self.char)
        scale = abs(theta(np.zeros(g), ctx))
        if abs(self.theta0) < 1e-8 * scale:
            raise CharOnThetaDivisor(
                "theta constant of the twist characteristic vanishes")
        # isomonodromy.bergmann_pair_residue values, by branch index
        self._pair_residues = {}

    # -- scalar ingredients --------------------------------------------

    def q_poly(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros_like(lam)
        for c in self.q_coeffs[::-1]:
            out = out * lam + c
        return out

    def h_squared(self, lam, sheet=1):
        return self.q_poly(lam) / self.periods.curve.w(lam, sheet)

    def h(self, lam, sheet=1):
        """Per point half differential; sign fixed by the principal root."""
        return np.sqrt(self.h_squared(lam, sheet))

    def abel(self, point):
        """Abel value of (lambda, sheet); sheet 2 negates the sheet-1 value,
        which the period data keeps."""
        return self.periods.abel(point[0], sheet=int(point[1]))

    # -- kernels ---------------------------------------------------------

    def prime_form(self, P, Q):
        """Scalar prime form (the half differentials at both points taken
        with their per point signs)."""
        if abs(P[0] - Q[0]) < 1e-12 * self.periods.curve.scale and P[1] == Q[1]:
            raise CoincidentPoints("prime form needs distinct points")
        zeta = self.abel(P) - self.abel(Q)
        return (theta(zeta, self.periods.theta_context, self.odd_char)
                / (self.h(*P) * self.h(*Q)))

    def szego(self, P, Q):
        """Szego kernel with the twist characteristic, per point h signs."""
        zeta = self.abel(P) - self.abel(Q)
        num = theta(zeta, self.periods.theta_context, self.char)
        den = theta(zeta, self.periods.theta_context, self.odd_char)
        return num * self.h(*P) * self.h(*Q) / (self.theta0 * den)

    def log_hess_odd(self, zeta):
        """Hessian of log theta[odd] at zeta, also at stacked points (g, N)."""
        ev = theta_derivs(zeta, self.periods.theta_context, self.odd_char)
        return (ev.hess / ev.value
                - ev.grad[:, None] * ev.grad[None, :] / ev.value ** 2)

    def log_hess_char_at_zero(self):
        g = self.periods.curve.genus
        ev = theta_derivs(np.zeros(g), self.periods.theta_context, self.char)
        return ev.hess / ev.value - np.outer(ev.grad, ev.grad) / ev.value ** 2

    def bergmann(self, P, Q):
        """Second kernel w(P,Q): symmetric, double pole on the diagonal,
        holomorphic elsewhere, vanishing a periods."""
        zeta = self.abel(P) - self.abel(Q)
        vP = self.periods.differentials(P[0], _sheet_sign(P[1]))[:, 0]
        vQ = self.periods.differentials(Q[0], _sheet_sign(Q[1]))[:, 0]
        return -vP @ self.log_hess_odd(zeta) @ vQ

    def fay_residual(self, xs, ys):
        """Relative defect of the determinant identity for the kernel.

        det S(x_i, y_j) equals the theta quotient at sum U(x)-U(y) times
        the prime form cross ratio.  Per point sign choices drop out.
        """
        n = len(xs)
        S = np.array([[self.szego(x, y) for y in ys] for x in xs])
        det = np.linalg.det(S)
        g = self.periods.curve.genus
        z = sum((self.abel(x) for x in xs), np.zeros(g, dtype=complex)) \
            - sum((self.abel(y) for y in ys), np.zeros(g, dtype=complex))
        rhs = theta(z, self.periods.theta_context, self.char) / self.theta0
        for i in range(n):
            for j in range(i + 1, n):
                rhs *= self.prime_form(xs[i], xs[j])
                rhs *= self.prime_form(ys[j], ys[i])
        for i in range(n):
            for j in range(n):
                rhs /= self.prime_form(xs[i], ys[j])
        scale = max(abs(det), abs(rhs), 1e-30)
        return abs(det - rhs) / scale

    # -- h continuation --------------------------------------------------

    def continue_h_along(self, pieces):
        """Continue the half differential along sheet tagged pieces from its
        principal value at the first point.  Its phase turns by sum_m e_m
        darg_m, e_m = ``h_exponents`` and darg_m the angle the path sweeps
        about branch point m; the end value is the root of the end sheet's
        h^2 nearer that phase.  Returns (start value, end value)."""
        za, zb, s = np.array(pieces, dtype=complex).T
        pts = self.periods.curve.points[:, None]
        turn = self.h_exponents @ np.angle((zb - pts) / (za - pts)).sum(axis=1)
        start = self.h(za[0], 1 if s[0].real > 0 else 2)
        end = self.h(zb[-1], 1 if s[-1].real > 0 else 2)
        u = end / abs(end) * abs(start) / start * np.exp(-1j * turn)
        if u.real < 0:
            end, u = -end, -u
        # u is 1 up to rounding when the end sheet's tag is right
        if not abs(u - 1.0) <= 0.5:
            raise LoopConstructionFailed(
                f"spinor continuation to {zb[-1]:.4g} ends off both roots "
                f"(phase gap {abs(u - 1.0):.3g})")
        return start, end

    # -- projective connection --------------------------------------------

    def projective_connection_at_branch_point(self, m, subset=None):
        """Value at branch point m, in the local coordinate x^2 = lam - lam_m.

        The x^-2 divergences of the Schwarzian of lam(x) and of the squared
        logarithmic derivative of the subset cross ratio cancel exactly, and
        the square root in the differentials cancels against the quadratic
        pairing, so the limit is a rational expression in the branch points
        plus a theta Hessian term.  The result is independent of the subset
        choice.
        """
        pd = self.periods
        curve = pd.curve
        if subset is None:
            subset = even_subset_characteristics(pd)[0]
        T, ch = subset
        ev = theta_derivs(np.zeros(curve.genus), pd.theta_context, ch)
        dd = ev.hess / ev.value
        lam_m = curve.points[m]
        side = 1.0 if m in T else -1.0
        cross = 0.0
        prodp = 1.0
        for n, pn in enumerate(curve.points):
            if n == m:
                continue
            eta = side * (1.0 if n in T else -1.0)
            cross += eta / (lam_m - pn)
            prodp *= lam_m - pn
        P = pd.numerators(lam_m)
        return 3.0 * cross - 24.0 * (P @ dd @ P) / prodp

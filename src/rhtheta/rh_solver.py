"""Explicit 2x2 solution of Riemann-Hilbert problems with off-diagonal
quasi-permutation monodromies.

The solution matrix is built from the twisted kernel of a hyperelliptic
curve: entry (k, j) is the kernel between the moving point on sheet j+1
and the normalization point on sheet k+1, times the scalar prime factor
(lambda - lambda_0).  Every value is a germ continued from the
normalization point along a deterministic cut-avoiding route, so the
matrix is normalized to the identity at lambda_0, has determinant one
everywhere, and its logarithmic derivative is a single-valued rational
matrix function with simple poles at the branch points.  ``psi`` and
``psi_pair`` take one point or a stack of points: every point gets its own
route and spinor continuation, and a stack shares one Abel integral over
all its routes and one theta evaluation per characteristic.

The spinor h is const * prod_m (lambda - lambda_m)^e_m up to sign, and
the exponents e_m = ``KernelContext.h_exponents`` fix its continuation, its
logarithmic derivative and the divisor case of the residues.  h^2 on sheet
2 is exactly -h^2 on sheet 1, so h continued along the sign-flipped pieces
of a path is a constant +-i, fixed at the normalization point, times the
sheet-1 continuation; each path continues h once.

Monodromy matrices come from continuing both columns around explicit
basepointed loops; each continued column lands on the other sheet with a
period-lattice shift and a spinor sign, and those data give the nonzero
entries in closed form; the Abel integrals of all loops share one stacked
call.  Residue matrices come in closed form from theta
values and derivatives at the Abel images of the branch points.

Psi_lambda Psi^-1 does not depend on the germ: another lattice shift of
the Abel value or spinor sign multiplies Psi on the right by a constant
matrix, which cancels.  So residues, Hamiltonians and ``ode_matrix`` route
no germ, and lambda_0 enters them only through U(lambda_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import validate_quasi_perm
from .errors import (InconsistentLayout, LatticeExtractionFailed,
                     LoopConstructionFailed, RelationViolated, SingularPoint)
from .geometry import point_segment_distance, split_polyline
from .hyperelliptic import reference_node
from .kernels import KernelContext
from .quadrature import integrate_pieces
# theta itself is not called here; the benchmark tracer patches every
# `from .x import y` binding and asserts that this one exists
from .theta import theta, theta_derivs  # noqa: F401

# Radius of a monodromy loop as a fraction of the distance from its branch
# point to the nearest other marked point; the first entry also sets the
# exclusion radius spurs keep from foreign branch points, so the ladder
# only shrinks.
_LOOP_FACTORS = (0.3, 0.24, 0.18, 0.14)
# Multipliers on the exclusion radius, retried when a spur grazes a cut.
_SPUR_WIDENINGS = (1.0, 1.25, 0.8, 0.65)
# Offsets of the loop entry vertex from the basepoint direction, in radians.
# The chord aims straight at the branch point, which keeps it on the
# fan-correct side of every other point; nonzero fallbacks only move a
# chord that grazes a cut, and the splice side stays order-controlled.
_ENTRY_SKEWS = (0.0, 0.35, -0.35, 0.7)


@dataclass
class PsiEvaluation:
    """Solution matrix at one point together with its germ bookkeeping."""

    lam: complex
    matrix: np.ndarray
    route_vertices: list
    abel_value: np.ndarray
    spinor_values: tuple


@dataclass
class MonodromyColumn:
    """Continuation record of one column around one loop.

    The lattice integers decompose the continued Abel value against the
    germ on the arrival sheet; sigma is the spinor sign picked up along
    the way.  Under the fixed layout these are also the intersection
    indexes entering the closed-form monodromy entry.
    """

    start_sheet: int
    end_sheet: int
    a_index: np.ndarray      # integer coefficients of the plain lattice part
    b_index: np.ndarray      # integer coefficients of the period-matrix part
    sigma: int
    lattice_residual: float


@dataclass
class MonodromyResult:
    index: int
    vertices: list
    matrix: np.ndarray
    columns: list
    permutation: tuple = ()
    entries: np.ndarray = None


@dataclass
class ResidueSet:
    matrices: np.ndarray     # shape (M, 2, 2)
    exponents: np.ndarray    # eigenvalues per point, shape (M, 2)
    sum_norm: float


class RHSolution:
    """Riemann-Hilbert solution normalized at a regular basepoint.

    Rows are indexed by the germ sheet at the normalization point and
    columns by the sheet carrying the moving point.  The twist
    characteristic (p, q) parametrizes the nonzero monodromy entries; its
    theta constant must stay off the theta divisor.
    """

    def __init__(self, periods, char, lambda0, kernel=None):
        self.kc = kernel if kernel is not None else KernelContext(periods, char)
        self.periods = self.kc.periods
        self.curve = self.periods.curve
        z0 = complex(lambda0)
        guard = 1e-6 * self.curve.scale
        if min(abs(z0 - p) for p in self.curve.points) < guard:
            raise SingularPoint(
                "normalization point coincides with a branch point")
        for cut in self.curve.cuts:
            if point_segment_distance(z0, *cut) < guard:
                raise SingularPoint("normalization point sits on a cut")
        self.lambda0 = z0
        self.U0 = self.periods.abel(z0, sheet=1)
        self.h0 = (self.kc.h(z0, 1), self.kc.h(z0, 2))
        # h on sheet 2 continues as this constant times h on sheet 1
        self._flip = 1j if abs(self.h0[1] - 1j * self.h0[0]) \
            < abs(self.h0[1] + 1j * self.h0[0]) else -1j
        self._germ_cache = {}
        self._residue_matrices = None
        self._residue_set = None

    # -- germs ----------------------------------------------------------

    def _germ(self, lam):
        """Abel value and both spinor germs at lam, continued from the
        normalization point along the deterministic cut-avoiding route.

        lam is one point or a stack (N,); a stack returns U1 (g, N), h1 and
        h2 (N,) and the list of routes.  Every new point gets its own route,
        sheet check and spinor continuation, and all share one stacked Abel
        integral; each value is the same alone or among many, and kept."""
        zs = [complex(z) for z in np.ravel(lam)]
        new = [z for z in dict.fromkeys(zs) if z not in self._germ_cache]
        routes, paths, spinors = [], [], []
        for z in new:
            verts = self.periods.sheet1_route(self.lambda0, z)
            pieces, events = split_polyline(self.curve.cuts, verts,
                                            closed=False)
            if len(events) % 2:
                raise LoopConstructionFailed("germ route crossed a cut")
            _, h1 = self.kc.continue_h_along(
                [(a, b, 1.0) for a, b in zip(verts, verts[1:])])
            routes.append(verts)
            paths.append(pieces)
            spinors.append(h1)
        if new:
            dU = integrate_pieces(
                lambda z, s: self.periods.differentials(z, s), paths)
            for z, d, h1, verts in zip(new, dU, spinors, routes):
                self._germ_cache[z] = (self.U0 + d, h1, self._flip * h1, verts)
        germs = [self._germ_cache[z] for z in zs]
        if np.ndim(lam) == 0:
            return germs[0]
        U1 = np.array([germ[0] for germ in germs], dtype=complex)
        return (U1.reshape(-1, self.curve.genus).T,
                np.array([germ[1] for germ in germs], dtype=complex),
                np.array([germ[2] for germ in germs], dtype=complex),
                [germ[3] for germ in germs])

    def _check_regular(self, z, derivative=False):
        if min(abs(z - p) for p in self.curve.points) < 1e-9 * self.curve.scale:
            raise SingularPoint(f"evaluation at a branch point ({z:.6g})")
        if derivative and abs(z - self.lambda0) < 1e-9 * self.curve.scale:
            raise SingularPoint(
                "analytic derivative is assembled away from the basepoint")

    # -- evaluation -------------------------------------------------------

    def psi(self, lam):
        """Solution matrix at lam; identity at the normalization point.

        lam is one point, giving (2, 2), or a stack (N,), giving (N, 2, 2)
        from one stacked germ integral and one ``_assemble``."""
        zs = np.ravel(np.asarray(lam, dtype=complex))
        out = np.empty((len(zs), 2, 2), dtype=complex)
        base = np.abs(zs - self.lambda0) < 1e-12 * self.curve.scale
        out[base] = np.eye(2)
        moving = zs[~base]
        for z in moving:
            self._check_regular(z)
        if len(moving):
            U1, h1, h2, _ = self._germ(moving)
            out[~base] = self._assemble(moving, U1, (h1, h2))[0]
        return out if np.ndim(lam) else out[0]

    def psi_eval(self, lam):
        z = complex(lam)
        self._check_regular(z)
        U1, h1, h2, verts = self._germ(z)
        return PsiEvaluation(z, self.psi(z), verts, U1, (h1, h2))

    def _assemble(self, zs, U1, hs):
        """Psi and its analytic lambda derivative, (N, 2, 2) each, at points
        zs (N,) from their sheet-1 Abel values U1 (g, N) and spinor values
        hs = (h1, h2).  The derivative differentiates the theta arguments
        through the normalized differentials and the scalar factors through
        the logarithmic derivative of the spinor, sum_m e_m / (lambda -
        lambda_m) with e_m = ``h_exponents``; no finite differences.  Theta
        stacks run over the points only, never over entries."""
        kc, ctx = self.kc, self.periods.theta_context
        zs = np.asarray(zs, dtype=complex)
        v1 = self.periods.differentials(zs)
        hlog = kc.h_exponents @ (1.0 / (zs - self.curve.points[:, None]))
        dz = zs - self.lambda0
        psi = np.empty((len(zs), 2, 2), dtype=complex)
        dpsi = np.empty_like(psi)
        for j, sgn in enumerate((1.0, -1.0)):
            # entry (1, 1 - j) sits at -zeta with column sign -sgn; theta[odd]
            # is odd, so es and rest of entry (0, j) serve it too
            zeta = sgn * U1 - self.U0[:, None]
            es = theta_derivs(zeta, ctx, kc.odd_char, order=1)
            rest = hlog - sgn * (v1 * es.grad).sum(axis=0) / es.value
            for k, col, s in ((0, j, 1.0), (1, 1 - j, -1.0)):
                ec = theta_derivs(s * zeta, ctx, kc.char, order=1)
                c = hs[col] * self.h0[k] / (kc.theta0 * s * es.value)
                psi[:, k, col] = dz * ec.value * c
                dpsi[:, k, col] = c * (ec.value * (1.0 + dz * rest) + dz
                                       * s * sgn * (v1 * ec.grad).sum(axis=0))
        return psi, dpsi

    def psi_pair(self, lam):
        """Matrix and its analytic lambda derivative in one pass, at one
        point or a stack (N,) of them, as ``psi``."""
        zs = np.ravel(np.asarray(lam, dtype=complex))
        for z in zs:
            self._check_regular(z, derivative=True)
        U1, h1, h2, _ = self._germ(zs)
        psi, dpsi = self._assemble(zs, U1, (h1, h2))
        return (psi, dpsi) if np.ndim(lam) else (psi[0], dpsi[0])

    def ode_matrix(self, lam):
        """Logarithmic derivative; a rational function with simple poles
        at the branch points, independent of germ conventions, so it is
        assembled from the kept Abel value of lam and principal spinors."""
        z = complex(lam)
        self._check_regular(z, derivative=True)
        hs = (self.kc.h(z, 1), self.kc.h(z, 2))
        psi, dpsi = self._assemble([z], self.periods.abel(z)[:, None], hs)
        return (dpsi @ np.linalg.inv(psi))[0]

    # -- monodromy loops --------------------------------------------------

    def _clear_radius(self, i):
        """Exclusion radius around branch point i for spur construction."""
        p = self.curve.points[i]
        dist = min(min(abs(p - q) for j, q in enumerate(self.curve.points)
                       if j != i), abs(p - self.lambda0))
        return _LOOP_FACTORS[0] * dist

    def _spur(self, n, entry, widen):
        """Straight chord from the basepoint to the loop entry, with an arc
        spliced around every other branch point whose exclusion disk the
        chord enters.  The arc passes a point on its counterclockwise side
        exactly when that point comes earlier in the basepoint order, which
        is the side a straight ray at the target's own angle takes; the
        spurs therefore stay homotopic to a non-crossing fan."""
        z0 = self.lambda0
        d = entry - z0
        length = abs(d)
        u = d / length
        order = self.basepoint_order()
        splices = []
        for i, pj in enumerate(self.curve.points):
            if i == n:
                continue
            rad = widen * self._clear_radius(i)
            w = (pj - z0) / u
            if not (0.0 < w.real < length):
                continue
            off = w.imag
            if abs(off) >= rad:
                continue
            half = np.sqrt(rad * rad - off * off)
            t_in, t_out = w.real - half, w.real + half
            side = 1.0 if order.index(i) < order.index(n) else -1.0
            a_in = np.angle(z0 + t_in * u - pj)
            a_out = np.angle(z0 + t_out * u - pj)
            pole = np.angle(side * 1j * u)
            d1 = (pole - a_in + np.pi) % (2.0 * np.pi) - np.pi
            d2 = (a_out - pole + np.pi) % (2.0 * np.pi) - np.pi
            phis = np.concatenate([a_in + d1 * np.linspace(0.0, 1.0, 6)[1:],
                                   pole + d2 * np.linspace(0.0, 1.0, 6)[1:-1]])
            splices.append((t_in, [pj + rad * np.exp(1j * f) for f in phis]))
        splices.sort(key=lambda s: s[0])
        spur = [z0]
        for _, arc in splices:
            spur.extend(arc)
        spur.append(entry)
        return spur

    def loop_vertices(self, n):
        """Basepointed polyline encircling branch point n once,
        counterclockwise: spur out, 16-gon, spur reversed."""
        p = self.curve.points[n]
        others = [q for i, q in enumerate(self.curve.points) if i != n]
        dist = min(min(abs(p - q) for q in others), abs(p - self.lambda0))
        last = None
        for rf in _LOOP_FACTORS:
            r = rf * dist
            for skew in _ENTRY_SKEWS:
                ang0 = np.angle(self.lambda0 - p) + skew
                th = ang0 + 2.0 * np.pi * np.arange(16) / 16
                circle = list(p + r * np.exp(1j * th))
                entry = circle[0]
                for widen in _SPUR_WIDENINGS:
                    try:
                        spur = self._spur(n, entry, widen)
                        verts = (spur + circle[1:] + [entry]
                                 + list(reversed(spur))[1:])
                        split_polyline(self.curve.cuts, verts, closed=False)
                        return verts
                    except LoopConstructionFailed as exc:
                        last = exc
        raise LoopConstructionFailed(
            f"no clear loop around branch point {n}: {last}")

    def _continue_columns(self, *loops):
        """Continue both columns along each basepointed polyline.

        Returns, per polyline, one MonodromyColumn per starting sheet.  The
        Abel integrals of all polylines share one stacked call, and each
        continues the spinor once: the second column's Abel value is the
        exact negative of the first's, and its spinor, continued along the
        sign-flipped pieces, the constant ``_flip`` times it.
        """
        splits = [split_polyline(self.curve.cuts, verts, closed=False,
                                 start_sign=1.0) for verts in loops]
        dUs = integrate_pieces(lambda z, s: self.periods.differentials(z, s),
                               [pieces for pieces, _ in splits], tol=1e-12)
        out = []
        for (pieces, events), dU in zip(splits, dUs):
            flips = len(events) % 2
            _, h_end = self.kc.continue_h_along(pieces)
            h_ends = (h_end, self._flip * h_end)
            cols = []
            for j in range(2):
                sign = 1.0 if j == 0 else -1.0
                U_end = sign * (self.U0 + dU)
                end_sheet = (j + flips) % 2
                germ = self.U0 if end_sheet == 0 else -self.U0
                nvec, mvec, res = self.periods.lattice_decompose(U_end - germ)
                resid = float(np.max(np.abs(res)))
                if resid > 1e-7:
                    raise LatticeExtractionFailed(
                        f"continued Abel value off the lattice by {resid:.2e}")
                ratio = h_ends[j] / self.h0[end_sheet]
                sigma = int(np.rint(ratio.real))
                if abs(ratio - sigma) > 1e-6 or sigma not in (-1, 1):
                    raise LatticeExtractionFailed(
                        f"spinor continuation drifted ({ratio:.8f})")
                cols.append(MonodromyColumn(
                    start_sheet=j + 1, end_sheet=end_sheet + 1,
                    a_index=nvec, b_index=mvec, sigma=sigma,
                    lattice_residual=resid))
            out.append(cols)
        return out

    def _matrix(self, cols):
        """Monodromy matrix of a loop's continued columns."""
        p, q = self.kc.char.arrays()
        ps, qs = self.kc.odd_char.arrays()
        M = np.zeros((2, 2), dtype=complex)
        for j, col in enumerate(cols):
            phase = (p - ps) @ col.a_index - (q - qs) @ col.b_index
            M[col.end_sheet - 1, j] = col.sigma * np.exp(2j * np.pi * phase)
        return M

    def continued_monodromy(self, verts):
        """Monodromy factor of an arbitrary basepointed loop."""
        cols, = self._continue_columns(verts)
        M = self._matrix(cols)
        validate_quasi_perm(M)
        return M, cols

    def _monodromies(self, ns):
        """Monodromy results of the loops around branch points ns, their
        Abel integrals in one stacked call."""
        loops = [self.loop_vertices(n) for n in ns]
        out = []
        for n, verts, cols in zip(ns, loops, self._continue_columns(*loops)):
            M = self._matrix(cols)
            perm, entries = validate_quasi_perm(M)
            out.append(MonodromyResult(index=n, vertices=verts, matrix=M,
                                       columns=cols, permutation=perm,
                                       entries=entries))
        return out

    def monodromy(self, n):
        return self._monodromies([n])[0]

    def monodromies(self):
        return self._monodromies(range(len(self.curve.points)))

    def basepoint_order(self):
        """Loop indices sorted by angle around the normalization point,
        starting after the widest angular gap; composing the loops in this
        order contracts to a loop around everything, which carries trivial
        monodromy."""
        ang = np.array([np.angle(p - self.lambda0)
                        for p in self.curve.points])
        order = list(np.argsort(ang, kind="stable"))
        gaps = [(ang[order[(k + 1) % len(order)]] - ang[order[k]])
                % (2.0 * np.pi) for k in range(len(order))]
        start = (int(np.argmax(gaps)) + 1) % len(order)
        return order[start:] + order[:start]

    def monodromy_product(self, results=None):
        """Ordered product of all monodromies and its defect from the
        identity; the first loop in basepoint order acts first."""
        if results is None:
            results = self.monodromies()
        order = self.basepoint_order()
        total = np.eye(2, dtype=complex)
        for n in order:
            total = results[n].matrix @ total
        defect = float(np.max(np.abs(total - np.eye(2))))
        return total, defect, order

    # -- closed-form monodromy --------------------------------------------

    def predict_monodromy(self, n, data=None):
        """Monodromy of loop n from its layout data alone.

        The entry of column j sits on the arrival sheet's row and equals
        the spinor parity times the exponential of the lattice indexes
        paired with the shifted characteristics.
        """
        if data is None:
            data = self.monodromy(n).columns
        p, q = self.kc.char.arrays()
        ps, qs = self.kc.odd_char.arrays()
        M = np.zeros((2, 2), dtype=complex)
        for j, col in enumerate(data):
            phase = (p + ps) @ col.a_index - (q + qs) @ col.b_index
            parity = col.sigma
            M[col.end_sheet - 1, j] = parity * np.exp(2j * np.pi * phase)
        return M

    def check_layout(self, n, tol=1e-6, data=None):
        """Compare the closed-form and continued monodromies of loop n.

        Layout data measured on one solution can be injected to check a
        solution with a different twist characteristic on the same curve.
        """
        result = self.monodromy(n)
        predicted = self.predict_monodromy(n, data or result.columns)
        defect = float(np.max(np.abs(predicted - result.matrix)))
        if defect > tol:
            raise InconsistentLayout(
                f"loop {n}: closed form deviates by {defect:.2e}")
        return defect

    # -- residues ---------------------------------------------------------

    def _closed_residues(self):
        """Residue matrices (M, 2, 2) from theta data at U_m = U(lambda_m).

        With x^2 = lambda - lambda_m, row r of column 1 of Psi is h0_r h
        (lambda - lambda0) / theta0 times theta[p,q] / theta[*] at U -/+ U0,
        U = U_m + alpha c x + O(x^3), c = ``numerators(lambda_m)``.  With T,
        S the values of theta[p,q], theta[*] at U_m -/+ U0, primes derivatives
        along c, the quotient is a + alpha b x + O(x^2), a = T/S, b = (T' -
        a S')/S, and h is x^(-1/2) times an even function.  Where the h
        exponent is +1/4, S = 0: a = T/S', b = (T' - a S''/2)/S', the
        expansion is divided by alpha x and h is x^(1/2) times one.  Column 2
        is column 1 at -x up to a constant; lattice shifts only rescale
        columns.  So Psi = G (lambda - lambda_m)^diag(-1/4, 1/4) K e, G
        holomorphic, K constant, e scalar, G(lambda_m) = N = [[h0_1 a_0, h0_1
        b_0], [h0_2 a_1, h0_2 b_1]] up to column scales, and the residue is
        N diag(-1/4, 1/4) N^-1 (Kitaev & Korotkin, IMRN 1998; Deift, Its,
        Kapaev & Zhou, CMP 1999)."""
        if self._residue_matrices is None:
            kc, pd, pts = self.kc, self.periods, self.curve.points
            divisor = kc.h_exponents > 0
            Um = np.stack([pd.abel(branch_index=m) for m in range(len(pts))], 1)
            c = np.stack([pd.numerators(p) for p in pts], 1)
            N = np.empty((len(pts), 2, 2), dtype=complex)
            for r, sgn in enumerate((1.0, -1.0)):
                zeta = Um - sgn * self.U0[:, None]
                et = theta_derivs(zeta, pd.theta_context, kc.char, order=1)
                es = theta_derivs(zeta, pd.theta_context, kc.odd_char, order=2)
                dS = (c * es.grad).sum(axis=0)
                # first two Taylor coefficients of theta[*] along c
                s0 = np.where(divisor, dS, es.value)
                s1 = np.where(divisor, 0.5 * np.einsum("an,abn,bn->n", c,
                                                       es.hess, c), dS)
                a = et.value / s0
                b = ((c * et.grad).sum(axis=0) - a * s1) / s0
                N[:, r] = self.h0[r] * np.stack([a, b], axis=-1)
            self._residue_matrices = N * [-0.25, 0.25] @ np.linalg.inv(N)
        return self._residue_matrices

    def residue(self, n):
        """Residue matrix of Psi_lambda Psi^-1 at branch point n, checked
        against ``ode_matrix`` at the reference node of the branch point."""
        err = self.ode_residual(reference_node(self.curve.points, n))
        if not err <= 1e-8:
            raise RelationViolated(f"residues miss ode_matrix at the reference "
                                   f"node of branch point {n} by {err:.2e}")
        return self._closed_residues()[n]

    def residues(self):
        """Checked residues at every branch point, computed once and kept."""
        if self._residue_set is None:
            mats = np.array([self.residue(n)
                             for n in range(len(self.curve.points))])
            eig = np.sort_complex(np.linalg.eigvals(mats))
            self._residue_set = ResidueSet(
                matrices=mats, exponents=eig,
                sum_norm=float(np.max(np.abs(mats.sum(axis=0)))))
        return self._residue_set

    def ode_residual(self, lam, residue_set=None):
        """Defect of the rational form of the logarithmic derivative at a
        test point, relative to max(1, |Psi_lambda Psi^-1|), with the closed
        form residues unless a residue set is given; small values certify
        the residues and the derivative at once."""
        mats = (self._closed_residues() if residue_set is None
                else residue_set.matrices)
        ode = self.ode_matrix(lam)
        rational = np.einsum("kij,k->ij", mats,
                             1.0 / (complex(lam) - self.curve.points))
        return float(np.max(np.abs(ode - rational))
                     / max(1.0, np.max(np.abs(ode))))

"""Explicit 2x2 solution of Riemann-Hilbert problems with off-diagonal
quasi-permutation monodromies.

The solution matrix is built from the twisted kernel of a hyperelliptic
curve: entry (k, j) is the kernel between the moving point on sheet j+1
and the normalization point on sheet k+1, times the scalar prime factor
(lambda - lambda_0).  Every value is a germ continued from the
normalization point along a deterministic cut-avoiding route, so the
matrix is normalized to the identity at lambda_0, has determinant one
everywhere, and its logarithmic derivative is a single-valued rational
matrix function with simple poles at the branch points.

h^2 on sheet 2 is exactly -h^2 on sheet 1, so h continued along the
sign-flipped pieces of a path is a constant +-i, fixed at the normalization
point, times the sheet-1 continuation; each path continues h once.

Monodromy matrices come from continuing both columns around explicit
basepointed loops; each continued column lands on the other sheet with a
period-lattice shift and a spinor sign, and those data give the nonzero
entries in closed form.  Residue matrices are contour integrals of the
logarithmic derivative around the branch points.

Psi_lambda Psi^-1 does not depend on the germ: another lattice shift of
the Abel value or spinor sign multiplies Psi on the right by a constant
matrix, which cancels.  So a residue circle routes one germ, at one node;
sheet-tracked hops out of the branch point give every node its Abel value,
the spinors take principal values, and the circle is assembled in batch
by the same stacked assembler that serves single points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covering import validate_quasi_perm
from .errors import (InconsistentLayout, LatticeExtractionFailed,
                     LoopConstructionFailed, QuadratureFailure, RoutingFailure,
                     SingularPoint)
from .geometry import point_segment_distance, split_polyline
from .kernels import KernelContext
from .quadrature import integrate_circle, integrate_pieces
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
# Phase offset of residue-circle nodes, so no node starts on a cut line;
# the circle integrals of the deformation checks use it too.
_CIRCLE_PHASE = 0.37


def _circle_abel(periods, m, rho, routed):
    """Reference node of the circle of radius rho around branch point m, and
    the sheet-1 Abel values (g, N), up to lattice vectors, of nodes zs on it,
    hopped from the value ``routed`` gives at that node when a batch runs."""
    z_ref = periods.curve.points[m] + rho * np.exp(1j * _CIRCLE_PHASE)
    return z_ref, lambda zs: periods.abel_near_branch(m, zs, z_ref,
                                                      routed(z_ref))


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
        self._residue_cache = {}

    # -- germs ----------------------------------------------------------

    def _germ(self, z):
        """Abel value and both spinor germs at z, continued from the
        normalization point along the deterministic cut-avoiding route."""
        key = complex(z)
        if key in self._germ_cache:
            return self._germ_cache[key]
        verts = self.periods.sheet1_route(self.lambda0, key)
        dU, end_sign = self.periods.continue_abel(verts, closed=False)
        if end_sign != 1.0:
            raise LoopConstructionFailed("germ route crossed a cut")
        U1 = self.U0 + dU
        pieces = [(a, b, 1.0) for a, b in zip(verts, verts[1:])]
        _, h1 = self.kc.continue_h_along(pieces)
        out = (U1, h1, self._flip * h1, verts)
        self._germ_cache[key] = out
        return out

    def _check_regular(self, z):
        if min(abs(z - p) for p in self.curve.points) < 1e-9 * self.curve.scale:
            raise SingularPoint(f"evaluation at a branch point ({z:.6g})")

    # -- evaluation -------------------------------------------------------

    def psi(self, lam):
        """Solution matrix at lam; identity at the normalization point."""
        z = complex(lam)
        if abs(z - self.lambda0) < 1e-12 * self.curve.scale:
            return np.eye(2, dtype=complex)
        self._check_regular(z)
        U1, h1, h2, _ = self._germ(z)
        psi, _ = self._assemble([z], U1[:, None], (h1, h2))
        return psi[0]

    def psi_eval(self, lam):
        z = complex(lam)
        U1, h1, h2, verts = self._germ(z)
        return PsiEvaluation(z, self.psi(z), verts, U1, (h1, h2))

    def _assemble(self, zs, U1, hs):
        """Psi and its analytic lambda derivative, (N, 2, 2) each, at points
        zs (N,) from their sheet-1 Abel values U1 (g, N) and spinor values
        hs = (h1, h2).  The derivative differentiates the theta arguments
        through the normalized differentials and the scalar factors through
        the logarithmic derivative of the spinor; no finite differences.
        Theta stacks run over the points only, never over entries."""
        kc, B = self.kc, self.periods.B
        zs = np.asarray(zs, dtype=complex)
        v1 = self.periods.differentials(zs)
        hlog = 0.5 * kc.q_poly_deriv(zs) / kc.q_poly(zs) \
            - 0.5 * self.curve.log_derivative_sum(zs)
        dz = zs - self.lambda0
        psi = np.empty((len(zs), 2, 2), dtype=complex)
        dpsi = np.empty_like(psi)
        for j, sgn in enumerate((1.0, -1.0)):
            # entry (1, 1 - j) sits at -zeta with column sign -sgn; theta[odd]
            # is odd, so es and rest of entry (0, j) serve it too
            zeta = sgn * U1 - self.U0[:, None]
            es = theta_derivs(zeta, B, kc.odd_char)
            rest = hlog - sgn * (v1 * es.grad).sum(axis=0) / es.value
            for k, col, s in ((0, j, 1.0), (1, 1 - j, -1.0)):
                ec = theta_derivs(s * zeta, B, kc.char)
                c = hs[col] * self.h0[k] / (kc.theta0 * s * es.value)
                psi[:, k, col] = dz * ec.value * c
                dpsi[:, k, col] = c * (ec.value * (1.0 + dz * rest) + dz
                                       * s * sgn * (v1 * ec.grad).sum(axis=0))
        return psi, dpsi

    def psi_pair(self, lam):
        """Matrix and its analytic lambda derivative in one pass."""
        z = complex(lam)
        self._check_regular(z)
        if abs(z - self.lambda0) < 1e-9 * self.curve.scale:
            raise SingularPoint(
                "analytic derivative is assembled away from the basepoint")
        U1, h1, h2, _ = self._germ(z)
        psi, dpsi = self._assemble([z], U1[:, None], (h1, h2))
        return psi[0], dpsi[0]

    def ode_matrix(self, lam):
        """Logarithmic derivative; a rational function with simple poles
        at the branch points, independent of germ conventions."""
        psi, dpsi = self.psi_pair(lam)
        return dpsi @ np.linalg.inv(psi)

    def circle_log_derivative(self, n, rho):
        """Logarithmic derivative, (2, 2, N), at N points on the circle of
        radius rho around branch point n.  One germ, routed to the first node
        by ``ode_matrix``, serves them all and checks each batch there."""
        z_ref, abel = _circle_abel(self.periods, n, rho,
                                   lambda z: self._germ_cache[complex(z)][0])
        ref = self.ode_matrix(z_ref)    # routes the germ the hops start from

        def f(zs):
            zs = np.append(zs, z_ref)
            U1 = abel(zs)
            hs = (self.kc.h(zs, 1), self.kc.h(zs, 2))
            psi, dpsi = self._assemble(zs, U1, hs)
            out = np.moveaxis(dpsi @ np.linalg.inv(psi), 0, -1)
            err = np.max(np.abs(out[:, :, -1] - ref))
            if not err <= 1e-10 * max(1.0, np.max(np.abs(ref))):
                raise LatticeExtractionFailed(
                    f"circle at branch point {n} misses its germ by {err:.2e}")
            return out[:, :, :-1]

        return f

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
                    except (RoutingFailure, LoopConstructionFailed) as exc:
                        last = exc
        raise LoopConstructionFailed(
            f"no clear loop around branch point {n}: {last}")

    def _continue_columns(self, verts):
        """Continue both columns along a basepointed polyline.

        Returns one MonodromyColumn per starting sheet.  The Abel integral
        and the spinor are continued once: the second column's Abel value
        is the exact negative of the first's, and its spinor, continued
        along the sign-flipped pieces, the constant ``_flip`` times it.
        """
        pieces, events = split_polyline(self.curve.cuts, verts, closed=False,
                                        start_sign=1.0)
        dU = integrate_pieces(
            lambda z, s: self.periods.differentials(z, s), pieces, tol=1e-12)
        flips = len(events) % 2
        _, h_end = self.kc.continue_h_along(pieces)
        h_ends = (h_end, self._flip * h_end)
        out = []
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
            out.append(MonodromyColumn(
                start_sheet=j + 1, end_sheet=end_sheet + 1,
                a_index=nvec, b_index=mvec, sigma=sigma,
                lattice_residual=resid))
        return out

    def _entry(self, col):
        p, q = self.kc.char.arrays()
        ps, qs = self.kc.odd_char.arrays()
        phase = (p - ps) @ col.a_index - (q - qs) @ col.b_index
        return col.sigma * np.exp(2j * np.pi * phase)

    def continued_monodromy(self, verts):
        """Monodromy factor of an arbitrary basepointed loop."""
        cols = self._continue_columns(verts)
        M = np.zeros((2, 2), dtype=complex)
        for j, col in enumerate(cols):
            M[col.end_sheet - 1, j] = self._entry(col)
        validate_quasi_perm(M)
        return M, cols

    def monodromy(self, n):
        verts = self.loop_vertices(n)
        M, cols = self.continued_monodromy(verts)
        perm, entries = validate_quasi_perm(M)
        return MonodromyResult(index=n, vertices=verts, matrix=M,
                               columns=cols, permutation=perm, entries=entries)

    def monodromies(self):
        return [self.monodromy(n) for n in range(len(self.curve.points))]

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

    def residue(self, n, radius_factor=0.25, tol=1e-8):
        """Residue matrix of the logarithmic derivative at branch point n,
        by trapezoid sums on a circle, doubled until stable; germ-free, as
        another germ multiplies Psi on the right by a constant matrix."""
        key = (n, float(radius_factor))
        if key in self._residue_cache:
            return self._residue_cache[key]
        p = self.curve.points[n]
        dist = min(abs(p - q) for i, q in enumerate(self.curve.points)
                   if i != n)
        rho = radius_factor * dist
        f = self.circle_log_derivative(n, rho)
        try:
            cur = integrate_circle(lambda zs: f(zs) / (2j * np.pi), p, rho,
                                   tol=tol, max_n=4096, phase=_CIRCLE_PHASE)
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"residue circle at branch point {n}: {exc}") from exc
        self._residue_cache[key] = cur
        return cur

    def residues(self, radius_factor=0.25, tol=1e-8):
        mats = np.array([self.residue(n, radius_factor, tol)
                         for n in range(len(self.curve.points))])
        eig = np.array([np.sort_complex(np.linalg.eigvals(m)) for m in mats])
        return ResidueSet(matrices=mats, exponents=eig,
                          sum_norm=float(np.max(np.abs(mats.sum(axis=0)))))

    def ode_residual(self, lam, residue_set=None):
        """Defect of the rational form of the logarithmic derivative at a
        test point; small values certify the residues and the derivative
        at once."""
        if residue_set is None:
            residue_set = self.residues()
        z = complex(lam)
        rational = np.zeros((2, 2), dtype=complex)
        for n, p in enumerate(self.curve.points):
            rational += residue_set.matrices[n] / (z - p)
        return float(np.max(np.abs(self.ode_matrix(z) - rational)))

"""Hyperelliptic curves w^2 = prod_m (lambda - lambda_m) with 2g+2 finite
branch points: branch cuts, canonical homology, period matrices, Abel map.

Conventions fixed here and relied on everywhere else:

* Branch points are sorted lexicographically by (Re, Im); cut k joins the
  sorted points 2k and 2k+1 (overridable, but cuts must never intersect).
* Sheet 1 carries the root ``w1`` built cut by cut from principal square
  roots, so each factor jumps sign exactly on its own cut segment and
  nowhere else.  Sheet 2 is ``-w1``.
* The cycle a_k is a counterclockwise loop around cut k on sheet 1 for
  k = 0..g-1; cut g is shared by all b loops.  b_k passes through cut k and
  cut g, crossing cut k from sheet 1 to sheet 2, and is corrected by integer
  combinations of a cycles so that the basis is exactly canonical
  (a_j o b_k = delta_jk, b_j o b_k = 0).
* The Abel map is based at the first sorted branch point and is kept on the
  universal cover: continuation along a path never folds values back into
  the period lattice.  Every route starts one hop out, at the reference
  node of branch point 0 (``reference_node``).  ``route_integrals`` routes
  and integrates the paths of Abel values and solution germs alike;
  ``branch_abel`` hops each branch point's value back from its own node,
  and points near a branch point are hopped out of that value.  Every
  sheet-1 value is kept, so all callers on one curve share it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    CrossingCuts,
    DegenerateCurve,
    LoopConstructionFailed,
    NotRiemannMatrix,
    QuadratureFailure,
    RoutingFailure,
)
from .geometry import (
    RouteTree,
    cross2,
    crossings,
    ellipse_loop,
    intersection_number,
    pick_crossing_point,
    route,
    segment_crossing,
    split_polyline,
)
from .quadrature import integrate_circle, integrate_pieces, integrate_segment
from .theta import ThetaContext

# Retry ladder for homology-loop construction: (margin, stub) as fractions
# of the minimal branch-point separation.  Each failure rebuilds the whole
# loop family with fresh clearances so loop pairs stay transversal.
_LOOP_LADDER = ((0.05, 1.0), (0.043, 0.71), (0.058, 1.31), (0.037, 0.89))
# Route clearances of ``PeriodData.sheet1_route`` as fractions of the
# minimal branch-point separation, tried in order.
_ROUTE_FRACS = (0.2, 0.13, 0.28, 0.08)
# Phase of a branch point's reference node, the start of its
# ``branch_circle``, off cut lines.  Abel routes start at branch point 0's
# node, each branch-point value is hopped back from its own node, and the
# residue check evaluates Psi_lambda Psi^-1 there, on the kept value.
_CIRCLE_PHASE = 0.37


def _circle_radius(points, m):
    """A quarter of the distance from branch point m to the nearest other."""
    return 0.25 * min(abs(points[m] - q) for q in np.delete(points, m))


def reference_node(points, m):
    """Point at radius ``_circle_radius`` and phase ``_CIRCLE_PHASE`` around
    branch point m, the first node of its ``branch_circle``."""
    return points[m] + _circle_radius(points, m) * np.exp(1j * _CIRCLE_PHASE)


def branch_circle(f, points, m, what):
    """Counterclockwise integral of f (see ``integrate_circle``) around branch
    point m through its reference node; a failure names the branch point."""
    try:
        return integrate_circle(f, points[m], _circle_radius(points, m),
                                phase=_CIRCLE_PHASE)
    except QuadratureFailure as exc:
        raise QuadratureFailure(
            f"{what} circle at branch point {m}: {exc}") from exc


def _sort_key(z):
    return (round(z.real, 14), round(z.imag, 14))


def _pair_factor(lam, a, b):
    """Square root of (lam-a)(lam-b) with branch cut exactly on [a, b].

    The shifts u -> u -/+ 1 must inherit the imaginary part of u verbatim:
    IEEE signed zeros would otherwise put the two principal roots on
    opposite sides of their cuts for points on the cut line, and the
    product would jump off the segment.
    """
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    u = (lam - c) / d
    um, up = u - 1.0, u + 1.0
    um.imag = u.imag
    up.imag = u.imag
    return d * np.sqrt(um) * np.sqrt(up)


class HyperellipticCurve:
    """Branch-point data of w^2 = prod (lambda - lambda_m), M = 2g+2."""

    def __init__(self, branch_points, cut_pairing=None):
        pts = np.asarray(branch_points, dtype=complex).ravel()
        if pts.size < 4 or pts.size % 2:
            raise DegenerateCurve(
                f"need an even number >= 4 of branch points, got {pts.size}")
        self.scale = float(np.max(np.abs(pts[:, None] - pts[None, :])))
        dmat = np.abs(pts[:, None] - pts[None, :]) + 2 * self.scale * np.eye(pts.size)
        self.min_separation = float(dmat.min())
        if self.min_separation < 1e-10 * self.scale:
            raise DegenerateCurve("coincident branch points")
        self.points = np.array(sorted(pts, key=_sort_key))
        if cut_pairing is None:
            cut_pairing = [(2 * k, 2 * k + 1) for k in range(pts.size // 2)]
        pairing = [tuple(int(i) for i in p) for p in cut_pairing]
        if sorted(i for p in pairing for i in p) != list(range(pts.size)):
            raise DegenerateCurve("cut pairing is not a perfect matching")
        self.cut_index_pairs = pairing
        self.cuts = [(self.points[i], self.points[j]) for i, j in pairing]
        self._validate_cuts()
        self.genus = pts.size // 2 - 1

    def _validate_cuts(self):
        for i, (a, b) in enumerate(self.cuts):
            for j, (c, d) in enumerate(self.cuts):
                if j <= i:
                    continue
                if segment_crossing(a, b, c, d) is not None:
                    raise CrossingCuts(f"cuts {i} and {j} intersect")

    def polynomial(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.ones_like(lam)
        for p in self.points:
            out = out * (lam - p)
        return out

    def w(self, lam, sheet=1):
        """Root of the defining polynomial on the given sheet.

        Branch cuts of the result are exactly the cut segments: each paired
        factor is d*sqrt(u-1)*sqrt(u+1) in the affine coordinate u sending
        its cut to [-1, 1].
        """
        arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        out = np.ones_like(arr)
        for a, b in self.cuts:
            out = out * _pair_factor(arr, a, b)
        if sheet != 1:
            out = -out
        return out if np.ndim(lam) else out[0]

    def root_excluding(self, lam, k):
        """Product of all paired roots except the one of cut k; k is one cut
        or an array broadcasting against lam, one cut per point, and then
        each point multiplies by exactly one in place of its own factor."""
        arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        out, several = np.ones_like(arr), np.ndim(k) > 0
        for j, (a, b) in enumerate(self.cuts):
            if several:
                out = out * np.where(k == j, 1.0, _pair_factor(arr, a, b))
            elif j != k:
                out = out * _pair_factor(arr, a, b)
        return out if np.ndim(lam) else out[0]

    def perturb(self, m, h):
        """Curve with branch point m (sorted order) moved by h.

        The sorted order and the cut pairing must survive the move; this is
        what finite-difference derivatives in the branch points rely on.
        """
        pts = self.points.copy()
        pts[m] += h
        moved = HyperellipticCurve(pts, cut_pairing=self.cut_index_pairs)
        if np.max(np.abs(moved.points - pts)) > 0:
            raise DegenerateCurve("perturbation reorders the branch points")
        return moved


@dataclass
class PeriodData:
    """Periods and homology of a curve, plus the Abel map machinery.

    A is the matrix of a periods of the monomial differentials
    lambda^(beta-1) dlambda / w; C = A^(-1) normalizes them; B is the
    Riemann matrix in the normalized basis.  b_loops keeps the vertex
    polylines of the geometric b representatives and gram the integer
    corrections applied to make the basis canonical.
    """

    curve: HyperellipticCurve
    A: np.ndarray
    C: np.ndarray
    B: np.ndarray
    b_loops: list
    b_pieces: list
    gram: np.ndarray
    _anchor: tuple = field(default=None, repr=False)
    # sheet-1 Abel values by point; of the branch points, (g, M)
    _abel: dict = field(default_factory=dict, repr=False)
    _branch_abel: np.ndarray = field(default=None, repr=False)
    _theta_context: ThetaContext = field(default=None, repr=False)
    # route trees by (source, clearance rung), built on first use
    _trees: dict = field(default_factory=dict, repr=False)
    _moved: dict = field(default_factory=dict, repr=False)
    # kept by kernels.even_subset_characteristics, with theta constants
    _even_subsets: tuple = field(default=None, repr=False)
    _subset_thetas: tuple = field(default=None, repr=False)

    @property
    def theta_context(self):
        """Theta template of B, built on first use."""
        if self._theta_context is None:
            self._theta_context = ThetaContext(self.B)
        return self._theta_context

    def moved(self, m, s):
        """Period data of the curve with branch point m moved by s, computed
        on first use and kept; every caller of one key gets the first object
        stored."""
        moved = self._moved.get((m, s))
        if moved is None:
            moved = self._moved.setdefault(
                (m, s), compute_periods(self.curve.perturb(m, s)))
        return moved

    # -- differentials ------------------------------------------------

    def numerators(self, lam):
        """Numerator polynomials of the normalized differentials at one
        point, shape (g,); v_alpha = P_alpha(lam) / w(lam)."""
        lam = np.asarray(lam, dtype=complex)
        return (lam ** np.arange(self.curve.genus)) @ self.C

    def monomial_rows(self, lam, sign=1.0):
        """Values lambda^(beta-1)/w for beta = 1..g, shape (g, n)."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        g = self.curve.genus
        pw = np.vstack([lam ** b for b in range(g)])
        return pw / (sign * self.curve.w(lam, 1))

    def differentials(self, lam, sign=1.0):
        """Normalized holomorphic differentials v_alpha(lam), shape (g, n)."""
        return self.C.T @ self.monomial_rows(lam, sign)

    # -- Abel map -----------------------------------------------------

    def _hop(self, m, zs):
        """Integrals of v (g, N) from branch point m straight to each of zs,
        and the sheet sign (N,) each hop ends on, all in one rule; m is one
        branch index, or one per point.

        Substituting lambda = lambda_m + t^2 (z - lambda_m) removes the
        inverse-square-root singularity at the branch point; the root of the
        own cut is taken from the offset t^2 (z - lambda_m), so no digits
        cancel next to the branch point.  Past a foreign cut a hop goes on
        on sheet 2.  All hops share one integrand and converge together.
        Hops from one branch point leave its cut out of the product of
        roots; hops from several multiply by one in place of each own
        cut's root, so hops from one branch point keep their operations.
        """
        zs = np.asarray(zs, dtype=complex)
        ms = np.ravel(m)
        names = list(dict.fromkeys(ms.tolist()))
        # branch point: own cut, and um, up with _pair_factor's u -/+ 1 =
        # x + um, x + up
        local = {}
        for k, (i, j) in enumerate(self.curve.cut_index_pairs):
            local[i], local[j] = (k, -2.0, 0.0), (k, 0.0, 2.0)
        if len(names) == 1:
            p = self.curve.points[names[0]]
            own, um, up = local[names[0]]
        else:       # one column entry (N, 1) per hop
            p = self.curve.points[ms][:, None]
            own, um, up = (np.array(c)[:, None] for c in zip(
                *(local[n] for n in ms.tolist())))
        ab = np.array(self.curve.cuts)
        half = 0.5 * (ab[own, 1] - ab[own, 0])
        d = zs[:, None] - p
        # line parameter of each hop's crossing of each cut foreign to some
        # hop, inf where the hop misses the cut or owns it
        foreign = np.ravel(own) != np.arange(len(ab))[:, None]
        rows = foreign.any(axis=1)
        t, _, hit = crossings(np.ravel(p), zs, ab[rows, :1], ab[rows, 1:],
                              tol=0.0)
        cross = np.where(hit & foreign[rows], t, np.inf)[:, :, None]

        def sheet(t):
            return (-1.0) ** np.sum(cross < t ** 2, axis=0)

        def f(t):
            off = t ** 2 * d
            lam, x = p + off, off / half
            w = (half * np.sqrt(x + um) * np.sqrt(x + up) * sheet(t)
                 * self.curve.root_excluding(lam, own)).ravel()
            lam = lam.ravel()
            pw = np.vstack([lam ** be for be in range(self.curve.genus)])
            return ((self.C.T @ (pw / w)).reshape(-1, *off.shape)
                    * (2.0 * t * d))

        ends = sheet(np.ones(1))[:, 0]
        try:
            return integrate_segment(f, 0.0, 1.0, tol=1e-12), ends
        except QuadratureFailure as exc:
            names = [f"{n} ({self.curve.points[n]:.4g})" for n in names]
            shown = [f"{z:.4g}" for z in zs[:3]] + ["..."] * (zs.size > 3)
            raise QuadratureFailure(
                f"Abel hop from branch point{'s' * (len(names) > 1)} "
                f"{', '.join(names)} fails to converge on the way to "
                f"{zs.size} point(s): {', '.join(shown)}") from exc

    def anchor_point(self):
        """Start of every ``abel`` route, branch point 0's reference node,
        and its Abel value, one hop from the base point; kept."""
        if self._anchor is None:
            z = reference_node(self.curve.points, 0)
            dU, sign = self._hop(0, [z])
            U = sign[0] * dU[:, 0]
            U.flags.writeable = False
            self._anchor = (z, self._abel.setdefault(complex(z), U))
        return self._anchor

    def sheet1_route(self, z0, z1):
        """Cut-avoiding polyline between two plain points, with clearance
        fallbacks for tight configurations.  Routes from one source share
        one ``RouteTree`` per clearance, kept; a kept tree routes every
        target as a fresh one would.  When every clearance fails and an end
        point lies inside the widest one of a branch point, the error names
        both."""
        last = None
        for frac in _ROUTE_FRACS:
            key = (complex(z0), frac)
            tree = self._trees.get(key)
            if tree is None:
                tree = self._trees.setdefault(key, RouteTree(
                    z0, self.curve.cuts, frac * self.curve.min_separation,
                    clear_points=self.curve.points))
            try:
                return tree.path(z1)
            except RoutingFailure as exc:
                last = exc
        # route keeps legs 0.6 * margin from every branch point
        clear = 0.6 * self.curve.min_separation * np.array(_ROUTE_FRACS)
        for z in (z0, z1):
            d = np.abs(self.curve.points - z)
            m = int(np.argmin(d))
            if d[m] < clear.max():
                raise RoutingFailure(
                    f"{last}: end point {z:.4g} lies {d[m]:.3g} from branch "
                    f"point {m} ({self.curve.points[m]:.4g}), inside the "
                    f"route clearances {clear.min():.3g} to {clear.max():.3g}"
                ) from last
        raise last

    def route_integrals(self, z0, zs):
        """Integrals of v (N, g) along the ``sheet1_route`` routes from z0 to
        each of zs, in one stacked call, and the routes; every route must
        cross cuts an even number of times."""
        routes, paths = [], []
        for z in zs:
            verts = self.sheet1_route(z0, z)
            pieces, events = split_polyline(self.curve.cuts, verts,
                                            closed=False)
            if len(events) % 2:
                raise LoopConstructionFailed(
                    f"route from {z0:.4g} to {z:.4g} ends on sheet 2")
            routes.append(verts)
            paths.append(pieces)
        dU = integrate_pieces(lambda z, s: self.differentials(z, s), paths)
        return dU, routes

    def abel(self, lam, sheet=1):
        """Abel map based at the first branch point, (g,) at one point or
        (g, N) at a stack (N,).  New points are reached on sheet 1 from
        ``anchor_point`` in one ``route_integrals`` call; the sheet-2 value
        is the exact negative (the hyperelliptic involution fixes the
        basepoint).  Each sheet-1 value is kept read-only, and is the same
        alone or among many."""
        zs = [complex(z) for z in np.ravel(lam)]
        z0, U0 = self.anchor_point()
        new = [z for z in dict.fromkeys(zs) if z not in self._abel]
        if new:
            dU, _ = self.route_integrals(z0, new)
            for z, U in zip(new, U0 + dU):
                U.flags.writeable = False
                self._abel.setdefault(z, U)
        U = (np.stack([self._abel[z] for z in zs], axis=1) if np.ndim(lam)
             else self._abel[zs[0]])
        return U if sheet == 1 else -U

    def branch_abel(self):
        """Abel values (g, M) of the branch points, kept read-only: one
        ``abel`` call over their reference nodes, then a straight hop back
        from each; equal to any other route's up to lattice vectors."""
        if self._branch_abel is None:
            pts = self.curve.points
            nodes = [reference_node(pts, m) for m in range(len(pts))]
            out = self.abel(nodes)      # a fresh stack of the kept values
            for m, z in enumerate(nodes):
                dU, sign = self._hop(m, [z])
                out[:, m] = sign[0] * out[:, m] - dU[:, 0]
            out.flags.writeable = False
            self._branch_abel = out
        return self._branch_abel

    def abel_near_branch(self, m, zs):
        """Sheet-1 Abel values (g, N), up to lattice vectors, at zs near branch
        point m, by the hops of ``_hop`` out of the kept value at the branch
        point, all in one rule.  A hop ending on sheet 2 negates, as
        U(z, 1) = -U(z, 2)."""
        dU, sign = self._hop(m, zs)
        return sign * (self.branch_abel()[:, m, None] + dU)

    def continue_abel(self, vertices, closed=False, start_sign=1.0):
        """Integral of v along a polyline with sheet tracking.

        Returns (dU, end_sign).  dU lives on the universal cover; closed
        loops therefore report their full period vector.
        """
        pieces, events = split_polyline(self.curve.cuts, vertices,
                                        closed=closed, start_sign=start_sign)
        dU = integrate_pieces(lambda z, s: self.differentials(z, s),
                              [pieces], tol=1e-12)[0]
        end_sign = pieces[-1][2] if not events else start_sign * (-1) ** len(events)
        return dU, end_sign

    def lattice_decompose(self, z):
        """Write z = n + B m + residual with integer vectors n, m."""
        z = np.asarray(z, dtype=complex)
        m = np.rint(np.linalg.solve(self.B.imag, z.imag)).astype(int)
        n = np.rint((z - self.B @ m).real).astype(int)
        res = z - n - self.B @ m
        return n, m, res

    # -- homology -----------------------------------------------------

    def a_loop(self, k, n_sides=32):
        """Counterclockwise polyline around cut k on sheet 1.

        The ellipse is shrunk until it crosses no cut; it exists for
        reasonably separated configurations and is used for integrating
        kernels over a cycles.
        """
        a, b = self.curve.cuts[k]
        c, d = 0.5 * (a + b), 0.5 * (b - a)
        u = d / abs(d)
        for shrink in (0.5, 0.35, 0.22, 0.12):
            rho = shrink * self.curve.min_separation
            verts = ellipse_loop(c, u, abs(d) + rho, rho, n_sides)
            try:
                _, events = split_polyline(self.curve.cuts, verts, closed=True)
            except LoopConstructionFailed:
                continue
            if not events:
                return verts
        raise LoopConstructionFailed(f"no clear loop around cut {k}")

    def _a_int(self, events):
        """Intersection numbers a_k o loop from the loop's crossing events.

        Crossing cut k from sheet 1 to sheet 2 meets the loop a_k once with
        positive orientation regardless of where on the cut it happens.
        """
        g = self.curve.genus
        out = np.zeros(g, dtype=int)
        for cut_idx, sign_before in events:
            if cut_idx < g:
                out[cut_idx] += int(sign_before)
        return out

    def loop_class(self, vertices):
        """Homology class (J, I) of a closed loop: sum J_k a_k + I_k b_k."""
        pieces, events = split_polyline(self.curve.cuts, vertices, closed=True)
        a_int = self._a_int(events)
        g = self.curve.genus
        J = np.zeros(g, dtype=int)
        for beta in range(g):
            n = intersection_number(pieces, self.b_pieces[beta])
            J[beta] = n + int(self.gram[beta, beta + 1:] @ a_int[beta + 1:])
        return J, a_int


def _a_periods(curve, tol=1e-12):
    """Collapsed a-period integrals around each of the first g cuts.

    The loop around cut k tightens onto the cut; parameterizing by
    lambda = c + d sin t removes the endpoint singularities.
    """
    g = curve.genus
    A = np.zeros((g, g), dtype=complex)
    for k in range(g):
        a, b = curve.cuts[k]
        c, d = 0.5 * (a + b), 0.5 * (b - a)

        def f(t):
            lam = c + d * np.sin(t)
            other = curve.root_excluding(lam, k)
            pw = np.vstack([lam ** be for be in range(g)])
            return 2j * pw / other

        try:
            A[k] = integrate_segment(f, -np.pi / 2, np.pi / 2, tol=tol)
        except QuadratureFailure as exc:
            i, j = curve.cut_index_pairs[k]
            raise QuadratureFailure(
                f"a period of cut {k}, from branch point {i} ({a:.4g}) to "
                f"{j} ({b:.4g}), fails to converge") from exc
    return A


def _b_loop_vertices(curve, k, margin_frac, stub_frac, used_last):
    """Two-leg loop through cut k and the last cut.

    Crosses cut k from sheet 1 to sheet 2 at a perpendicular stub, routes to
    the last cut, crosses back, and returns; the crossing sides are chosen
    so the two legs stay on facing sides and the loop closes.
    """
    cuts = curve.cuts
    minsep = curve.min_separation
    margin = margin_frac * minsep * (1.0 + 0.13 * k)
    aK, bK = cuts[k]
    aG, bG = cuts[-1]
    delta = min(margin * stub_frac, 0.1 * abs(bK - aK), 0.1 * abs(bG - aG))
    xk = pick_crossing_point(cuts, k, delta)
    xG = pick_crossing_point(cuts, len(cuts) - 1, delta, avoid=used_last)
    uk = (bK - aK) / abs(bK - aK)
    uG = (bG - aG) / abs(bG - aG)
    nk, nG = 1j * uk, 1j * uG
    f = np.sign(cross2(uk, xG - xk)) or -1.0
    gsd = np.sign(cross2(uG, xk - xG)) or -1.0
    p0, p1 = xk - f * delta * nk, xk + f * delta * nk
    p2, p3 = xG + gsd * delta * nG, xG - gsd * delta * nG
    clear = list(curve.points)
    out = route(p1, p2, cuts, margin, clear_points=clear)
    ret = route(p3, p0, cuts, margin, clear_points=clear)
    return [p0] + out + ret[:-1], xG


def compute_periods(curve, tol=1e-12):
    """Period matrices and homology data of a curve.

    Builds the loop family deterministically, retrying with perturbed
    clearances when a construction degenerates, measures the intersection
    numbers of the raw loops, and applies the integer corrections that make
    the basis canonical before normalizing.
    """
    g = curve.genus
    A = _a_periods(curve, tol=tol)
    last_err = None
    for margin_frac, stub_frac in _LOOP_LADDER:
        try:
            loops, pieces_list, used_last = [], [], []
            for k in range(g):
                verts, xG = _b_loop_vertices(curve, k, margin_frac,
                                             stub_frac, used_last)
                pieces, events = split_polyline(curve.cuts, verts, closed=True)
                if events != [(k, 1.0), (len(curve.cuts) - 1, -1.0)]:
                    raise LoopConstructionFailed(
                        f"b loop {k} has crossing pattern {events}")
                loops.append(verts)
                pieces_list.append(pieces)
                used_last.append(xG)
            S = np.zeros((g, g), dtype=int)
            for i in range(g):
                for j in range(i + 1, g):
                    S[i, j] = intersection_number(pieces_list[i],
                                                  pieces_list[j])
                    S[j, i] = -S[i, j]
            Braw = integrate_pieces(
                lambda z, s: np.vstack(
                    [z ** be for be in range(g)]) / (s * curve.w(z, 1)),
                pieces_list, tol=tol)
            # subtract whole a periods so that b_i o b_j = 0 exactly
            for i in range(g):
                for j in range(i + 1, g):
                    Braw[i] -= S[i, j] * A[j]
            B = np.linalg.solve(A.T, Braw.T).T
            sym = np.max(np.abs(B - B.T))
            if sym > 1e-6:
                raise NotRiemannMatrix(
                    f"period matrix asymmetric by {sym:.2e}")
            if np.linalg.eigvalsh(B.imag).min() <= 0:
                raise NotRiemannMatrix(
                    "imaginary part of period matrix not positive definite")
            return PeriodData(curve=curve, A=A, C=np.linalg.inv(A), B=B,
                              b_loops=loops, b_pieces=pieces_list, gram=S)
        except LoopConstructionFailed as exc:
            last_err = exc
    raise LoopConstructionFailed(
        f"homology construction failed at every clearance: {last_err}")


# JSON I/O -------------------------------------------------------------------

def pair_to_complex(value):
    """Complex number from an ``[re, im]`` pair or a bare real."""
    if isinstance(value, (int, float)):
        return complex(value)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"expected [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def complex_to_lists(M):
    """Row-major nesting with complex entries written as [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    if M.ndim == 0:
        return [float(M.real), float(M.imag)]
    return [complex_to_lists(row) for row in M]


def curve_from_dict(data):
    """Build (curve, basepoint) from the documented JSON layout.

    The layout is ``{"branch_points": [[re, im], ...], "basepoint":
    {"lambda": [re, im], "sheet": 1}}``.  The basepoint names the point
    where a solution gets normalized; it is optional for commands that
    never build one, and its sheet must be 1 because all germs in this
    package start on the first sheet.
    """
    try:
        pts = [pair_to_complex(p) for p in data["branch_points"]]
        base = data.get("basepoint")
        lam0 = pair_to_complex(base["lambda"]) if base is not None else None
        sheet = int(base.get("sheet", 1)) if base is not None else 1
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed curve data: {exc}") from exc
    if sheet != 1:
        raise ConfigError("the basepoint sheet must be 1")
    if lam0 is not None and min(abs(lam0 - p) for p in pts) == 0.0:
        raise ConfigError("the basepoint sits on a branch point")
    return HyperellipticCurve(pts), lam0


def load_curve(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read curve file {path}: {exc}") from exc
    return curve_from_dict(data)


def period_data_to_dict(pd):
    return {
        "branch_points": complex_to_lists(pd.curve.points),
        "genus": pd.curve.genus,
        "a_periods": complex_to_lists(pd.A),
        "period_matrix": complex_to_lists(pd.B),
        "gram": [[int(x) for x in row] for row in pd.gram],
    }

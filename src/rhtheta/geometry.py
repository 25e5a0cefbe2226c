"""Plane geometry over complex coordinates: segment intersections,
obstacle-avoiding routing, and sheet-tracked polylines.

Branch cuts are straight segments between paired branch points.  A path in
the cut plane is a polyline; every transversal crossing of a cut flips the
sheet of the square root carried along the path.  All routines here are
deterministic functions of their inputs so that downstream period matrices
and monodromy loops are reproducible bit for bit.  Crossing tests broadcast:
one call tests every segment of a path against every cut, and every edge of
a routing graph against every cut and clearance point.  Every route is a
path of a ``RouteTree``, a shortest-path tree whose graph is built and
searched once for all targets from one source; ``route`` is a tree with
one target.
"""

from __future__ import annotations

import numpy as np

from .errors import LoopConstructionFailed, RoutingFailure

# Parameter slack when classifying a crossing as interior to both segments.
CROSS_TOL = 1e-11
# Crossings closer than this to a segment endpoint are ambiguous; loop
# builders treat them as construction failures and retry with new geometry.
MARGINAL = 1e-9


def cross2(u, v):
    """Scalar cross product of the plane vectors u and v, broadcast over
    arrays.  Real arithmetic rounds an array entry exactly like a scalar:
    numpy's vectorized complex product fuses multiply and add."""
    return u.real * v.imag - u.imag * v.real


def crossings(z0, z1, a, b, tol=CROSS_TOL):
    """Intersections of the segments [z0, z1] and [a, b], broadcast over
    array arguments.

    Returns (t, s, hit) with z0 + t*(z1-z0) = a + s*(b-a); hit is False
    where the segments are disjoint, parallel or degenerate, and t, s are
    meaningless there.
    """
    z0, z1, a, b = (np.asarray(v, dtype=complex) for v in (z0, z1, a, b))
    d1, d2 = z1 - z0, b - a
    scale = np.abs(d1) * np.abs(d2)
    den = cross2(d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -cross2(d2, z0 - a) / cross2(d2, d1)
        s = cross2(d1, z0 - a) / den
    hit = ((scale != 0.0) & ~(np.abs(den) < 1e-14 * scale)
           & (-tol <= t) & (t <= 1 + tol) & (-tol <= s) & (s <= 1 + tol))
    return t, s, hit


def segment_crossing(z0, z1, a, b, tol=CROSS_TOL):
    """(t, s) of the intersection of two segments, or None (see
    ``crossings``)."""
    t, s, hit = crossings(z0, z1, a, b, tol)
    return (t, s) if hit else None


def point_segment_distance(p, a, b):
    """Distance from p to the segment [a, b], broadcast over arrays."""
    d, e = b - a, p - a
    len2 = np.abs(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((d.real * e.real + d.imag * e.imag) / len2, 0.0, 1.0)
    return np.where(len2 == 0.0, np.abs(e), np.abs(e - t * d))


def _corners(cuts, margin):
    """Routing nodes fanned around every cut endpoint at radius margin."""
    nodes = []
    for a, b in cuts:
        u = (b - a) / abs(b - a)
        n = 1j * u
        for end, out in ((a, -u), (b, u)):
            nodes.append(end + margin * (out + n))
            nodes.append(end + margin * (out - n))
            nodes.append(end + margin * np.sqrt(2.0) * out)
    return nodes


def _blocked(p, q, cuts, margin, clear_points):
    """``blocked[i, j]`` for the edge from p[i] to q[j], all pairs in one
    broadcast: the edge crosses a cut, or passes closer than 0.6*margin to
    one of ``clear_points`` other than its own ends."""
    p, q = p[:, None, None], q[None, :, None]
    ab = np.array(cuts, dtype=complex).reshape(-1, 2)
    blocked = crossings(p, q, ab[:, 0], ab[:, 1])[2].any(axis=2)
    c = np.asarray(clear_points, dtype=complex)
    near = ((point_segment_distance(c, p, q) < 0.6 * margin)
            & (np.abs(c - p) > 1e-13) & (np.abs(c - q) > 1e-13))
    return blocked | near.any(axis=2)


class RouteTree:
    """Shortest cut-avoiding polylines from one source z0 to any target.

    The graph's nodes are the source, the target and corner points fanned
    around every cut endpoint at radius ``margin``, with an edge wherever
    ``_blocked`` allows one.  The tree holds the source and the corners;
    Dijkstra's search (Dijkstra 1959) settles them lazily, only until the
    asked-for target settles, and keeps them for the next target.  A
    target settles once no open corner is nearer by more than 1e-15, and
    its predecessor is the first settled node that improves its distance
    by more than 1e-12.  No target changes the order the corners settle
    in, so a path does not depend on the targets asked before it.  Not
    safe for concurrent use.
    """

    def __init__(self, z0, cuts, margin, clear_points=()):
        self.z0, self.cuts, self.margin = z0, cuts, margin
        self.clear_points = clear_points
        self.nodes = [z0] + _corners(cuts, margin)
        zs = self._zs = np.array(self.nodes, dtype=complex)
        self._edges = None          # clear edges, built with the first target
        self._length = np.abs(zs[None, :] - zs[:, None])
        n = len(zs)
        self._dist = np.full(n, np.inf)
        self._dist[0] = 0.0
        self._prev = np.full(n, -1, dtype=int)
        self._done = np.zeros(n, dtype=bool)
        self._order = []            # settled nodes, in settling order

    def _grow(self):
        """Relax from the node settled last (paths read only settled
        nodes; relaxing twice changes nothing), then settle the next one,
        picked by a scan in node order where a node displaces the pick only
        when nearer by more than 1e-15; False once none is reachable."""
        if self._order:
            u = self._order[-1]
            nd = self._dist[u] + self._length[u]
            better = self._edges[u] & ~self._done & (nd < self._dist - 1e-12)
            self._dist[better] = nd[better]
            self._prev[better] = u
        u_idx, best = -1, np.inf
        for i, (d, fixed) in enumerate(zip(self._dist.tolist(),
                                           self._done.tolist())):
            if not fixed and d < best - 1e-15:
                best, u_idx = d, i
        if u_idx < 0:
            return False
        self._order.append(u_idx)
        self._done[u_idx] = True
        return True

    def path(self, z1):
        """Polyline from the source to z1, straight when the direct edge
        is clear; ``RoutingFailure`` when no path reaches z1."""
        # the first target shares one broadcast with the corner matrix
        cols = np.append(self._zs if self._edges is None else self._zs[:0], z1)
        both = _blocked(self._zs, cols, self.cuts, self.margin,
                        self.clear_points)
        if self._edges is None:
            self._edges = ~both[:, :-1]
        blocked = both[:, -1].tolist()
        if not blocked[0]:
            return [self.z0, z1]
        length = np.abs(z1 - self._zs).tolist()
        d1, p1, k = np.inf, -1, 0
        while k < len(self._order) or self._grow():
            u = self._order[k]
            du = self._dist.item(u)
            if not du < d1 - 1e-15:
                break
            nd = du + length[u]
            if not blocked[u] and nd < d1 - 1e-12:
                d1, p1 = nd, u
            k += 1
        if p1 < 0:
            raise RoutingFailure(
                f"no cut-avoiding path from {self.z0:.4g} to {z1:.4g}")
        back = [p1]
        while back[-1] != 0:
            back.append(self._prev[back[-1]])
        return [self.nodes[i] for i in reversed(back)] + [z1]


def route(z0, z1, cuts, margin, clear_points=()):
    """Deterministic shortest polyline from z0 to z1 that crosses no cut
    and passes no closer than 0.6*margin to one of ``clear_points`` other
    than its own ends, which keeps routed legs away from branch points:
    the path of a ``RouteTree`` from z0 with z1 its one target."""
    return RouteTree(z0, cuts, margin, clear_points).path(z1)


def split_polyline(cuts, vertices, closed=True, start_sign=1.0):
    """Split a polyline at cut crossings into sheet-constant pieces.

    Returns (pieces, events): pieces is a list of (z_start, z_end, sign)
    with sign in {+1,-1} flipping at every crossing; events records
    (cut_index, sign_before_crossing) in traversal order.  A closed loop
    must return to its starting sheet.  Every segment is tested against
    every cut in one broadcast.
    """
    verts = [complex(v) for v in vertices]
    ends = verts[1:] + verts[:1] if closed else verts[1:]
    z0, z1 = np.array(verts[:len(ends)]), np.array(ends)
    ab = np.array(cuts, dtype=complex).reshape(-1, 2)
    t, s, hit = crossings(z0[:, None], z1[:, None], ab[:, 0], ab[:, 1])
    if np.any(hit & ((np.minimum(t, s) < MARGINAL)
                     | (np.maximum(t, s) > 1 - MARGINAL))):
        raise LoopConstructionFailed(
            "path grazes a cut endpoint; needs different geometry")
    pieces = []
    events = []
    sign = start_sign
    for i, (za, zb, row) in enumerate(zip(verts, ends, hit.tolist())):
        hits = sorted((t[i, k], k) for k, crossed in enumerate(row) if crossed)
        bounds = [0.0] + [tk for tk, _ in hits] + [1.0]
        for j in range(len(bounds) - 1):
            pieces.append((za + (zb - za) * bounds[j],
                           za + (zb - za) * bounds[j + 1], sign))
            if j < len(bounds) - 2:
                events.append((hits[j][1], sign))
                sign = -sign
    if closed and sign != start_sign:
        raise LoopConstructionFailed("loop does not close on its starting sheet")
    return pieces, events


def intersection_number(pieces_a, pieces_b):
    """Signed intersection number of two sheet-tracked loops.

    Crossings count only when both loops sit on the same sheet there; the
    sign is the orientation of the tangent frame.
    """
    a0, a1, sa = (np.array(c)[:, None] for c in zip(*pieces_a))
    b0, b1, sb = (np.array(c) for c in zip(*pieces_b))
    t, s, hit = crossings(a0, a1, b0, b1)
    hit &= sa == sb
    if np.any(hit & ((np.minimum(t, s) < MARGINAL)
                     | (np.maximum(t, s) > 1 - MARGINAL))):
        raise LoopConstructionFailed("marginal intersection between loops")
    return int(np.sign(cross2(a1 - a0, b1 - b0))[hit].sum())


def pick_crossing_point(cuts, idx, delta, avoid=()):
    """Point on cut ``idx`` whose perpendicular stub of half-length delta
    clears every other cut and all previously used crossing points."""
    a, b = cuts[idx]
    n = 1j * (b - a) / abs(b - a)
    others = np.array(cuts[:idx] + cuts[idx + 1:], dtype=complex).reshape(-1, 2)
    for frac in (0.5, 0.42, 0.58, 0.34, 0.66, 0.26, 0.74, 0.18, 0.82):
        x = a + (b - a) * frac
        p, q = x - delta * n, x + delta * n
        if (all(abs(x - t) > 2.5 * delta for t in avoid)
                and not crossings(p, q, *others.T)[2].any()
                and not np.any(point_segment_distance(x, *others.T)
                               < 2.5 * delta)):
            return x
    raise LoopConstructionFailed(f"no clear crossing point on cut {idx}")


def ellipse_loop(center, axis_unit, semi_major, semi_minor, n_sides=24):
    """Counterclockwise elliptical polyline around ``center``; the major
    axis points along ``axis_unit``."""
    th = 2.0 * np.pi * np.arange(n_sides) / n_sides
    return list(center + axis_unit * (semi_major * np.cos(th)
                                      + 1j * semi_minor * np.sin(th)))

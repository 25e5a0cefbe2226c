"""Plane geometry over complex coordinates: segment intersections,
obstacle-avoiding routing, and sheet-tracked polylines.

Branch cuts are straight segments between paired branch points.  A path in
the cut plane is a polyline; every transversal crossing of a cut flips the
sheet of the square root carried along the path.  All routines here are
deterministic functions of their inputs so that downstream period matrices
and monodromy loops are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import LoopConstructionFailed, RoutingFailure

# Parameter slack when classifying a crossing as interior to both segments.
CROSS_TOL = 1e-11
# Crossings closer than this to a segment endpoint are ambiguous; loop
# builders treat them as construction failures and retry with new geometry.
MARGINAL = 1e-9


def cross2(u: complex, v: complex) -> float:
    """Scalar cross product of the plane vectors u and v."""
    return (np.conj(u) * v).imag


def segment_crossing(z0, z1, a, b, tol=CROSS_TOL):
    """Intersection of segments [z0,z1] and [a,b].

    Returns (t, s) with z0 + t*(z1-z0) = a + s*(b-a), or None when the
    segments are disjoint, parallel, or degenerate.
    """
    d1, d2 = z1 - z0, b - a
    scale = abs(d1) * abs(d2)
    if scale == 0.0:
        return None
    den = cross2(d1, d2)
    if abs(den) < 1e-14 * scale:
        return None
    t = -cross2(d2, z0 - a) / cross2(d2, d1)
    s = cross2(d1, z0 - a) / cross2(d1, d2)
    if -tol <= t <= 1 + tol and -tol <= s <= 1 + tol:
        return t, s
    return None


def point_segment_distance(p, a, b):
    d = b - a
    len2 = abs(d) ** 2
    if len2 == 0.0:
        return abs(p - a)
    t = np.clip((np.conj(d) * (p - a)).real / len2, 0.0, 1.0)
    return abs(p - a - t * d)


def route(z0, z1, cuts, margin, clear_points=()):
    """Deterministic polyline from z0 to z1 that crosses no cut.

    Shortest path in a visibility graph whose nodes are the endpoints plus
    corner points fanned around every cut endpoint at radius ``margin``.
    Entries of ``clear_points`` are either points, kept at 0.6*margin, or
    (point, radius) pairs with their own clearance; edges passing closer
    are rejected, which keeps routed legs away from branch points.
    """
    clear = [c if isinstance(c, tuple) else (c, 0.6 * margin)
             for c in clear_points]

    def blocked(p, q):
        for a, b in cuts:
            if segment_crossing(p, q, a, b) is not None:
                return True
        for c, r in clear:
            if (point_segment_distance(c, p, q) < r
                    and abs(c - p) > 1e-13 and abs(c - q) > 1e-13):
                return True
        return False

    if not blocked(z0, z1):
        return [z0, z1]
    nodes = [z0, z1]
    for a, b in cuts:
        u = (b - a) / abs(b - a)
        n = 1j * u
        for end, out in ((a, -u), (b, u)):
            nodes.append(end + margin * (out + n))
            nodes.append(end + margin * (out - n))
            nodes.append(end + margin * np.sqrt(2.0) * out)
    m = len(nodes)
    dist = np.full(m, np.inf)
    prev = np.full(m, -1, dtype=int)
    dist[0] = 0.0
    done = np.zeros(m, dtype=bool)
    for _ in range(m):
        u_idx, best = -1, np.inf
        for i in range(m):
            if not done[i] and dist[i] < best - 1e-15:
                best, u_idx = dist[i], i
        if u_idx < 0 or u_idx == 1:
            break
        done[u_idx] = True
        for v_idx in range(m):
            if done[v_idx] or blocked(nodes[u_idx], nodes[v_idx]):
                continue
            nd = dist[u_idx] + abs(nodes[v_idx] - nodes[u_idx])
            if nd < dist[v_idx] - 1e-12:
                dist[v_idx] = nd
                prev[v_idx] = u_idx
    if not np.isfinite(dist[1]):
        raise RoutingFailure(
            f"no cut-avoiding path from {z0:.4g} to {z1:.4g}")
    order = [1]
    while order[-1] != 0:
        order.append(prev[order[-1]])
    return [nodes[i] for i in reversed(order)]


def split_polyline(cuts, vertices, closed=True, start_sign=1.0):
    """Split a polyline at cut crossings into sheet-constant pieces.

    Returns (pieces, events): pieces is a list of (z_start, z_end, sign)
    with sign in {+1,-1} flipping at every crossing; events records
    (cut_index, sign_before_crossing) in traversal order.  A closed loop
    must return to its starting sheet.
    """
    pieces = []
    events = []
    sign = start_sign
    verts = [complex(v) for v in vertices]
    if closed:
        seg_iter = list(zip(verts, verts[1:] + verts[:1]))
    else:
        seg_iter = list(zip(verts, verts[1:]))
    for z0, z1 in seg_iter:
        hits = []
        for idx, (a, b) in enumerate(cuts):
            r = segment_crossing(z0, z1, a, b)
            if r is not None:
                if min(r) < MARGINAL or max(r) > 1 - MARGINAL:
                    raise LoopConstructionFailed(
                        "path grazes a cut endpoint; needs different geometry")
                hits.append((r[0], idx))
        hits.sort()
        bounds = [0.0] + [t for t, _ in hits] + [1.0]
        for i in range(len(bounds) - 1):
            za = z0 + (z1 - z0) * bounds[i]
            zb = z0 + (z1 - z0) * bounds[i + 1]
            pieces.append((za, zb, sign))
            if i < len(bounds) - 2:
                events.append((hits[i][1], sign))
                sign = -sign
    if closed and sign != start_sign:
        raise LoopConstructionFailed("loop does not close on its starting sheet")
    return pieces, events


def intersection_number(pieces_a, pieces_b):
    """Signed intersection number of two sheet-tracked loops.

    Crossings count only when both loops sit on the same sheet there; the
    sign is the orientation of the tangent frame.
    """
    total = 0
    for a0, a1, sa in pieces_a:
        for b0, b1, sb in pieces_b:
            if sa != sb:
                continue
            r = segment_crossing(a0, a1, b0, b1)
            if r is None:
                continue
            if min(r) < MARGINAL or max(r) > 1 - MARGINAL:
                raise LoopConstructionFailed(
                    "marginal intersection between loops")
            total += int(np.sign(cross2(a1 - a0, b1 - b0)))
    return total


def pick_crossing_point(cuts, idx, delta, avoid=()):
    """Point on cut ``idx`` whose perpendicular stub of half-length delta
    clears every other cut and all previously used crossing points."""
    a, b = cuts[idx]
    n = 1j * (b - a) / abs(b - a)
    for frac in (0.5, 0.42, 0.58, 0.34, 0.66, 0.26, 0.74, 0.18, 0.82):
        x = a + (b - a) * frac
        p, q = x - delta * n, x + delta * n
        ok = all(abs(x - t) > 2.5 * delta for t in avoid)
        for j, cut in enumerate(cuts):
            if not ok:
                break
            if j == idx:
                continue
            if (segment_crossing(p, q, *cut) is not None
                    or point_segment_distance(x, *cut) < 2.5 * delta):
                ok = False
        if ok:
            return x
    raise LoopConstructionFailed(f"no clear crossing point on cut {idx}")


def ellipse_loop(center, axis_unit, semi_major, semi_minor, n_sides=24):
    """Counterclockwise elliptical polyline around ``center``; the major
    axis points along ``axis_unit``."""
    th = 2.0 * np.pi * np.arange(n_sides) / n_sides
    return list(center + axis_unit * (semi_major * np.cos(th)
                                      + 1j * semi_minor * np.sin(th)))

"""Plane geometry over complex coordinates: segment intersections,
obstacle-avoiding routing, and sheet-tracked polylines.

Branch cuts are straight segments between paired branch points.  A path in
the cut plane is a polyline; every transversal crossing of a cut flips the
sheet of the square root carried along the path.  All routines here are
deterministic functions of their inputs so that downstream period matrices
and monodromy loops are reproducible bit for bit.  Crossing tests broadcast:
one call tests every segment of a path against every cut, and every edge of
a routing graph against every cut and clearance point.
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


def route(z0, z1, cuts, margin, clear_points=()):
    """Deterministic polyline from z0 to z1 that crosses no cut.

    Shortest path in a visibility graph whose nodes are the endpoints plus
    corner points fanned around every cut endpoint at radius ``margin``.
    An edge is blocked when it crosses a cut or passes closer than
    0.6*margin to one of ``clear_points`` other than its own ends, which
    keeps routed legs away from branch points.  All node pairs are tested
    in one broadcast: ``blocked[i, j]`` for the edge from node i to node j.
    """
    nodes = [z0, z1]
    for a, b in cuts:
        u = (b - a) / abs(b - a)
        n = 1j * u
        for end, out in ((a, -u), (b, u)):
            nodes.append(end + margin * (out + n))
            nodes.append(end + margin * (out - n))
            nodes.append(end + margin * np.sqrt(2.0) * out)
    zs = np.array(nodes, dtype=complex)
    p, q = zs[:, None, None], zs[None, :, None]
    ab = np.array(cuts, dtype=complex).reshape(-1, 2)
    blocked = crossings(p, q, ab[:, 0], ab[:, 1])[2].any(axis=2)
    c = np.asarray(clear_points, dtype=complex)
    near = ((point_segment_distance(c, p, q) < 0.6 * margin)
            & (np.abs(c - p) > 1e-13) & (np.abs(c - q) > 1e-13))
    blocked |= near.any(axis=2)
    if not blocked[0, 1]:
        return [z0, z1]
    length = np.abs(zs[None, :] - zs[:, None])
    m = len(nodes)
    dist = np.full(m, np.inf)
    prev = np.full(m, -1, dtype=int)
    dist[0] = 0.0
    done = np.zeros(m, dtype=bool)
    for _ in range(m):
        u_idx, best = -1, np.inf
        for i, (d, fixed) in enumerate(zip(dist.tolist(), done.tolist())):
            if not fixed and d < best - 1e-15:
                best, u_idx = d, i
        if u_idx < 0 or u_idx == 1:
            break
        done[u_idx] = True
        nd = dist[u_idx] + length[u_idx]
        better = ~done & ~blocked[u_idx] & (nd < dist - 1e-12)
        dist[better] = nd[better]
        prev[better] = u_idx
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

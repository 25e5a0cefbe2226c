"""Adaptive quadrature on straight segments and circles.

All period and contour integrals in this package run through here.  The
segment routine is Gauss-Legendre: it doubles the node count until two
successive approximations agree; when doubling stalls (integrand with
nearby singularities off the ends of a long segment) it bisects the segment
and recurses, which restores geometric convergence.  It takes a stack of
segments as well as one, so a polyline costs one integrand call per node
count and sheet, not one per piece, and ``integrate_pieces`` stacks the
pieces of many paths the same way; each segment still converges, and is
bisected, on its own, so a path's integral does not depend on the paths
stacked with it.

The circle routine is a nested trapezoid rule.  The nodes of the 2n-node
rule are those of the n-node rule plus the n odd nodes between them, so a
doubling evaluates the integrand only on the new nodes.  On a circle of
radius rho whose nearest singularity off the centre lies at distance R,
the error of the n-node rule falls like (rho / R)^n.  The circles of the
deformation checks in ``isomonodromy`` take rho a quarter of the distance
to the nearest other branch point, so an integrand whose only other
singularities are the branch points has an error falling like 4^-n: 32
nodes already sit at rounding level, so the rule starts there and the
first doubling confirms it at 64 nodes.  An integrand with a closer
singularity keeps doubling until two successive rules agree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure

GL_SIZES = (24, 48, 96, 192, 384, 768, 1536)


@lru_cache(maxsize=32)
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def integrate_segment(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
    """Integral of vector-valued f(lambda) along the segment [z0, z1], or
    along each of the segments stacked in z0, z1 of shape (P,).

    f maps an array of points to an array whose last axis indexes the
    points; it is called once per Gauss-Legendre size, on the nodes of the
    segments not yet converged.  Each segment doubles its size until two
    agree; those that stall are bisected, the halves stacked in one call.
    Stacked results carry a leading axis of length P.
    """
    stacked = np.ndim(z0) > 0
    z0, z1 = (z.astype(complex) for z in np.atleast_1d(z0, z1))
    h, mid = 0.5 * (z1 - z0), 0.5 * (z0 + z1)
    out, prev = [None] * len(z0), [None] * len(z0)
    todo = list(range(len(z0)))
    for n in GL_SIZES:
        if not todo:
            break
        x, w = _gl_nodes(n)
        vals = f((mid[todo, None] + h[todo, None] * x).ravel())
        lead = vals.shape[:-1]
        # (segment, value, node); one product per segment, shaped as for a
        # lone segment: BLAS rounds a product with more rows differently
        vals = np.moveaxis(vals.reshape(-1, len(todo), n), 1, 0).copy()
        stalled = []
        for j, k in enumerate(todo):
            cur = h[k] * np.dot(vals[j], w[:, None]).reshape(lead)
            if prev[k] is not None:
                err = np.abs(cur - prev[k]).max()
                scale = max(np.abs(cur).max(), 1.0)
                if err <= tol * scale:
                    out[k] = cur
                    continue
            prev[k] = cur
            stalled.append(k)
        todo = stalled
    if todo:
        if _depth >= max_depth:
            raise QuadratureFailure("segment integral fails to converge near "
                                    f"[{z0[todo[0]]:.4g}, {z1[todo[0]]:.4g}]")
        halves = integrate_segment(f, np.append(z0[todo], mid[todo]),
                                   np.append(mid[todo], z1[todo]),
                                   tol, max_depth, _depth + 1)
        for j, k in enumerate(todo):
            out[k] = halves[j] + halves[len(todo) + j]
    return np.stack(out) if stacked else out[0]


def integrate_pieces(f, paths, tol=1e-12):
    """Sums of signed segment integrals over sheet-tracked paths, one per
    path, stacked along a leading axis.

    A path is a list of pieces (z_start, z_end, sign); f(points, sign)
    returns the integrand sampled on the indicated sheet.  The pieces of
    one sheet, over all paths, are integrated in one stacked call; a
    segment's integral does not depend on what is stacked with it, and
    each path adds its parts in piece order, so a path's sum is the same
    alone or among many.
    """
    flat = [piece for path in paths for piece in path]
    parts = [None] * len(flat)
    for sign in dict.fromkeys(s for _, _, s in flat):
        idx = [k for k, piece in enumerate(flat) if piece[2] == sign]
        vals = integrate_segment(lambda z: f(z, sign),
                                 [flat[k][0] for k in idx],
                                 [flat[k][1] for k in idx], tol)
        for k, v in zip(idx, vals):
            parts[k] = v
    sums, start = [], 0
    for path in paths:
        own = parts[start:start + len(path)]
        sums.append(sum(own[1:], own[0]))
        start += len(path)
    return np.stack(sums)


def integrate_substituted(f, tol=1e-12):
    """Integral of f over t in [-pi/2, pi/2] by adaptive Gauss-Legendre.

    Used with the sine substitution that removes inverse square-root
    endpoint singularities of cut-collapsed period integrals.
    """
    return integrate_segment(f, -np.pi / 2, np.pi / 2, tol=tol)


def integrate_circle(f, center, radius, tol=1e-11, max_n=16384, phase=0.0):
    """Counterclockwise contour integral of f around a circle.

    Nested trapezoid rule from 32 nodes, doubled until two successive
    rules agree; spectrally accurate for integrands analytic in an annulus
    around the contour.  Each doubling calls f once, on the new odd nodes
    phase + 2 pi (2k+1) / (2n) only, and adds them to the kept sum, so a
    circle that converges at 64 nodes costs 64 evaluations.  A nonzero
    phase rotates the nodes, which keeps them off straight singular lines
    through the center.
    """
    center = complex(center)

    def node_sum(th):
        e = radius * np.exp(1j * th)
        return np.tensordot(f(center + e), 1j * e, axes=([-1], [0]))

    n = 32
    total = node_sum(phase + 2.0 * np.pi * np.arange(n) / n)
    prev = total * (2.0 * np.pi / n)
    while 2 * n <= max_n:
        total = total + node_sum(
            phase + 2.0 * np.pi * np.arange(1, 2 * n, 2) / (2 * n))
        n *= 2
        cur = total * (2.0 * np.pi / n)
        err = np.max(np.abs(cur - prev))
        scale = max(np.max(np.abs(cur)), 1.0)
        if err <= tol * scale:
            return cur
        prev = cur
    raise QuadratureFailure(
        f"circle integral at {center:.4g} (radius {radius:.3g}) stalled")

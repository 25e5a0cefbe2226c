import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import rhtheta.geometry as geo_mod
import rhtheta.hyperelliptic as hyp_mod
import rhtheta.quadrature as quad_mod
import rhtheta.rh_solver as rh_mod
from rhtheta.cli import main
from rhtheta.errors import (LoopConstructionFailed, QuadratureFailure,
                            RoutingFailure)
from rhtheta.geometry import (
    CROSS_TOL,
    MARGINAL,
    RouteTree,
    cross2,
    intersection_number,
    pick_crossing_point,
    point_segment_distance,
    route,
    segment_crossing,
    split_polyline,
)
from rhtheta.hyperelliptic import HyperellipticCurve, compute_periods
from rhtheta.quadrature import (GL_SIZES, _gl_nodes, integrate_circle,
                                integrate_pieces, integrate_segment)
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_segment_crossing_basic():
    r = segment_crossing(0, 2, 1 - 1j, 1 + 1j)
    assert r is not None
    t, s = r
    assert abs(t - 0.5) < 1e-14 and abs(s - 0.5) < 1e-14
    assert segment_crossing(0, 1, 2 + 1j, 3 + 1j) is None
    # parallel
    assert segment_crossing(0, 1, 1j, 1 + 1j) is None
    # degenerate
    assert segment_crossing(0, 0, -1j, 1j) is None


def test_point_segment_distance():
    assert abs(point_segment_distance(1j, -1, 1) - 1.0) < 1e-14
    assert abs(point_segment_distance(3, -1, 1) - 2.0) < 1e-14


def test_route_avoids_cut():
    cuts = [(-1, 1)]
    path = route(-1j, 1j, cuts, margin=0.3, clear_points=[-1, 1])
    for z0, z1 in zip(path, path[1:]):
        assert segment_crossing(z0, z1, -1, 1) is None
    assert abs(path[0] + 1j) < 1e-14 and abs(path[-1] - 1j) < 1e-14


def test_route_direct_when_clear():
    assert route(0, 1j, [(2, 3)], margin=0.1) == [0, 1j]


def test_route_failure_when_boxed():
    # target surrounded by four tight cuts: no corridor at this margin
    cuts = [(-1 - 1j, 1 - 1j), (1 - 1j, 1 + 1j), (1 + 1j, -1 + 1j),
            (-1 + 1j, -1 - 1j)]
    with pytest.raises(RoutingFailure):
        route(0, 5, cuts, margin=0.05)


def test_split_polyline_events_and_signs():
    cuts = [(-1, 1)]
    square = [-0.5 - 1j, 0.5 - 1j, 0.5 + 1j, -0.5 + 1j]
    pieces, events = split_polyline(cuts, square, closed=True)
    assert events == [(0, 1.0), (0, -1.0)]
    signs = {round(p[2]) for p in pieces}
    assert signs == {1, -1}


def test_split_polyline_open_path_flips_once():
    pieces, events = split_polyline([(-1, 1)], [-1j, 1j], closed=False)
    assert len(events) == 1
    assert pieces[0][2] == 1.0 and pieces[-1][2] == -1.0


def test_split_polyline_rejects_graze():
    with pytest.raises(LoopConstructionFailed):
        split_polyline([(-1, 1)], [1 - 1j, 1 + 1j, 3 + 1j, 3 - 1j],
                       closed=True)


def test_intersection_number_same_sheet_only():
    cuts = [(-1, 1)]
    # vertical crossing segment flips sheets at the cut
    vert, _ = split_polyline(cuts, [-1j, 1j, 0.5 + 1j, 0.5 - 1j],
                             closed=True)
    horiz, _ = split_polyline(cuts, [-2 + 0.5j, 2 + 0.5j, 2 + 2j, -2 + 2j],
                              closed=True)
    n = intersection_number(vert, horiz)
    assert isinstance(n, int)


def test_pick_crossing_point_clearance():
    cuts = [(-1, 1), (0.5 + 0.2j, 0.5 + 1.2j)]
    x = pick_crossing_point(cuts, 0, delta=0.05)
    assert abs(x.imag) < 1e-14 and -1 < x.real < 1
    # the default midpoint is too close to the second cut
    assert abs(x - (0.5 + 0.2j)) > 2.5 * 0.05


def test_integrate_segment_polynomial():
    val = integrate_segment(lambda z: 3 * z ** 2, 0, 1 + 1j)
    assert abs(val - (1 + 1j) ** 3) < 1e-12


def test_integrate_segment_bisects_near_singularity():
    # pole just off the middle of a long segment stalls plain doubling
    val = integrate_segment(lambda z: 1.0 / (z - (0.5 + 1e-2j)),
                            -50.0, 50.0, tol=1e-12)
    exact = (np.log(50 - (0.5 + 1e-2j)) - np.log(-50 - (0.5 + 1e-2j)))
    assert abs(val - exact) < 1e-9


def test_integrate_circle_residue():
    val = integrate_circle(lambda z: 1.0 / (z - 0.3), 0.3, 0.7)
    assert abs(val - 2j * np.pi) < 1e-12
    val2 = integrate_circle(lambda z: 1.0 / (z - 5.0), 0.0, 1.0)
    assert abs(val2) < 1e-12


def _full_trapezoid(f, center, radius, n, phase):
    th = phase + 2.0 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * th)
    dz = 1j * radius * np.exp(1j * th) * (2.0 * np.pi / n)
    return np.tensordot(f(z), dz, axes=([-1], [0]))


def test_integrate_circle_evaluates_each_node_once():
    # 32 nodes, then the 32 odd nodes of the 64-node rule, which converges
    seen = []

    def f(z):
        seen.extend(z)
        return 1.0 / (z - 5.0)

    integrate_circle(f, 0.0, 1.0, phase=0.37)
    assert len(seen) == len(set(seen)) == 64
    th = 0.37 + 2.0 * np.pi * np.arange(64) / 64
    assert set(seen) == set(np.exp(1j * th))


def test_nested_circle_matches_a_full_trapezoid():
    # the kept sum plus the new nodes gives the full rule at the final n
    def scalar(z):
        return 1.0 / (z - 0.2) + 1.0 / (z - 2.0)

    def stacked(z):
        b = np.exp(z) / (z + 0.1j) + z ** 2 / (z - 1.3j)
        return np.array([[scalar(z), b], [b * z, 1.0 / (z + 1.3)]])

    for f in (scalar, stacked):
        seen = []

        def counted(z):
            seen.extend(z)
            return f(z)

        got = integrate_circle(counted, 0.1, 1.0, phase=0.37)
        ref = _full_trapezoid(f, 0.1, 1.0, len(seen), 0.37)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_integrate_circle_doubles_past_64_nodes():
    # a pole at 1.1x the radius: the error falls like 1.1^-n, so 64 nodes
    # are far off and the rule keeps doubling to the exact value
    seen = []

    def f(z):
        seen.extend(z)
        return 1.0 / (z - 0.3) + 1.0 / (z - 1.1)

    assert abs(integrate_circle(f, 0.0, 1.0) - 2j * np.pi) < 1e-10
    assert len(seen) > 64
    with pytest.raises(QuadratureFailure, match="stalled"):
        integrate_circle(f, 0.0, 1.0, max_n=64)


def test_cross2_orientation():
    assert cross2(1, 1j) > 0
    assert cross2(1j, 1) < 0
    assert cross2(1 + 1j, 2 + 2j) == 0


def test_stacked_segment_failure_names_its_piece_in_lambda():
    # a jump at 2.3 never converges; of three stacked pieces the third
    # fails, and the message brackets the jump in lambda
    def f(z):
        return np.where(z.real < 2.3, 1.0, 2.0) + 0j

    with pytest.raises(QuadratureFailure) as info:
        integrate_segment(f, np.array([0.0, 1.0, 2.0]),
                          np.array([1.0, 2.0, 3.0]), max_depth=3)
    msg = str(info.value)
    lo, hi = (complex(v).real for v in msg[msg.index("[") + 1:-1].split(", "))
    assert 2.0 <= lo < 2.3 < hi <= 3.0


# -- scalar references of the path layer -------------------------------------
#
# Copies of the loops the array code replaced.  The array code must make the
# same decisions and produce the same bits on every path of a solve and of
# seeded random curves.

def _ref_cross2(u, v):
    return (np.conj(u) * v).imag


def _ref_segment_crossing(z0, z1, a, b, tol=CROSS_TOL):
    d1, d2 = z1 - z0, b - a
    scale = abs(d1) * abs(d2)
    if scale == 0.0:
        return None
    den = _ref_cross2(d1, d2)
    if abs(den) < 1e-14 * scale:
        return None
    t = -_ref_cross2(d2, z0 - a) / _ref_cross2(d2, d1)
    s = _ref_cross2(d1, z0 - a) / _ref_cross2(d1, d2)
    if -tol <= t <= 1 + tol and -tol <= s <= 1 + tol:
        return t, s
    return None


def _ref_point_segment_distance(p, a, b):
    d = b - a
    len2 = abs(d) ** 2
    if len2 == 0.0:
        return abs(p - a)
    t = min(max((np.conj(d) * (p - a)).real / len2, 0.0), 1.0)
    return abs(p - a - t * d)


@lru_cache(maxsize=1 << 16)
def _ref_blocked(p, q, cuts, margin, clear_points):
    for a, b in cuts:
        if _ref_segment_crossing(p, q, a, b) is not None:
            return True
    for c in clear_points:
        if (_ref_point_segment_distance(c, p, q) < 0.6 * margin
                and abs(c - p) > 1e-13 and abs(c - q) > 1e-13):
            return True
    return False


def _ref_route(z0, z1, cuts, margin, clear_points=()):
    """One pure-Python ``blocked`` test per node pair (kept across calls
    with the same graph)."""
    graph = (tuple((complex(a), complex(b)) for a, b in cuts), margin,
             tuple(complex(c) for c in clear_points))

    def blocked(p, q):
        return _ref_blocked(complex(p), complex(q), *graph)

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
        raise RoutingFailure("no cut-avoiding path")
    order = [1]
    while order[-1] != 0:
        order.append(prev[order[-1]])
    return [nodes[i] for i in reversed(order)]


def _ref_split_polyline(cuts, vertices, closed=True, start_sign=1.0):
    """One scalar crossing test per segment and cut."""
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
            r = _ref_segment_crossing(z0, z1, a, b)
            if r is not None:
                if min(r) < MARGINAL or max(r) > 1 - MARGINAL:
                    raise LoopConstructionFailed("graze")
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
        raise LoopConstructionFailed("open")
    return pieces, events


def _ref_segment(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
    """One segment at a time, bisecting left then right."""
    z0, z1 = complex(z0), complex(z1)
    h = 0.5 * (z1 - z0)
    mid = 0.5 * (z0 + z1)
    prev = None
    for n in GL_SIZES:
        x, w = _gl_nodes(n)
        cur = h * np.tensordot(f(mid + h * x), w, axes=([-1], [0]))
        if prev is not None:
            err = np.max(np.abs(cur - prev))
            if err <= tol * max(np.max(np.abs(cur)), 1.0):
                return cur
        prev = cur
    if _depth >= max_depth:
        raise QuadratureFailure("stalled")
    return (_ref_segment(f, z0, mid, tol, max_depth, _depth + 1)
            + _ref_segment(f, mid, z1, tol, max_depth, _depth + 1))


def _ref_pieces(f, pieces, tol=1e-12):
    total = None
    for z0, z1, sign in pieces:
        part = _ref_segment(lambda z: f(z, sign), z0, z1, tol)
        total = part if total is None else total + part
    return total


def _same_outcome(new, ref, *args, **kwargs):
    """new(*args) equals ref(*args) exactly, or both raise the same type."""
    try:
        want = ref(*args, **kwargs)
    except (RoutingFailure, LoopConstructionFailed) as exc:
        with pytest.raises(type(exc)):
            new(*args, **kwargs)
        raise
    got = new(*args, **kwargs)
    return got, want


def _compare_path_layer(monkeypatch):
    """Patch route trees, split_polyline and integrate_pieces wherever
    the package calls them with versions that check against the scalar
    references: every route (a one-off route is a tree's one path) and
    every path's sum of a many-path integral; returns the list of checked
    calls by kind (one entry per path)."""
    seen = {"route": [], "split": [], "pieces": []}
    path_, split_, pieces_ = (geo_mod.RouteTree.path, split_polyline,
                              integrate_pieces)

    def replayed(tree, z1):
        got, want = _same_outcome(lambda *_: path_(tree, z1), _ref_route,
                                  tree.z0, z1, tree.cuts, tree.margin,
                                  tree.clear_points)
        assert got == want
        seen["route"].append(got)
        return got

    def split(*args, **kwargs):
        got, want = _same_outcome(split_, _ref_split_polyline, *args, **kwargs)
        assert got == want
        seen["split"].append(got)
        return got

    def pieces(f, paths, tol=1e-12):
        got = pieces_(f, paths, tol)
        assert len(got) == len(paths)
        for sum_, ps in zip(got, paths):
            assert sum_.tobytes() == _ref_pieces(f, ps, tol).tobytes()
            seen["pieces"].append(len(ps))
        return got

    monkeypatch.setattr(geo_mod.RouteTree, "path", replayed)
    for mod in (hyp_mod, rh_mod):
        monkeypatch.setattr(mod, "split_polyline", split)
    for mod in (hyp_mod, rh_mod):
        monkeypatch.setattr(mod, "integrate_pieces", pieces)
    return seen


@pytest.mark.parametrize("genus", [1, 2])
def test_sample_solve_paths_match_scalar_reference(genus, monkeypatch):
    # every route, split and piecewise integral of the solve report
    seen = _compare_path_layer(monkeypatch)
    assert main(["solve", "--curve", str(SAMPLES / f"curve_g{genus}.json"),
                 "--char", str(SAMPLES / f"char_g{genus}.json"),
                 "--output", os.devnull]) == 0
    assert any(len(r) > 2 for r in seen["route"])
    assert len(seen["split"]) > 20 and len(seen["pieces"]) > 20


def _random_curve(rng, g, minsep=0.3, gap=(0.25, np.inf)):
    """Branch points in [-2, 2]^2, minsep apart, the smallest distance from
    a branch point to a cut it does not bound strictly inside gap."""
    while True:
        pts = rng.uniform(-2, 2, 2 * g + 2) + 1j * rng.uniform(-2, 2, 2 * g + 2)
        try:
            curve = HyperellipticCurve(pts)
        except hyp_mod.CrossingCuts:
            continue
        if curve.min_separation > minsep and gap[0] < min(
                _ref_point_segment_distance(p, a, b)
                for p in curve.points for a, b in curve.cuts
                if p != a and p != b) < gap[1]:
            return curve


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_random_curve_paths_match_scalar_reference(genus, monkeypatch):
    # every route, split and piecewise integral of compute_periods, of the
    # Abel map at every branch point and of all monodromy loops on a seeded
    # random curve
    rng = np.random.default_rng([7, genus])
    curve = _random_curve(rng, genus)
    seen = _compare_path_layer(monkeypatch)
    pd = compute_periods(curve)
    pd.branch_abel()
    char = ThetaChar(tuple(rng.uniform(-0.2, 0.2, genus)),
                     tuple(rng.uniform(-0.2, 0.2, genus)))
    RHSolution(pd, char, 0.1 + 2.4j).monodromies()
    assert len(seen["route"]) >= 2 * genus + len(curve.points)
    assert any(len(r) > 2 for r in seen["route"])
    assert len(seen["pieces"]) >= genus + len(curve.points)


def test_stacked_pieces_bisect_beside_converged_ones(monkeypatch):
    # one stacked call per sheet; the long piece past the pole bisects while
    # its neighbours on the same sheet converge, bit for bit as one by one
    pole = 0.5 + 1e-2j

    def f(z, s):
        return np.vstack([s / (z - pole), s * z ** 2])

    ps = [(-50.0, 50.0, 1.0), (50.0, 50.0 + 1j, -1.0),
          (50.0 + 1j, 40.0 + 1j, 1.0), (40.0 + 1j, 41.0 - 1j, -1.0)]
    depths = []
    segment = quad_mod.integrate_segment

    def traced(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
        depths.append((_depth, np.size(z0)))
        return segment(f, z0, z1, tol, max_depth, _depth)

    monkeypatch.setattr(quad_mod, "integrate_segment", traced)
    got = integrate_pieces(f, [ps])
    assert got.shape == (1, 2)
    assert got[0].tobytes() == _ref_pieces(f, ps).tobytes()
    assert (0, 2) in depths and any(d > 0 for d, _ in depths)
    # many paths: still one stacked call per sheet, each sum unchanged
    paths = [ps, ps[1:], ps[:1], ps[2:3]]
    depths.clear()
    got = integrate_pieces(f, paths)
    assert [d for d in depths if d[0] == 0] == [(0, 5), (0, 4)]
    for sum_, path in zip(got, paths):
        assert sum_.tobytes() == _ref_pieces(f, path).tobytes()


def test_tree_routes_match_the_reference_on_a_sweep():
    # seeded g1-g4 curves, plain and with tight cuts, two sources each, all
    # four clearance rungs of sheet1_route, 30 targets per source and rung:
    # each tree route equals the one-target scalar reference bit for bit,
    # or both raise.  The reference lists the target among the corners; no
    # swept target meets a corner whose distance ties its own within
    # 2e-15, where the two rules could settle corners in another order.
    # The one-target route, a fresh tree, is checked on every tenth target
    routed = failed = 0
    for g in (1, 2, 3, 4):
        for tight in (False, True):
            rng = np.random.default_rng([11, g, tight])
            curve = _random_curve(rng, g, 0.5,
                                  (0.0, 0.05) if tight else (0.25, np.inf))
            for _ in range(2):
                z0 = complex(*rng.uniform(-2.5, 2.5, 2))
                for frac in hyp_mod._ROUTE_FRACS:
                    margin = frac * curve.min_separation
                    tree = RouteTree(z0, curve.cuts, margin, curve.points)
                    for k in range(30):
                        z1 = complex(*rng.uniform(-2.5, 2.5, 2))
                        try:
                            want = _ref_route(z0, z1, curve.cuts, margin,
                                              curve.points)
                        except RoutingFailure:
                            with pytest.raises(RoutingFailure):
                                tree.path(z1)
                            failed += 1
                            continue
                        assert tree.path(z1) == want
                        if len(want) > 2:
                            routed += 1
                            if k % 10 == 0:
                                assert route(z0, z1, curve.cuts, margin,
                                             curve.points) == want
    assert routed > 500 and failed > 0

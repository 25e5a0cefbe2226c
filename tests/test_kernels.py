import itertools
from pathlib import Path

import numpy as np
import pytest

import rhtheta.kernels as ker_mod
from rhtheta.errors import CharOnThetaDivisor, CoincidentPoints
from rhtheta.geometry import split_polyline
from rhtheta.hyperelliptic import (HyperellipticCurve, compute_periods,
                                   load_curve)
from rhtheta.isomonodromy import thomae_ratios
from rhtheta.kernels import (
    KernelContext,
    even_subset_characteristics,
    riemann_constant,
)
from rhtheta.quadrature import _gl_nodes
from rhtheta.theta import ThetaChar, half_characteristics, theta

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# branch points drawn in [-2, 2]^2, at least 0.5 apart, one genus-3 and one
# genus-4 curve
G3_POINTS = [1.058018751186387 + 1.52966235579771j,
             -0.2300350610643589 + 1.726115268436251j,
             -0.3627404530135818 - 1.6464447174986652j,
             1.866294164987127 + 1.5799438701291386j,
             -0.26347262313378916 - 0.030795003559425105j,
             1.303133193451901 + 0.38907636123889056j,
             -0.9554320403710492 + 0.6221638461743173j,
             1.5599019894211645 + 1.0791237675211716j]
G4_POINTS = [1.389022112454581 - 0.05357451808015856j,
             1.9263591599011503 - 0.6383045126786229j,
             0.8309337646267019 - 1.2089830325380735j,
             -0.4963604556145489 - 0.832068600446239j,
             -1.239275602936968 + 0.4009883814076276j,
             0.49348326060486647 - 0.12114812946205644j,
             1.9944146692285623 - 1.2833446490442109j,
             1.792717764006948 + 0.30991298367447806j,
             -1.691264641330457 + 0.7175609336685862j,
             -0.14546006376900422 + 1.4916395854099362j]


@pytest.fixture(scope="module")
def ctx1():
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    return KernelContext(pd, ThetaChar((0.11,), (-0.23,)))


@pytest.fixture(scope="module")
def ctx2():
    rng = np.random.default_rng(41)
    pts = np.array([-2.1 - 0.3j, -1.2 + 0.8j, -0.2 - 0.9j,
                    0.9 + 0.7j, 1.8 - 0.5j, 2.4 + 0.9j])
    pd = compute_periods(HyperellipticCurve(pts))
    ch = ThetaChar((0.07, -0.19), (0.31, 0.12))
    return KernelContext(pd, ch)


def _rand_point(ctx, rng):
    pts = ctx.periods.curve.points
    while True:
        z = rng.uniform(-3, 3) + 1j * rng.uniform(-2, 2)
        if min(abs(z - p) for p in pts) > 0.3:
            return (z, int(rng.integers(1, 3)))


def test_h_squared_matches_gradient_contraction(ctx1, ctx2):
    # square of the half-differential equals grad theta_star . v, which is
    # what makes the kernel diagonal exactly one
    rng = np.random.default_rng(1)
    for ctx in (ctx1, ctx2):
        for _ in range(5):
            lam, sheet = _rand_point(ctx, rng)
            h2 = ctx.h_squared(lam, sheet)
            v = ctx.periods.differentials(lam, 1.0 if sheet == 1 else -1.0)[:, 0]
            want = ctx.gstar @ v
            assert abs(h2 - want) < 1e-10 * max(1.0, abs(want))


def test_prime_form_antisymmetry(ctx2):
    rng = np.random.default_rng(2)
    P, Q = _rand_point(ctx2, rng), _rand_point(ctx2, rng)
    assert abs(ctx2.prime_form(P, Q) + ctx2.prime_form(Q, P)) < 1e-10


def test_szego_residue_is_one(ctx1, ctx2):
    # (lam_P - lam_Q) S(P,Q) -> 1 as Q -> P on the same sheet
    rng = np.random.default_rng(3)
    for ctx in (ctx1, ctx2):
        lam, sheet = _rand_point(ctx, rng)
        vals = []
        for eps in (1e-4, 5e-5):
            Q = (lam + eps * (0.6 + 0.8j), sheet)
            s = ctx.szego((lam, sheet), Q)
            vals.append((lam - Q[0]) * s)
        rich = 2 * vals[1] - vals[0]   # leading error is O(eps)
        assert abs(rich - 1.0) < 1e-7


def test_szego_bergmann_identity(ctx1, ctx2):
    rng = np.random.default_rng(5)
    for ctx in (ctx1, ctx2):
        g = ctx.periods.curve.genus
        dd = ctx.log_hess_char_at_zero()
        for _ in range(6):
            P, Q = _rand_point(ctx, rng), _rand_point(ctx, rng)
            if abs(P[0] - Q[0]) < 0.2:
                continue
            lhs = ctx.szego(P, Q) * ctx.szego(Q, P)
            vP = ctx.periods.differentials(P[0], 1.0 if P[1] == 1 else -1.0)[:, 0]
            vQ = ctx.periods.differentials(Q[0], 1.0 if Q[1] == 1 else -1.0)[:, 0]
            rhs = -ctx.bergmann(P, Q) - vP @ dd @ vQ
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_bergmann_double_pole(ctx2):
    rng = np.random.default_rng(7)
    lam, sheet = _rand_point(ctx2, rng)
    vals = []
    for eps in (1e-3, 5e-4):
        Q = (lam + eps * (0.28 - 0.96j), sheet)
        vals.append((lam - Q[0]) ** 2 * ctx2.bergmann((lam, sheet), Q))
    rich = (4 * vals[1] - vals[0]) / 3
    assert abs(rich - 1.0) < 1e-6


def sampled_path_integral(periods, vertices, f, closed=False, order=24):
    """Integral of f(z, U(z), sheet_sign) along a polyline on the surface.

    The Abel map is carried along the path: chunk endpoints get cumulative
    values, Gauss nodes inside a chunk get theirs by a short nested rule.
    Suited to kernel integrands, which need U at every node.
    """
    pd = periods
    pieces, _ = split_polyline(pd.curve.cuts, vertices, closed=closed)
    x, wts = _gl_nodes(order)
    xi, wi = _gl_nodes(12)
    U = pd.abel(vertices[0], sheet=1)
    step = 0.15 * pd.curve.min_separation
    total = 0.0 + 0.0j
    for z0, z1, sign in pieces:
        n_chunks = max(1, int(np.ceil(abs(z1 - z0) / step)))
        for c in range(n_chunks):
            a = z0 + (z1 - z0) * c / n_chunks
            b = z0 + (z1 - z0) * (c + 1) / n_chunks
            mid, h = 0.5 * (a + b), 0.5 * (b - a)
            nodes = mid + h * x
            # Abel values at the Gauss nodes, each from the chunk start
            Un = np.empty((len(nodes), pd.curve.genus), dtype=complex)
            for k, zn in enumerate(nodes):
                mm, hh = 0.5 * (a + zn), 0.5 * (zn - a)
                vv = pd.differentials(mm + hh * xi, sign)
                Un[k] = U + hh * (vv @ wi)
            total += h * np.sum([wts[k] * f(nodes[k], Un[k], sign)
                                 for k in range(len(nodes))])
            vv = pd.differentials(mid + h * x, sign)
            U = U + h * (vv @ wts)
    return total


def integrate_bergmann_over_loop(ctx, P, vertices):
    """Integral of w(P, .) over a closed loop in the second argument."""
    UP = ctx.abel(P)
    vP = ctx.periods.differentials(P[0], 1.0 if P[1] == 1 else -1.0)[:, 0]

    def f(z, Uz, sign):
        vQ = ctx.periods.differentials(z, sign)[:, 0]
        return -vP @ ctx.log_hess_odd(UP - Uz) @ vQ

    return sampled_path_integral(ctx.periods, vertices, f, closed=True)


def test_bergmann_periods(ctx2):
    # integrating the second argument around a_k kills the kernel; around
    # b_k it produces 2 pi i v_k at the first argument; the oracle above
    # carries the Abel map along each loop node by node
    pd = ctx2.periods
    P = (4.1 + 2.7j, 1)   # far from every loop: no pole nearby
    vP = pd.differentials(P[0], 1.0 if P[1] == 1 else -1.0)[:, 0]
    for k in range(pd.curve.genus):
        a_int = integrate_bergmann_over_loop(ctx2, P, pd.a_loop(k))
        assert abs(a_int) < 1e-8
        b_int = integrate_bergmann_over_loop(ctx2, P, pd.b_loops[k])
        assert abs(b_int - 2j * np.pi * vP[k]) < 1e-7 * max(1.0, abs(vP[k]))


def test_fay_identity_n2_n3(ctx1, ctx2):
    rng = np.random.default_rng(11)
    for ctx in (ctx1, ctx2):
        for n in (2, 3):
            for _ in range(3):
                xs = [_rand_point(ctx, rng) for _ in range(n)]
                ys = [_rand_point(ctx, rng) for _ in range(n)]
                lams = [p[0] for p in xs + ys]
                if min(abs(a - b) for i, a in enumerate(lams)
                       for b in lams[i + 1:]) < 0.25:
                    continue
                res = ctx.fay_residual(xs, ys)
                assert res < 1e-8


def test_riemann_constant_g1(ctx1):
    pd = ctx1.periods
    K = riemann_constant(pd)
    # genus one: the constant is the odd half period
    want = 0.5 * pd.B[0] + 0.5
    _, _, res = pd.lattice_decompose(K - want)
    assert np.max(np.abs(res)) < 1e-9


def test_riemann_constant_vanishing_property(ctx2):
    pd = ctx2.periods
    K = riemann_constant(pd)
    g = pd.curve.genus
    scale = abs(theta(np.zeros(g), pd.B))
    for m in range(len(pd.curve.points)):
        val = theta(K + pd.branch_abel()[:, m], pd.B)
        assert abs(val) < 1e-8 * scale


def _full_scan(pd):
    """Every half period against every branch point divisor, each theta
    value scaled by exp(-pi y.Y^-1 y); returns the candidate with the
    smallest worst value, that value and the runner-up's."""
    g = pd.curve.genus
    ctx = pd.theta_context
    U = [pd.branch_abel()[:, m] for m in range(len(pd.curve.points))]
    divisors = np.array([sum((U[m] for m in D), np.zeros(g, dtype=complex))
                         for D in itertools.combinations(range(len(U)), g - 1)])
    worst = []
    for ch in half_characteristics(g):
        p, q = ch.arrays()
        K = pd.B @ p + q
        z = (K + divisors).T
        y = z.imag
        vals = np.abs(theta(z, ctx)) * np.exp(
            -np.pi * np.einsum("an,ab,bn->n", y, ctx.Y_inv, y))
        worst.append((vals.max(), K))
    worst.sort(key=lambda w: w[0])
    scale = abs(theta(np.zeros(g), ctx))
    return worst[0][1], worst[0][0] / scale, worst[1][0] / scale


@pytest.mark.parametrize("curve", ["g1", "g2", "g3"])
def test_early_exit_scan_matches_the_full_scan(curve):
    if curve == "g3":
        pd = compute_periods(HyperellipticCurve(G3_POINTS))
    else:
        pd = compute_periods(load_curve(SAMPLES / f"curve_{curve}.json")[0])
    K, best, runner_up = _full_scan(pd)
    assert best < 1e-10 and runner_up > 1e-2
    assert np.array_equal(riemann_constant(pd), K)


def test_riemann_constant_scan_stops_losers_early(monkeypatch):
    # genus 3: 64 half periods against C(8, 2) = 28 divisors is 1,792
    # theta values for a full scan; a loser stops at its first divisor
    # that does not vanish, and the winner takes all 28
    pd = compute_periods(HyperellipticCurve(G3_POINTS))
    calls = []

    def counting(z, *args, **kwargs):
        calls.append(z)
        return theta(z, *args, **kwargs)

    monkeypatch.setattr(ker_mod, "theta", counting)
    riemann_constant(pd)
    assert 63 + 28 < len(calls) <= 200


def test_riemann_constant_scan_is_scale_free():
    # theta grows like exp(pi y.Y^-1 y); on this curve the unscaled value of
    # the winning half period reached 4e-5 of theta(0) and no candidate
    # passed the scan.  _full_scan(pd) takes about 10 s here; it picks
    # [p, q] = [(0, 1/2, 1/2, 1/2), (0, 0, 1/2, 1/2)] at 1.9e-13 of
    # theta(0), the runner-up reading 0.82
    pd = compute_periods(HyperellipticCurve(G4_POINTS))
    p, q = ThetaChar((0, 0.5, 0.5, 0.5), (0, 0, 0.5, 0.5)).arrays()
    assert np.array_equal(riemann_constant(pd), pd.B @ p + q)
    r = thomae_ratios(pd)
    assert len(r) == 126
    assert np.max(np.abs(np.abs(r) - 1.0)) < 1e-10


def test_odd_twist_characteristic_is_rejected(ctx2):
    # an odd half-integer characteristic has theta[char](0) = 0
    odd = ThetaChar((0.5, 0.0), (0.5, 0.0))
    assert odd.parity() == -1
    with pytest.raises(CharOnThetaDivisor):
        KernelContext(ctx2.periods, odd)


def test_prime_form_of_a_point_with_itself_is_rejected(ctx1):
    with pytest.raises(CoincidentPoints):
        ctx1.prime_form((0.5 + 0.5j, 1), (0.5 + 0.5j, 1))


def test_divisor_characteristics(ctx1, ctx2):
    for ctx, n_expected in ((ctx1, 3), (ctx2, 10)):
        pd = ctx.periods
        chars = even_subset_characteristics(pd)
        # genus g: even nonsingular subset characteristics number
        # (2g+2 choose g+1)/2
        assert len(chars) == n_expected
        for T, ch in chars:
            assert 0 in T
            assert ch.parity() == 1
            assert abs(theta(np.zeros(pd.curve.genus), pd.B, ch)) > 1e-6


def test_divisor_characteristic_roundtrip(ctx2):
    pd = ctx2.periods
    K = riemann_constant(pd)
    chars = even_subset_characteristics(pd)
    T, ch = chars[0]
    z = sum(pd.branch_abel()[:, m] for m in T) - K
    p, q = ch.arrays()
    _, _, res = pd.lattice_decompose(z - (pd.B @ p + q))
    assert np.max(np.abs(res)) < 1e-8


def test_projective_connection_finite_and_T_independent(ctx1):
    vals = [ctx1.projective_connection_at_branch_point(m)
            for m in range(2)]
    for v in vals:
        assert np.isfinite(v.real) and np.isfinite(v.imag)
    # independence of the subset choice
    pd = ctx1.periods
    chars = even_subset_characteristics(pd)
    r0 = ctx1.projective_connection_at_branch_point(0, subset=chars[0])
    r1 = ctx1.projective_connection_at_branch_point(0, subset=chars[1])
    assert abs(r0 - r1) < 1e-5 * max(1.0, abs(r0))


def _turning_number(verts):
    """Turns of the tangent along a closed polyline."""
    d = np.diff(np.array(list(verts) + [verts[0]]))
    d = d[d != 0]
    return int(np.rint(np.angle(np.roll(d, -1) / d).sum() / (2 * np.pi)))


def test_h_sign_flips_along_cycles(ctx1, ctx2):
    # h^2 is single valued, so continuation around a loop multiplies h by
    # +-1.  The half differential h dlambda^(1/2) of the odd characteristic
    # [p*, q*] changes sign along a simple loop c by -(-1)^q(c), with q the
    # quadratic form of its spin structure: q(a_k) = 2 p*_k, q(b_k) =
    # 2 q*_k and q(x + y) = q(x) + q(y) + x.y mod 2; dlambda^(1/2) changes by
    # (-1)^t, t the turning number of the loop in the plane.  The raw b
    # loops are b_k + sum_{j>k} gram[k, j] a_j; on the g4 curve that sum
    # flips q(b_1).
    g4 = KernelContext(compute_periods(HyperellipticCurve(G4_POINTS)))
    for ctx in (ctx1, ctx2, g4):
        pd = ctx.periods
        ps, qs = (np.rint(2 * x).astype(int) for x in ctx.odd_char.arrays())
        for k in range(pd.curve.genus):
            q_b = qs[k] + pd.gram[k, k + 1:] @ ps[k + 1:]
            for verts, q in ((pd.a_loop(k), ps[k]), (pd.b_loops[k], q_b)):
                pieces, _ = split_polyline(pd.curve.cuts, verts, closed=True)
                start, end = ctx.continue_h_along(pieces)
                want = -(-1.0) ** (q + _turning_number(verts))
                assert abs(end / start - want) < 1e-12

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rhtheta.hyperelliptic as hyp_mod
from rhtheta.errors import CrossingCuts, DegenerateCurve, QuadratureFailure
from rhtheta.hyperelliptic import HyperellipticCurve, compute_periods

# Frozen reference values.  The elliptic module of a 4-point curve is
# computable in closed form from complete elliptic integrals; both values
# below were produced by that route and are re-derived from scipy at test
# time as a live cross-check.
B_SQUARE_CONFIG = 1.2792615711710182j   # branch points {0, 1, 2, 3}
B_LEMNISCATIC = 1.0j                    # branch points {1, i, -1, -i}


def _random_curve(rng, genus, min_sep=0.15):
    n = 2 * genus + 2
    while True:
        pts = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        d = np.abs(pts[:, None] - pts[None, :]) + np.eye(n)
        if d.min() > min_sep:
            try:
                return HyperellipticCurve(pts)
            except CrossingCuts:
                continue


def test_period_matrix_square_configuration():
    curve = HyperellipticCurve([0.0, 1.0, 2.0, 3.0])
    pd = compute_periods(curve)
    assert abs(pd.B[0, 0] - B_SQUARE_CONFIG) < 1e-10
    from scipy.special import ellipk
    # cross-ratio m = 1/4 for equally spaced real branch points
    live = 1j * ellipk(0.75) / ellipk(0.25)
    assert abs(pd.B[0, 0] - live) < 1e-10


def test_period_matrix_lemniscatic():
    curve = HyperellipticCurve([1.0, 1.0j, -1.0, -1.0j])
    pd = compute_periods(curve)
    assert abs(pd.B[0, 0] - B_LEMNISCATIC) < 1e-12


def test_riemann_matrix_properties_random():
    rng = np.random.default_rng(3)
    for genus in (1, 2, 3):
        for _ in range(4):
            pd = compute_periods(_random_curve(rng, genus))
            assert np.max(np.abs(pd.B - pd.B.T)) < 1e-10
            assert np.linalg.eigvalsh(pd.B.imag).min() > 0


def test_root_squares_to_polynomial():
    rng = np.random.default_rng(1)
    curve = _random_curve(rng, 2)
    lam = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
    assert np.allclose(curve.w(lam, 1) ** 2, curve.polynomial(lam),
                       rtol=1e-12)
    assert np.allclose(curve.w(lam, 2), -curve.w(lam, 1), rtol=1e-12)


def test_root_jumps_exactly_across_cut():
    curve = HyperellipticCurve([0.0, 1.0, 2.0, 3.0])
    for a, b in curve.cuts:
        mid = 0.5 * (a + b)
        up = curve.w(mid + 1e-9j, 1)
        dn = curve.w(mid - 1e-9j, 1)
        assert abs(up + dn) < 1e-6 * abs(up)


def test_abel_loop_increments():
    rng = np.random.default_rng(5)
    for genus in (1, 2):
        pd = compute_periods(_random_curve(rng, genus))
        for k in range(genus):
            dU, end_sign = pd.continue_abel(pd.b_loops[k], closed=True)
            assert end_sign == 1.0
            assert np.max(np.abs(dU - pd.B[k])) < 1e-9


def test_abel_big_loop_vanishes():
    rng = np.random.default_rng(7)
    pd = compute_periods(_random_curve(rng, 2))
    r = max(abs(p) for p in pd.curve.points) + 3.0
    th = 2 * np.pi * np.arange(48) / 48
    dU, end_sign = pd.continue_abel(list(r * np.exp(1j * th)), closed=True)
    assert end_sign == 1.0
    assert np.max(np.abs(dU)) < 1e-10


def test_abel_branch_points_are_half_periods():
    rng = np.random.default_rng(9)
    for genus in (1, 2):
        pd = compute_periods(_random_curve(rng, genus))
        for m in range(len(pd.curve.points)):
            U = pd.abel(branch_index=m)
            n, mm, res = pd.lattice_decompose(2.0 * U)
            assert np.max(np.abs(res)) < 1e-9, (genus, m)


def test_abel_sheet_involution():
    rng = np.random.default_rng(11)
    pd = compute_periods(_random_curve(rng, 2))
    lam = 0.37 + 0.21j
    U1 = pd.abel(lam, sheet=1)
    U2 = pd.abel(lam, sheet=2)
    assert np.max(np.abs(U1 + U2)) < 1e-14


def test_abel_crossing_path_matches_involution():
    # continue U along a path that crosses one cut; the endpoint value must
    # agree with -U(lambda) up to a lattice vector
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    start, U0 = pd.anchor_point()
    target = 0.5 - 0.8j
    path = [start, 0.5 + 0.8j, target]
    dU, end_sign = pd.continue_abel(path, closed=False)
    assert end_sign == -1.0
    _, _, res = pd.lattice_decompose((U0 + dU) - (-pd.abel(target, sheet=1)))
    assert np.max(np.abs(res)) < 1e-9


def test_loop_class_of_a_loops():
    rng = np.random.default_rng(13)
    for genus in (1, 2):
        pd = compute_periods(_random_curve(rng, genus, min_sep=0.5))
        for k in range(genus):
            J, I = pd.loop_class(pd.a_loop(k))
            assert np.array_equal(J, np.eye(genus, dtype=int)[k])
            assert not I.any()


def test_loop_class_matches_continuation():
    # for any closed loop the period increment must be J + B I with the
    # integer class reported by the intersection bookkeeping
    rng = np.random.default_rng(29)
    checked = 0
    for genus in (1, 2, 3):
        pd = compute_periods(_random_curve(rng, genus, min_sep=0.4))
        pts = pd.curve.points
        for i in range(len(pts) - 1):
            c = 0.5 * (pts[i] + pts[i + 1])
            r = 0.5 * abs(pts[i + 1] - pts[i]) + 0.31 * pd.curve.min_separation
            th = 2 * np.pi * np.arange(40) / 40
            verts = list(c + r * np.exp(1j * th))
            try:
                J, I = pd.loop_class(verts)
                dU, end_sign = pd.continue_abel(verts, closed=True)
            except Exception:
                continue
            assert end_sign == 1.0
            assert np.max(np.abs(dU - (J + pd.B @ I))) < 1e-9
            checked += 1
    assert checked >= 6


def test_loop_class_trivial_loop():
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    sq = [5 + 5j, 6 + 5j, 6 + 6j, 5 + 6j]
    J, I = pd.loop_class(sq)
    assert not J.any() and not I.any()


def test_a_loop_reproduces_normalization():
    rng = np.random.default_rng(17)
    pd = compute_periods(_random_curve(rng, 2, min_sep=0.5))
    for k in range(2):
        dU, end_sign = pd.continue_abel(pd.a_loop(k), closed=True)
        assert end_sign == 1.0
        assert np.max(np.abs(dU - np.eye(2)[k])) < 1e-9


def test_perturb_preserves_layout():
    curve = HyperellipticCurve([0.0, 1.0, 2.0, 3.0])
    moved = curve.perturb(1, 1e-5 + 2e-5j)
    assert moved.cut_index_pairs == curve.cut_index_pairs
    assert abs(moved.points[1] - (1.0 + 1e-5 + 2e-5j)) < 1e-15
    with pytest.raises(DegenerateCurve):
        curve.perturb(1, -1.0)   # collides with the point at 0


def test_moved_periods_are_computed_once_and_shared():
    # more threads than cores and a short switch interval: every caller of
    # one key must get the one stored object, equal to a fresh computation
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    keys = [(m, s) for m in (0, 3) for s in (1e-5, -1e-5)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(pd.moved, m, s) for m, s in keys]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (m, s), moved in zip(keys, got):
        assert moved is pd.moved(m, s)
        fresh = compute_periods(pd.curve.perturb(m, s))
        assert np.array_equal(moved.B, fresh.B)
        assert np.array_equal(moved.A, fresh.A)


def test_validation_errors():
    with pytest.raises(DegenerateCurve):
        HyperellipticCurve([0.0, 1.0, 1.0, 3.0])
    with pytest.raises(DegenerateCurve):
        HyperellipticCurve([0.0, 1.0, 2.0])
    with pytest.raises(CrossingCuts):
        HyperellipticCurve([0.0, 2.0, 1.0 + 1j, 1.0 - 1j],
                           cut_pairing=[(0, 3), (1, 2)])


def test_random_stress_moderate():
    rng = np.random.default_rng(23)
    for genus in (1, 2, 3):
        for _ in range(8):
            pd = compute_periods(_random_curve(rng, genus, min_sep=0.12))
            assert np.max(np.abs(pd.B - pd.B.T)) < 1e-10
            assert np.linalg.eigvalsh(pd.B.imag).min() > 0


def test_hop_failure_names_branch_point_and_lambda_targets(monkeypatch):
    # the hop integrates over t in [0, 1]; its failure is reported with the
    # branch point and the lambda targets instead
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))

    def stalled(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
        raise QuadratureFailure("segment integral fails to converge near "
                                "[0, 1]")

    monkeypatch.setattr(hyp_mod, "integrate_segment", stalled)
    with pytest.raises(QuadratureFailure) as info:
        pd._hop(2, [2.25 + 0.5j, 1.5 - 0.25j])
    msg = str(info.value)
    assert "branch point 2 (2+0j)" in msg
    assert "2 point(s): 2.25+0.5j, 1.5-0.25j" in msg
    assert "[0, 1]" not in msg
    assert isinstance(info.value.__cause__, QuadratureFailure)


def test_a_period_failure_names_cut_and_branch_points(monkeypatch):
    # the a periods integrate over t in [-pi/2, pi/2]; a failure is reported
    # with the cut and its branch points in lambda instead
    def stalled(f, tol=1e-12):
        raise QuadratureFailure("segment integral fails to converge near "
                                "[-1.571, 1.571]")

    monkeypatch.setattr(hyp_mod, "integrate_substituted", stalled)
    with pytest.raises(QuadratureFailure) as info:
        compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    msg = str(info.value)
    assert "cut 0, from branch point 0 (0+0j) to 1 (1+0j)" in msg
    assert "1.571" not in msg
    assert isinstance(info.value.__cause__, QuadratureFailure)

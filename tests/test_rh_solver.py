import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import rhtheta.hyperelliptic as hyp_mod
import rhtheta.rh_solver as rh_mod
from rhtheta.cli import _psi_samples
from rhtheta.covering import validate_quasi_perm
from rhtheta.errors import (InconsistentLayout, LatticeExtractionFailed,
                            LoopConstructionFailed, NotQuasiPermutation,
                            RelationViolated, RoutingFailure, SingularPoint)
from rhtheta.geometry import split_polyline
from rhtheta.hyperelliptic import (_CIRCLE_PHASE, HyperellipticCurve,
                                   PeriodData, compute_periods, load_curve)
from rhtheta.isomonodromy import hamiltonians
from rhtheta.kernels import KernelContext, even_subset_characteristics
from rhtheta.quadrature import integrate_circle
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "rhbench"))
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def sol1():
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    kc = KernelContext(pd, ThetaChar((0.11,), (-0.23,)))
    return RHSolution(pd, None, 1.5 + 1.1j, kernel=kc)


@pytest.fixture(scope="module")
def sol2():
    pts = np.array([-2.1 - 0.3j, -1.2 + 0.8j, -0.2 - 0.9j,
                    0.9 + 0.7j, 1.8 - 0.5j, 2.4 + 0.9j])
    pd = compute_periods(HyperellipticCurve(pts))
    kc = KernelContext(pd, ThetaChar((0.07, -0.19), (0.31, 0.12)))
    return RHSolution(pd, None, 0.3 + 2.2j, kernel=kc)


@pytest.fixture(scope="module")
def mon1(sol1):
    return sol1.monodromies()


@pytest.fixture(scope="module")
def mon2(sol2):
    return sol2.monodromies()


def _rand_regular(sol, rng):
    pts = sol.curve.points
    while True:
        z = rng.uniform(-3, 3) + 1j * rng.uniform(-2.5, 2.5)
        if min(abs(z - p) for p in pts) > 0.3 and abs(z - sol.lambda0) > 0.3:
            return z


def test_normalized_at_basepoint(sol1, sol2):
    for sol in (sol1, sol2):
        assert np.array_equal(sol.psi(sol.lambda0), np.eye(2))


def test_det_is_one(sol1, sol2):
    rng = np.random.default_rng(101)
    for sol in (sol1, sol2):
        for _ in range(8):
            z = _rand_regular(sol, rng)
            assert abs(np.linalg.det(sol.psi(z)) - 1.0) < 1e-10


def test_frozen_matrix_values(sol1, sol2):
    # pinned against an independent run of the same construction
    want1 = np.array([
        [+8.1975908187619817e-01 - 4.8385304495035220e-01j,
         +3.2379310175447935e-02 - 4.5638751422926854e-01j],
        [+2.7447108665803233e-01 - 2.7933514150640937e-01j,
         +8.6911748056721960e-01 + 3.4914560821887014e-01j]])
    want2 = np.array([
        [+8.5650659394855866e-01 - 1.1476865775208653e-01j,
         +3.3471844629769909e-01 - 1.9846362456362213e-01j],
        [+3.7508996494420473e-02 - 1.3171014177912399e-01j,
         +1.1392785980849374e+00 + 9.2496065589634829e-02j]])
    assert np.max(np.abs(sol1.psi(0.8 - 1.7j) - want1)) < 1e-12
    assert np.max(np.abs(sol2.psi(-1.6 + 2.1j) - want2)) < 1e-12


def test_analytic_derivative_matches_finite_difference(sol1, sol2):
    rng = np.random.default_rng(103)
    h = 1e-6
    for sol in (sol1, sol2):
        z = _rand_regular(sol, rng)
        _, dpsi = sol.psi_pair(z)
        fd = (sol.psi(z + h) - sol.psi(z - h)) / (2 * h)
        assert np.max(np.abs(dpsi - fd)) < 1e-7


def test_evaluation_record(sol1):
    z = 0.8 - 1.7j
    _, h1, h2, verts = sol1._germ(z)
    assert verts[0] == sol1.lambda0
    assert verts[-1] == z
    # the stored spinor germs square to the tagged algebraic values
    assert abs(h1 ** 2 - sol1.kc.h_squared(z, 1)) < 1e-10
    assert abs(h2 ** 2 - sol1.kc.h_squared(z, 2)) < 1e-10


def test_flipped_spinor_track_is_a_constant_multiple(sol1, sol2, mon1, mon2):
    # h^2 on sheet 2 is exactly -h^2 on sheet 1, so tracking h along the
    # sign-flipped pieces reproduces +-i times the sheet-1 track, bit for
    # bit, on every monodromy loop and on germ routes
    rng = np.random.default_rng(17)
    for sol, mons in ((sol1, mon1), (sol2, mon2)):
        paths = [split_polyline(sol.curve.cuts, m.vertices, closed=False)[0]
                 for m in mons]
        for _ in range(5):
            verts = sol.periods.sheet1_route(sol.lambda0,
                                             _rand_regular(sol, rng))
            paths.append([(a, b, 1.0) for a, b in zip(verts, verts[1:])])
        for pieces in paths:
            s1, e1 = sol.kc.continue_h_along(pieces)
            flipped = [(a, b, -s) for a, b, s in pieces]
            s2, e2 = sol.kc.continue_h_along(flipped)
            assert s2 == sol._flip * s1 and e2 == sol._flip * e1


def _per_sample_track(kc, pieces):
    """Reference spinor track: one h_squared call per sample point."""
    z0, _, s0 = pieces[0]
    start = np.sqrt(kc.h_squared(z0, 1 if s0 > 0 else 2))
    cur = start
    for idx, (za, zb, s) in enumerate(pieces):
        sheet = 1 if s > 0 else 2
        n0 = max(4, int(np.ceil(abs(zb - za)
                                / (0.15 * kc.periods.curve.min_separation))))
        ts = (np.arange(n0) + 0.5) / n0
        samples = [za + (zb - za) * t for t in ts]
        if idx == len(pieces) - 1:
            samples.append(zb)
        stack = list(reversed(samples))
        prev_z = za
        while stack:
            z = stack.pop()
            val = np.sqrt(kc.h_squared(z, sheet))
            best = val if abs(val - cur) <= abs(val + cur) else -val
            if abs(best - cur) > 0.6 * max(abs(best), abs(cur)) \
                    and abs(z - prev_z) > 1e-12:
                stack.append(z)
                stack.append(0.5 * (z + prev_z))
                continue
            cur = best
            prev_z = z
    return start, cur


def _sample_solution(genus):
    samples = Path(__file__).resolve().parent.parent / "samples"
    curve, lam0 = load_curve(samples / f"curve_g{genus}.json")
    c = json.loads((samples / f"char_g{genus}.json").read_text())
    return RHSolution(compute_periods(curve), ThetaChar(tuple(c["p"]),
                                                        tuple(c["q"])), lam0)


# the g2 sample with branch point 1 moved to 1e-2 x scale of branch point 0
_CLOSE_G2 = ([-2.1 - 0.3j, -2.1 - 0.3j + 0.0466 * np.exp(0.6j * np.pi),
              -0.2 - 0.9j, 0.9 + 0.7j, 1.8 - 0.5j, 2.4 + 0.9j],
             ((0.07, -0.19), (0.31, 0.12)), 0.3 + 2.2j)


def _hops_to_branch_points(sol):
    """Pieces of germ routes to each reference node, each going on straight
    to 1e-9 ... 1e-3 x scale of its branch point."""
    pts, scale = sol.curve.points, sol.curve.scale
    paths = []
    for m, p in enumerate(pts):
        node = hyp_mod.reference_node(pts, m)
        verts = sol.periods.sheet1_route(sol.lambda0, node)
        for eps in (1e-9, 1e-7, 1e-5, 1e-3):
            end = p + eps * scale * np.exp(1j * _CIRCLE_PHASE)
            paths.append(split_polyline(sol.curve.cuts, verts + [end],
                                        closed=False)[0])
    return paths


@pytest.mark.parametrize("genus", [1, 2, "2-close"])
def test_batched_spinor_track_matches_per_sample_reference(genus, monkeypatch):
    # every monodromy loop, homology loop and hop to 1e-9 ... 1e-3 x scale
    # of a branch point on the samples and a close pair, and every germ
    # route of the samples' solve report: the winding of the path picks
    # the same root, bit for bit, as tracking one sample at a time
    close = genus == "2-close"
    sol = _solution(*_CLOSE_G2) if close else _sample_solution(genus)
    track = KernelContext.continue_h_along
    checked = []

    def compared(self, pieces):
        out = track(self, pieces)
        assert out == _per_sample_track(self, pieces)
        checked.append(pieces)
        return out

    monkeypatch.setattr(KernelContext, "continue_h_along", compared)
    M = len(sol.curve.points)
    sol.monodromies()
    assert len(checked) == M
    pd = sol.periods
    loops = [pd.a_loop(k) for k in range(sol.curve.genus)] + pd.b_loops
    for pieces in ([split_polyline(sol.curve.cuts, v, closed=True)[0]
                    for v in loops] + _hops_to_branch_points(sol)):
        sol.kc.continue_h_along(pieces)
    assert len(checked) == M + 2 * sol.curve.genus + 4 * M
    if not close:
        _psi_samples(sol)
        assert len(checked) > 5 * M + 2 * sol.curve.genus + 20


def test_wrong_sheet_on_the_last_piece_is_refused(sol2, mon2):
    # a wrong tag turns the end root by a quarter turn, off both signs of
    # the predicted phase
    pieces = split_polyline(sol2.curve.cuts, mon2[0].vertices,
                            closed=False)[0]
    za, zb, s = pieces[-1]
    with pytest.raises(LoopConstructionFailed, match="off both roots"):
        sol2.kc.continue_h_along(pieces[:-1] + [(za, zb, -s)])


def test_one_spinor_continuation_per_path(sol1, monkeypatch):
    fresh = RHSolution(sol1.periods, None, sol1.lambda0, kernel=sol1.kc)
    calls = []
    track = KernelContext.continue_h_along

    def counted(self, pieces):
        calls.append(pieces)
        return track(self, pieces)

    monkeypatch.setattr(KernelContext, "continue_h_along", counted)
    fresh._germ(0.8 - 1.7j)
    assert len(calls) == 1
    fresh.monodromy(1)
    assert len(calls) == 2
    fresh.continued_monodromy(fresh.loop_vertices(1))
    assert len(calls) == 3


def test_monodromy_structure(sol1, sol2, mon1, mon2):
    for sol, results in ((sol1, mon1), (sol2, mon2)):
        for r in results:
            # off diagonal with det one: M = [[0, b], [-1/b, 0]]
            assert r.permutation == (1, 0)
            assert abs(np.linalg.det(r.matrix) - 1.0) < 1e-10
            c1, c2 = r.columns
            assert (c1.start_sheet, c1.end_sheet) == (1, 2)
            assert (c2.start_sheet, c2.end_sheet) == (2, 1)
            # second column is the sheet-flipped mirror of the first
            assert np.array_equal(c2.a_index, -c1.a_index)
            assert np.array_equal(c2.b_index, -c1.b_index)
            assert c2.sigma == -c1.sigma
            assert c1.lattice_residual < 1e-7
            assert r.vertices[0] == sol.lambda0
            assert r.vertices[-1] == sol.lambda0


def test_closed_form_loops_match_the_polyline_oracle(monkeypatch):
    # the closed-form Abel integral of every loop, 2S - 2 sigma s H, against
    # the whole polyline integrated by continued_monodromy: the samples,
    # seeded g1-g4 curves of the benchmark recipe, and curves whose foreign
    # cuts cross loop disks; monodromy(n) alone gives the integers of the
    # stacked call
    sols = [_sample_solution(g) for g in (1, 2, 3)]
    for g in (1, 2, 3, 4):
        for seed, gap in ([([s, 0, g], {}) for s in range(3)]
                          + [([7, 1, g], {"gap": (0.0, 0.05)})]):
            rng = np.random.default_rng(seed)
            pts = workloads.draw_points(rng, 2 * g + 2, 0.5, **gap)
            lam0 = workloads.clear_point(rng, pts, 0.15)
            sols.append(_solution(pts, workloads.random_char(rng, g), lam0))
    integrals = []      # the Abel integrals each call hands to the columns
    columns = RHSolution._continue_columns

    def recorded(self, loops, dUs):
        integrals.append(dUs)
        return columns(self, loops, dUs)

    monkeypatch.setattr(RHSolution, "_continue_columns", recorded)
    for sol in sols:
        results = sol.monodromies()
        closed = integrals[-1]
        for n, r in enumerate(results):
            _, oracle = sol.continued_monodromy(r.vertices)
            assert np.max(np.abs(closed[n] - integrals[-1][0])) < 1e-12
            for col, ref, one in zip(r.columns, oracle,
                                     sol.monodromy(n).columns):
                for c in (ref, one):
                    assert (col.end_sheet, col.sigma) == (c.end_sheet, c.sigma)
                    assert np.array_equal(col.a_index, c.a_index)
                    assert np.array_equal(col.b_index, c.b_index)


def test_closed_form_refuses_a_hop_off_the_circle(sol2, monkeypatch):
    # a hop to a point 10% outside each loop's circle leaves the continued
    # Abel value off the lattice
    fresh = RHSolution(sol2.periods, None, sol2.lambda0, kernel=sol2.kc)
    hop = PeriodData._hop

    def outside(self, m, zs):
        p = self.curve.points[np.asarray(m)]
        return hop(self, m, p + 1.1 * (np.asarray(zs) - p))

    monkeypatch.setattr(PeriodData, "_hop", outside)
    with pytest.raises(LatticeExtractionFailed, match="off the lattice"):
        fresh.monodromies()


def test_closed_form_hop_from_a_wrong_branch_point_moves_the_integers(
        sol2, mon2, monkeypatch):
    # 2 U(lambda_k) is a lattice vector for every branch point, so a hop
    # from the neighbouring branch point moves dU by a lattice vector: the
    # lattice check passes, but the integers leave the oracle's and the
    # product of the monodromies is no longer the identity
    fresh = RHSolution(sol2.periods, None, sol2.lambda0, kernel=sol2.kc)
    hop = PeriodData._hop
    M = len(sol2.curve.points)
    monkeypatch.setattr(PeriodData, "_hop", lambda self, m, zs: hop(
        self, (np.asarray(m) + 1) % M, zs))
    wrong = fresh.monodromies()
    assert max(c.lattice_residual for r in wrong for c in r.columns) < 1e-7
    assert any((w.columns[0].a_index != r.columns[0].a_index).any()
               or (w.columns[0].b_index != r.columns[0].b_index).any()
               for r, w in zip(mon2, wrong))
    assert fresh.monodromy_product(wrong)[1] > 0.1


def test_full_matrix_is_not_a_quasi_permutation(mon1):
    assert validate_quasi_perm(mon1[0].matrix)[0] == (1, 0)
    with pytest.raises(NotQuasiPermutation):
        validate_quasi_perm(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_monodromy_lattice_data_g1(mon1):
    want = [((0,), (0,)), ((-1,), (0,)), ((-1,), (-1,)), ((0,), (-1,))]
    for r, (n_idx, m_idx) in zip(mon1, want):
        c1 = r.columns[0]
        assert tuple(c1.a_index) == n_idx
        assert tuple(c1.b_index) == m_idx
        assert c1.sigma == 1
    want0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(mon1[0].matrix - want0)) < 1e-12


def test_monodromy_eigenvalues(mon1, mon2):
    # exponents are +-1/4, so every monodromy has eigenvalues +-i
    for results in (mon1, mon2):
        for r in results:
            eig = np.linalg.eigvals(r.matrix)
            eig = eig[np.argsort(eig.imag)]
            assert np.max(np.abs(eig - np.array([-1j, 1j]))) < 1e-10


def test_monodromy_product_is_identity(sol1, sol2, mon1, mon2):
    for sol, results in ((sol1, mon1), (sol2, mon2)):
        _, defect, order = sol.monodromy_product(results)
        assert defect < 1e-10
        assert sorted(order) == list(range(len(sol.curve.points)))


def test_basepoint_order_frozen(sol1, sol2):
    assert sol1.basepoint_order() == [0, 1, 2, 3]
    assert sol2.basepoint_order() == [1, 0, 2, 3, 4, 5]


def test_loop_around_everything_is_trivial(sol1, sol2):
    # a based loop enclosing all branch points contracts through infinity
    for sol in (sol1, sol2):
        pts = sol.curve.points
        center = np.mean(pts)
        R = max(max(abs(p - center) for p in pts),
                abs(sol.lambda0 - center)) + 1.5 * sol.curve.scale
        th0 = np.angle(sol.lambda0 - center)
        circle = [center + R * np.exp(1j * (th0 + 2 * np.pi * k / 48))
                  for k in range(49)]
        verts = [sol.lambda0] + circle + [sol.lambda0]
        M, cols = sol.continued_monodromy(verts)
        assert np.max(np.abs(M - np.eye(2))) < 1e-10
        for c in cols:
            assert c.start_sheet == c.end_sheet
            assert not c.a_index.any() and not c.b_index.any()
            assert c.sigma == 1


def test_composition_is_right_holonomy(sol1, sol2, mon1, mon2):
    # continuing along loop a then loop b picks up M_b M_a
    for sol, results in ((sol1, mon1), (sol2, mon2)):
        ra, rb = results[0], results[1]
        composite = list(ra.vertices) + list(rb.vertices)[1:]
        M, _ = sol.continued_monodromy(composite)
        assert np.max(np.abs(M - rb.matrix @ ra.matrix)) < 1e-12


def test_closed_form_matches_continuation(sol1, sol2, mon1, mon2):
    for sol, results in ((sol1, mon1), (sol2, mon2)):
        for r in results:
            predicted = sol.predict_monodromy(r.index, r.columns)
            assert np.max(np.abs(predicted - r.matrix)) < 1e-10


def test_layout_predicts_other_characteristics(sol1, mon1):
    # lattice data measured once on the curve predicts the monodromies of
    # every twist characteristic
    pd = sol1.periods
    other = RHSolution(pd, None, sol1.lambda0,
                       kernel=KernelContext(pd, ThetaChar((0.41,), (0.17,))))
    for r in mon1:
        defect = other.check_layout(r.index, tol=1e-6, data=r.columns)
        assert defect < 1e-10


def test_integer_characteristic_shift_leaves_monodromy_fixed(sol1, mon1):
    pd = sol1.periods
    shifted = RHSolution(pd, None, sol1.lambda0,
                         kernel=KernelContext(pd, ThetaChar((1.11,), (-1.23,))))
    for r in mon1:
        M = shifted.monodromy(r.index).matrix
        assert np.max(np.abs(M - r.matrix)) < 1e-10


def test_fractional_shift_scales_entries(sol1, mon1):
    # raising p_1 by delta multiplies the first-column entry by
    # exp(2 pi i delta n_1) and the second by its inverse
    delta = 0.37
    pd = sol1.periods
    shifted = RHSolution(pd, None, sol1.lambda0,
                         kernel=KernelContext(pd, ThetaChar((0.11 + delta,),
                                                            (-0.23,))))
    for r in mon1:
        c1 = r.columns[0]
        factor = np.exp(2j * np.pi * delta * c1.a_index[0])
        M = shifted.predict_monodromy(r.index, r.columns)
        assert abs(M[1, 0] - factor * r.matrix[1, 0]) < 1e-10
        assert abs(M[0, 1] - r.matrix[0, 1] / factor) < 1e-10


def test_inconsistent_layout_detected(sol1, mon1):
    bad = [dataclasses.replace(c, sigma=-c.sigma) for c in mon1[0].columns]
    with pytest.raises(InconsistentLayout):
        sol1.check_layout(0, tol=1e-6, data=bad)


def test_renormalization_gauge(sol1):
    # moving the basepoint multiplies by the inverse of the old matrix
    # there, up to the diagonal sign gauge of the germ choice
    pd = sol1.periods
    moved = RHSolution(pd, None, -1.2 + 0.8j, kernel=sol1.kc)
    z = 2.4 + 1.9j
    base = np.linalg.inv(sol1.psi(moved.lambda0)) @ sol1.psi(z)
    best = min(np.max(np.abs(moved.psi(z) - D @ base @ D))
               for D in (np.eye(2), np.diag([1.0, -1.0])))
    assert best < 1e-10
    # the squared-trace of the logarithmic derivative does not see the
    # renormalization at all
    for z in (2.4 + 1.9j, -0.7 - 1.3j):
        ta = np.trace(np.linalg.matrix_power(sol1.ode_matrix(z), 2))
        tb = np.trace(np.linalg.matrix_power(moved.ode_matrix(z), 2))
        assert abs(ta - tb) < 1e-12 * max(1.0, abs(ta))


def test_residues(sol1):
    rs = sol1.residues()
    # traceless with eigenvalues +-1/4 at every branch point
    for eig in rs.exponents:
        assert np.max(np.abs(np.sort(eig.real) - np.array([-0.25, 0.25]))) \
            < 1e-10
        assert np.max(np.abs(eig.imag)) < 1e-10
    # no residue at infinity
    assert rs.sum_norm < 1e-10
    # frozen matrix at the first branch point
    want = np.array([
        [-2.3426962036557916e-02 - 4.3046652666877778e-03j,
         -6.4200314314063034e-02 + 1.9431777196605610e-01j],
        [-9.5930359182949787e-02 - 2.8721484307014944e-01j,
         +2.3426962036504437e-02 + 4.3046652667083993e-03j]])
    assert np.max(np.abs(rs.matrices[0] - want)) < 1e-10


def _per_node_residue(sol, n, radius_factor):
    # oracle: a trapezoid circle of ode_matrix, each node with its own Abel
    # route from the anchor, no hops and no theta data at branch points
    p = sol.curve.points[n]
    rho = radius_factor * min(abs(p - q) for i, q in
                              enumerate(sol.curve.points) if i != n)
    return integrate_circle(
        lambda zs: np.stack([sol.ode_matrix(z) for z in zs], axis=-1)
        / (2j * np.pi), p, rho, tol=1e-8, max_n=4096, phase=_CIRCLE_PHASE)


def _solution(points, char, lam0):
    return RHSolution(compute_periods(HyperellipticCurve(points)),
                      ThetaChar(*char), lam0)


# the curves of the residue oracle: a foreign cut crosses the circle around
# the branch point at 0; a translated g1 sample; the seeded g3 s = 0 curve
# of the benchmark workloads, written out
_FOREIGN_CUT = ([-2.0, 0.0, 0.1 - 1j, 0.1 + 1j], ((0.13,), (-0.21,)),
                -1.0 + 1.5j)
_TRANSLATED_G1 = ([10.0, 11.0, 12.0, 13.0], ((0.11,), (-0.23,)), 11.5 + 1.1j)
_SEEDED_G3 = (
    [1.058018751186387 + 1.52966235579771j,
     -0.2300350610643589 + 1.726115268436251j,
     -0.3627404530135818 - 1.6464447174986652j,
     1.866294164987127 + 1.5799438701291386j,
     -0.26347262313378916 - 0.030795003559425105j,
     1.303133193451901 + 0.38907636123889056j,
     -0.9554320403710492 + 0.6221638461743173j,
     1.5599019894211645 + 1.0791237675211716j],
    ((0.04793728246936896, 0.12200008760351133, -0.04837728491767723),
     (-0.06782409285397162, -0.028400585616101537, -0.2375901696597716)),
    3.2135409135329795 + 1.3911866856310995j)


def test_batched_residues_match_per_node_path(sol1, sol2):
    sols = [sol1, sol2] + [_solution(*c) for c in (_FOREIGN_CUT,
                                                   _TRANSLATED_G1, _SEEDED_G3)]
    for sol in sols:
        rs = sol.residues()
        assert rs.sum_norm < 1e-12
        for rf in (0.25, 0.125):
            for n in range(len(sol.curve.points)):
                ref = _per_node_residue(sol, n, rf)
                assert np.max(np.abs(rs.matrices[n] - ref)) < 1e-10


def test_residues_across_a_foreign_cut():
    # the oracle's circle around the branch point at 0 has radius 0.25, and
    # 24 of its 64 nodes lie past the cut [0.1 - i, 0.1 + i]; so does the
    # reference node, whose hop back to the branch point crosses the cut
    pd = compute_periods(HyperellipticCurve([-2.0, 0.0, 0.1 - 1j, 0.1 + 1j]))
    sol = RHSolution(pd, ThetaChar((0.13,), (-0.21,)), -1.0 + 1.5j)
    rs = sol.residues()
    for n in range(4):
        ref = _per_node_residue(sol, n, 0.25)
        assert np.max(np.abs(rs.matrices[n] - ref)) < 1e-10
        eig = rs.exponents[n]
        assert np.max(np.abs(eig - np.array([-0.25, 0.25]))) < 1e-10


def test_residues_of_a_translated_curve(sol1):
    # the hops start at branch points near 10-13, where a root computed
    # from lambda rather than from lambda - lambda_m loses digits next to
    # the branch point, and the hop quadrature then never settles
    pts = sol1.curve.points + 10.0
    pd = compute_periods(HyperellipticCurve(pts))
    sol = RHSolution(pd, None, sol1.lambda0 + 10.0,
                     kernel=KernelContext(pd, sol1.kc.char))
    rs = sol.residues()
    assert rs.sum_norm < 1e-10
    for eig in rs.exponents:
        assert np.max(np.abs(eig - np.array([-0.25, 0.25]))) < 1e-10


def test_residues_and_ode_matrix_route_no_germ(sol2, monkeypatch):
    fresh = RHSolution(sol2.periods, None, sol2.lambda0, kernel=sol2.kc)
    calls = []
    germ = RHSolution._germ

    def counted(self, z):
        calls.append(z)
        return germ(self, z)

    monkeypatch.setattr(RHSolution, "_germ", counted)
    fresh.residues()
    fresh.ode_matrix(0.7 - 1.3j)
    assert calls == []


@pytest.mark.parametrize("genus", [1, 2])
def test_one_abel_route_per_branch_point(genus, monkeypatch):
    # residues, the Riemann-constant scan, the subset characteristics and
    # the Hamiltonians read one kept Abel value per branch point, each
    # hopped back from its reference node, which is routed once; branch
    # point 0's node is the anchor itself and needs no route
    sol = _sample_solution(genus)
    routes = []
    route = PeriodData.sheet1_route

    def counted(self, z0, z1):
        routes.append(z1)
        return route(self, z0, z1)

    monkeypatch.setattr(PeriodData, "sheet1_route", counted)
    sol.residues()
    even_subset_characteristics(sol.periods)
    hamiltonians(sol)
    assert len(routes) == len(sol.curve.points) - 1


@pytest.mark.parametrize("genus", [1, 2])
def test_residues_take_four_theta_calls_and_no_circle(genus, monkeypatch):
    # the closed form stacks all branch points into two theta_derivs calls
    # per sign; the only other evaluation is the node check, one
    # ode_matrix call over the M reference nodes; no circle and no hop
    sol = _sample_solution(genus)
    M, g = len(sol.curve.points), sol.curve.genus
    thetas, odes, other = [], [], []
    in_ode = []
    derivs, ode = rh_mod.theta_derivs, RHSolution.ode_matrix

    def counted_derivs(z, *args, **kwargs):
        if not in_ode:
            thetas.append(np.shape(z))
        return derivs(z, *args, **kwargs)

    def counted_ode(self, lam):
        odes.append(lam)
        in_ode.append(lam)
        try:
            return ode(self, lam)
        finally:
            in_ode.pop()

    def refused(name):
        return lambda *args, **kwargs: other.append(name)

    monkeypatch.setattr(rh_mod, "theta_derivs", counted_derivs)
    monkeypatch.setattr(RHSolution, "ode_matrix", counted_ode)
    monkeypatch.setattr(hyp_mod, "integrate_circle", refused("circle"))
    monkeypatch.setattr(PeriodData, "abel_near_branch", refused("hop"))
    sol.residues()
    assert thetas == [(g, M)] * 4
    assert [np.shape(lam) for lam in odes] == [(M,)]
    assert other == []


def test_residue_checks_its_reference_node(sol1, monkeypatch):
    # residues that disagree with ode_matrix at one branch point's
    # reference node are refused, naming that branch point; the others'
    # nodes are left exact
    fresh = RHSolution(sol1.periods, None, sol1.lambda0, kernel=sol1.kc)
    node = hyp_mod.reference_node(sol1.curve.points, 2)
    ode = RHSolution.ode_matrix

    def perturbed(self, lam):
        out = ode(self, lam)
        out[np.ravel(lam) == node] += 1e-6
        return out

    monkeypatch.setattr(RHSolution, "ode_matrix", perturbed)
    for n in (0, 2):
        with pytest.raises(RelationViolated, match="branch point 2 "):
            fresh.residue(n)


def test_regular_formula_at_a_divisor_point_is_refused(monkeypatch):
    # the g2 sample has one branch point where Q and theta[*] vanish; the
    # regular formula there misses the node check.  Only the residue formula
    # sees the exponents moved; ode_matrix reads the true ones.  The wrong
    # matrix enters the rational form at every node, so the check names the
    # first branch point; the miss is largest at the divisor point's node.
    sol = _sample_solution(2)
    kc, exponents = sol.kc, sol.kc.h_exponents
    assert np.count_nonzero(exponents > 0) == 1
    d = int(np.argmax(exponents))
    closed = RHSolution._closed_residues

    def regular_only(self):
        kc.h_exponents = np.full_like(exponents, -0.25)
        try:
            return closed(self)
        finally:
            kc.h_exponents = exponents

    pts = sol.curve.points
    nodes = [hyp_mod.reference_node(pts, m) for m in range(len(pts))]
    true, regular = closed(sol), regular_only(sol)
    moved = np.max(np.abs(regular - true), axis=(1, 2)) > 1e-6
    assert list(np.flatnonzero(moved)) == [d]
    assert np.argmax(sol.ode_residual(nodes, regular)) == d
    monkeypatch.setattr(RHSolution, "_closed_residues", regular_only)
    with pytest.raises(RelationViolated, match="branch point 0 "):
        sol.residue(d)


def test_residues_are_checked_once(monkeypatch):
    # the node check runs on the first residues() call, one ode_matrix
    # call over the M reference nodes; later calls return the kept set
    sol = _sample_solution(2)
    M = len(sol.curve.points)
    calls, odes = [], []
    residue, ode = RHSolution.residue, RHSolution.ode_matrix

    def counted(self, n):
        calls.append(n)
        return residue(self, n)

    def counted_ode(self, lam):
        odes.append(np.shape(lam))
        return ode(self, lam)

    monkeypatch.setattr(RHSolution, "residue", counted)
    monkeypatch.setattr(RHSolution, "ode_matrix", counted_ode)
    first = sol.residues()
    assert calls == list(range(M))
    assert odes == [(M,)]
    assert sol.residues() is first
    hamiltonians(sol)
    assert calls == list(range(M))
    assert odes == [(M,)]


def test_routing_failure_names_the_branch_point():
    # inside every route clearance of a branch point no route reaches the
    # end point; the error says which branch point and how close
    sol = _sample_solution(2)
    pts, scale = sol.curve.points, sol.curve.scale
    near = pts[3] + 1e-2 * scale * np.exp(0.5j)
    with pytest.raises(RoutingFailure, match=r"lies 0\.0466 from branch "
                       r"point 3 \(0\.9\+0\.7j\), inside the route "
                       r"clearances 0\.0682 to 0\.239"):
        sol.psi(near)
    with pytest.raises(RoutingFailure, match="from branch point 3 "):
        RHSolution(sol.periods, None, near, kernel=sol.kc)
    # a little further out the routes succeed, unchanged
    assert np.isfinite(sol.psi(pts[3] + 3e-2 * scale * np.exp(0.5j))).all()


def test_logarithmic_derivative_is_rational(sol1):
    rs = sol1.residues()
    zs = [0.6 + 1.9j, -1.1 - 0.8j]
    err = sol1.ode_residual(zs, rs.matrices)
    assert err.shape == (2,) and np.all(err < 1e-8)
    assert sol1.ode_residual(zs[0], rs.matrices) < 1e-8


def test_psi_eval_checks_regularity_before_routing(monkeypatch):
    # at a branch point psi and psi_pair refuse at once, instead of
    # routing there and failing the quadrature
    sol = _sample_solution(2)
    routes = []
    route = PeriodData.sheet1_route

    def counted(self, z0, z1):
        routes.append(z1)
        return route(self, z0, z1)

    monkeypatch.setattr(PeriodData, "sheet1_route", counted)
    for p in sol.curve.points:
        for evaluate in (sol.psi, sol.psi_pair):
            with pytest.raises(SingularPoint):
                evaluate(p)
    assert routes == []


def test_stacked_points_match_one_by_one(sol2):
    # a stack shares one germ integral and one _assemble; its germs equal
    # the one-point germs bit for bit, and its matrices differ from them
    # only by the rounding of stacked theta sums; a scalar stays a scalar
    rng = np.random.default_rng(23)
    zs = np.array([_rand_regular(sol2, rng) for _ in range(7)])
    stacked = RHSolution(sol2.periods, None, sol2.lambda0, kernel=sol2.kc)
    single = RHSolution(sol2.periods, None, sol2.lambda0, kernel=sol2.kc)
    psi = stacked.psi(np.append(zs, sol2.lambda0))
    assert psi.shape == (8, 2, 2) and np.array_equal(psi[-1], np.eye(2))
    pair = stacked.psi_pair(zs)
    assert pair[0].shape == pair[1].shape == (7, 2, 2)
    U1, h1, h2, routes = stacked._germ(zs)
    for j, z in enumerate(zs):
        U, a, b, verts = single._germ(z)
        assert U.tobytes() == U1[:, j].tobytes()
        assert (a, b, verts) == (h1[j], h2[j], routes[j])
        one = single.psi(z)
        assert one.shape == (2, 2)
        assert np.max(np.abs(one - psi[j])) <= 1e-14 * np.max(np.abs(one))
        for got, want in zip(pair, single.psi_pair(z)):
            assert (np.max(np.abs(got[j] - want))
                    <= 1e-14 * np.max(np.abs(want)))
    # the same holds for Abel values on fresh period data, bit for bit,
    # and for ode_matrix up to the rounding of stacked theta sums
    fresh = [compute_periods(sol2.curve) for _ in range(2)]
    U = fresh[0].abel(zs)
    assert U.shape == (sol2.curve.genus, len(zs))
    for j, z in enumerate(zs):
        assert fresh[1].abel(z).tobytes() == U[:, j].tobytes()
    ode = stacked.ode_matrix(zs)
    assert ode.shape == (7, 2, 2)
    for j, z in enumerate(zs):
        one = single.ode_matrix(z)
        assert one.shape == (2, 2)
        assert np.max(np.abs(one - ode[j])) <= 1e-14 * np.max(np.abs(one))


def test_singular_points_rejected(sol1):
    with pytest.raises(SingularPoint):
        sol1.psi(1.0)
    with pytest.raises(SingularPoint):
        sol1.psi_pair(sol1.lambda0)
    with pytest.raises(SingularPoint):
        RHSolution(sol1.periods, None, 2.0, kernel=sol1.kc)
    with pytest.raises(SingularPoint):
        # on a cut
        RHSolution(sol1.periods, None, 0.5, kernel=sol1.kc)

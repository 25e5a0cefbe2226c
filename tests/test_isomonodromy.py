import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import rhtheta.hyperelliptic as hyp
import rhtheta.isomonodromy as iso
import rhtheta.kernels as ker_mod
from rhtheta.cli import main
from rhtheta.errors import DegenerateCurve, QuadratureFailure, StepTooLarge
from rhtheta.hyperelliptic import (_CIRCLE_PHASE, HyperellipticCurve,
                                   compute_periods, load_curve)
from rhtheta.kernels import KernelContext, even_subset_characteristics
from rhtheta.quadrature import integrate_circle
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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


def test_period_derivative_matches_finite_difference(sol1, sol2):
    for m in range(4):
        assert iso.rauch_check(sol1, m) < 1e-8
    for m in (0, 3):
        assert iso.rauch_check(sol2, m) < 1e-8


def test_period_derivative_is_holomorphic(sol1):
    # derivative along an imaginary step equals the real-step derivative
    pd = sol1.periods
    h = 1e-5
    fd_re = (compute_periods(pd.curve.perturb(1, h)).B
             - compute_periods(pd.curve.perturb(1, -h)).B) / (2 * h)
    fd_im = (compute_periods(pd.curve.perturb(1, 1j * h)).B
             - compute_periods(pd.curve.perturb(1, -1j * h)).B) / (2j * h)
    assert np.max(np.abs(fd_re - fd_im)) < 1e-6


def test_period_derivative_sheet_sum_route(sol1, sol2):
    # the two-sheet quadrature route and the closed residue agree
    for sol in (sol1, sol2):
        for m in (0, 1):
            a = iso.b_derivative_sheet_sum(sol.periods, m)
            b = iso.b_derivative(sol.periods, m)
            assert np.max(np.abs(a - b)) < 1e-10


def test_differential_variation(sol1, sol2):
    for m in (0, 3):
        assert iso.differential_variation_check(sol1, m, 0.9 + 1.8j) < 1e-8
    assert iso.differential_variation_check(sol2, 0, -1.4 - 1.9j) < 1e-8


def test_holomorphic_sheet_sums(sol1, sol2):
    for sol, z in ((sol1, 0.9 + 1.8j), (sol2, -1.4 - 1.9j)):
        assert iso.sheet_sum_defect(sol.periods, z) < 1e-12
        assert abs(iso.w1_sheet_sum(sol.kc, z)) < 1e-12


def test_hamiltonians_two_evaluations(sol1):
    hs = iso.hamiltonians(sol1)
    assert hs.discrepancy < 1e-6
    # rigid translation leaves tau unchanged, so the gradients sum to zero
    assert abs(np.sum(hs.values)) < 1e-10
    want = +1.1364887993848267e-01 - 1.4070416498579227e-02j
    assert abs(hs.values[0] - want) < 1e-10


def test_hamiltonians_ignore_normalization_point(sol1):
    moved = RHSolution(sol1.periods, None, -1.2 + 0.8j, kernel=sol1.kc)
    a = iso.hamiltonians(sol1).contour_values
    b = iso.hamiltonians(moved).contour_values
    assert np.max(np.abs(a - b)) < 1e-6


def test_batched_circles_match_per_node_path(sol1, sol2, monkeypatch):
    # references evaluate ode_matrix and the kernel one node at a time
    def per_node(f, sol, m, tol):
        p = sol.curve.points[m]
        rho = 0.25 * min(abs(p - q) for i, q in enumerate(sol.curve.points)
                         if i != m)
        return integrate_circle(lambda zs: np.stack([f(z) for z in zs], -1),
                                p, rho, tol=tol,
                                phase=_CIRCLE_PHASE) / (2j * np.pi)

    def variation(sol, z, at):
        # the differentials times the kernel, summed over both sheets
        return sum(sol.periods.differentials(z, s)[:, 0]
                   * sol.kc.bergmann((z, j), (at, 1))
                   for j, s in ((1, 1.0), (2, -1.0)))

    for sol, at in ((sol1, 0.9 + 1.8j), (sol2, -1.4 - 1.9j)):
        contour = iso.hamiltonians(sol).contour_values
        for m in (0, len(sol.curve.points) - 1):
            # with the finite difference replaced by the per-node circle,
            # the check returns its distance from the batched circle
            ref = per_node(lambda z: variation(sol, z, at), sol, m, 1e-11)
            monkeypatch.setattr(iso, "_central", lambda pd, m, f: ref)
            assert iso.differential_variation_check(sol, m, at) < 1e-10
            monkeypatch.undo()
            ham = 0.5 * per_node(
                lambda z: np.trace(np.linalg.matrix_power(sol.ode_matrix(z), 2)),
                sol, m, 1e-8)
            assert abs(contour[m] - ham) < 1e-10
            pair = per_node(lambda z: sol.kc.bergmann((z, 1), (z, 2)),
                            sol, m, 1e-11)
            assert abs(iso.bergmann_pair_residue(sol.kc, m) - pair) < 1e-10


def test_circle_failures_name_the_branch_point(sol1, monkeypatch):
    def stalled(f, center, radius, **kwargs):
        raise QuadratureFailure(
            f"circle integral at {center:.4g} (radius {radius:.3g}) stalled")

    monkeypatch.setattr(hyp, "integrate_circle", stalled)
    # a fresh kernel context, whose pair residues are not yet memoized;
    # all three circles go through one helper
    kc = KernelContext(sol1.periods, sol1.kc.char)
    for call in (lambda: iso.b_derivative_sheet_sum(sol1.periods, 2),
                 lambda: iso.differential_variation_check(kc, 2, 0.9 + 1.8j),
                 lambda: iso.bergmann_pair_residue(kc, 2)):
        with pytest.raises(QuadratureFailure,
                           match="circle at branch point 2: circle integral "
                                 "at 2[+]0j") as info:
            call()
        assert isinstance(info.value.__cause__, QuadratureFailure)


def test_squared_trace_ignores_constant_right_factor(sol1):
    # right-multiplying the solution by a constant matrix leaves the
    # logarithmic derivative, hence every Hamiltonian, untouched
    z = 0.7 + 1.6j
    psi, dpsi = sol1.psi_pair(z)
    D = np.array([[1.3 - 0.4j, 0.2j], [0.0, 0.7 + 0.1j]])
    a = dpsi @ np.linalg.inv(psi)
    b = (dpsi @ D) @ np.linalg.inv(psi @ D)
    assert abs(np.trace(a @ a) - np.trace(b @ b)) < 1e-12


def test_tau_closed_form_structure(sol1):
    te = iso.tau_closed_form(sol1)
    assert te.value == te.factor * te.theta_factor
    assert abs(te.factor - np.exp(-0.5 * te.log_det_a)
               * np.exp(-0.125 * np.sum(te.pair_logs))) < 1e-14
    want = -4.7134321018725674e-02 - 3.8000923263678804e-01j
    assert abs(te.value - want) < 1e-12
    assert abs(te.det_a - (-3.3715007096251930e0j)) < 1e-12


def test_tau_gradient_is_hamiltonian(sol1, sol2):
    for m in range(4):
        assert iso.tau_gradient_check(sol1, m) < 1e-4
    assert iso.tau_gradient_check(sol2, 2) < 1e-4


def test_tau_mixed_partials(sol1):
    # d ln tau is closed: gradients commute across branch points
    pd = sol1.periods
    char = sol1.kc.char
    h = 1e-5

    def grad(curve, m):
        kc = KernelContext(compute_periods(curve), char)
        return iso.hamiltonian_closed(kc, m)

    d0_h2 = (grad(pd.curve.perturb(0, h), 2)
             - grad(pd.curve.perturb(0, -h), 2)) / (2 * h)
    d2_h0 = (grad(pd.curve.perturb(2, h), 0)
             - grad(pd.curve.perturb(2, -h), 0)) / (2 * h)
    assert abs(d0_h2 - d2_h0) < 1e-3


def test_translation_invariance(sol1, sol2):
    for sol in (sol1, sol2):
        assert iso.translation_defect(sol.periods, sol.kc.char,
                                      0.37 + 0.21j) < 1e-10


def test_theta_divisor_zeros_tau(sol1):
    te = iso.tau_closed_form(sol1.periods, char=sol1.kc.odd_char)
    assert abs(te.value) < 1e-12
    assert abs(te.factor) > 0.1


def test_subset_theta_products(sol1, sol2, monkeypatch):
    # fourth powers of subset theta constants against the period
    # determinant and the split point products: unit modulus ratios of
    # subset-dependent sign
    for sol in (sol1, sol2):
        ratios = iso.thomae_ratios(sol.periods)
        assert np.max(np.abs(np.abs(ratios) - 1.0)) < 1e-10
        assert np.max(np.abs(ratios.imag)) < 1e-10
    assert np.max(np.abs(iso.thomae_ratios(sol1.periods) - 1.0)) < 1e-10
    # the theta constants are the ones the subset characteristics keep
    # from their vanishing gate; on fresh period data no theta is repeated
    calls = []
    monkeypatch.setattr(iso, "theta", lambda *args: calls.append(args))
    ratios = iso.thomae_ratios(compute_periods(sol2.curve))
    assert calls == []
    assert ratios.tobytes() == iso.thomae_ratios(sol2.periods).tobytes()


def test_branch_point_abel_values_near_a_tight_anchor():
    # each curve puts a branch point close to a cut it does not bound:
    # branch point 1 of the first sits 0.1 from it, branch point 0 of the
    # second 0.03.  Routes start at branch point 0's residue-circle node and
    # branch-point values hop from their own nodes, so no curve needs a
    # route start next to a branch point, inside every route clearance
    curves = ([-2.0, 0.0, 0.1 - 1j, 0.1 + 1j],
              [-1.0, -0.98 + 3j, -0.97 - 1j, -0.97 + 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in curves:
            pd = compute_periods(HyperellipticCurve(points))
            for m in range(4):
                U = pd.branch_abel()[:, m]
                _, _, res = pd.lattice_decompose(2.0 * U)
                assert np.max(np.abs(res)) < 1e-10, m
            ratios = iso.thomae_ratios(pd)
            assert len(ratios) == 3
            assert np.max(np.abs(np.abs(ratios) - 1.0)) < 1e-10
        node, _ = pd.anchor_point()
        rho = 0.25 * np.min(np.abs(pd.curve.points[1:] - pd.curve.points[0]))
        want = pd.curve.points[0] + rho * np.exp(1j * _CIRCLE_PHASE)
        assert abs(node - want) < 1e-15
        assert np.all(np.isfinite(pd.abel(0.5 + 0.5j)))
        kc = KernelContext(pd, ThetaChar((0.11,), (-0.23,)))
        sol = RHSolution(pd, None, 0.5 + 0.5j, kernel=kc)
        _, defect, _ = sol.monodromy_product()
        assert defect < 1e-12
        rs = sol.residues()
        assert np.max(np.abs(rs.exponents - [-0.25, 0.25])) < 1e-10
        assert rs.sum_norm < 1e-10


def test_branch_tracking(sol1):
    te = iso.tau_closed_form(sol1)
    moved = compute_periods(sol1.periods.curve.perturb(0, 0.01))
    tracked = iso.tau_closed_form(moved, char=sol1.kc.char, reference=te)
    principal = np.log(iso._pair_diffs(moved.curve.points))
    assert np.max(np.abs(tracked.pair_logs - principal)) < 1e-12
    # a straight path through a collision is rejected
    with pytest.raises(DegenerateCurve):
        iso._continued_logs(np.array([1.0 + 0j]), np.array([-1.0 + 0j]),
                            np.array([1j * np.pi]), 1.0)


def test_schlesinger_system(sol1):
    residuals = iso.schlesinger_residuals(sol1, 0)
    assert np.max(residuals) < 1e-4          # includes the diagonal n = 0
    assert iso.schlesinger_residuals(sol1, 2)[2] < 1e-4


def test_schlesinger_negative_control(sol1):
    # dragging the characteristic with the branch point changes the
    # monodromy data, which the deformation equations must detect
    bad = iso.schlesinger_residuals(sol1, 0, char_drift=20.0)[1]
    assert bad > 1e-2


def test_projective_connection_compatibility(sol1, sol2):
    assert iso.compatibility_check(sol1, 0, 2) < 1e-4
    assert iso.compatibility_check(sol2, 0, 4) < 1e-4
    with pytest.raises(ValueError):
        iso.compatibility_check(sol1, 1, 1)


def test_curve_factor_two_routes(sol1, sol2):
    for sol, m in ((sol1, 1), (sol2, 4)):
        via_connection, via_residue = iso.f_factor_check(sol, m)
        assert via_connection < 1e-5
        assert via_residue < 1e-5


def test_curve_factor_collision_scaling(sol1):
    # as two branch points collide the pair product drives |F| like
    # separation^(-1/8); the determinant adds a slowly varying correction
    def logF(delta):
        pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 2.0 + delta]))
        te = iso.tau_closed_form(pd, char=ThetaChar((0.11,), (-0.23,)))
        return np.log(abs(te.factor))

    assert abs(iso.tau_closed_form(sol1).factor) > 0.1
    slope = (logF(5e-4) - logF(1e-3)) / (np.log(5e-4) - np.log(1e-3))
    assert abs(slope - (-0.125)) < 0.1


def test_step_guard():
    # the step is 1e-5 of the curve scale; a pair 5e-4 apart is too close
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 2.0005]))
    with pytest.raises(StepTooLarge):
        iso.rauch_check(pd, 0)


def test_period_derivative_on_a_close_pair():
    # branch points 0 and 1 sit 0.01 of the curve scale apart, so the step
    # is 1e-3 of their separation: a plain central difference misses the
    # closed form by 1.7e-6, over the 1e-6 rauch_fd gate of verify, and the
    # Richardson step by under 1e-9
    pd = compute_periods(HyperellipticCurve(
        [0.604633396765573 - 0.7194788325354105j,
         0.5974597096318456 - 0.6974004937430914j,
         1.5579295482177131 - 0.5936470313729414j,
         1.7686166398758791 - 1.4632561725708269j]))
    for m in (0, 1):
        assert iso.rauch_check(pd, m) < 1e-7


@pytest.mark.parametrize("genus", [1, 2])
def test_compatibility_scans_only_the_base_curve(genus, monkeypatch):
    # each moved curve's own scan yields the base curve's subset
    # characteristic, so the base scan serves all eight moved curves, and
    # the compat suite's two rows share it: one scan, not nine
    curve, _ = load_curve(SAMPLES / f"curve_g{genus}.json")
    c = json.loads((SAMPLES / f"char_g{genus}.json").read_text())
    pd = compute_periods(curve)
    scans = []
    scan = ker_mod.riemann_constant

    def counted(periods, *args, **kwargs):
        scans.append(periods)
        return scan(periods, *args, **kwargs)

    monkeypatch.setattr(ker_mod, "riemann_constant", counted)
    iso.compatibility_check(KernelContext(pd, ThetaChar(tuple(c["p"]),
                                                        tuple(c["q"]))),
                            0, len(curve.points) - 1)
    assert len(scans) == 1 and scans[0] is pd
    base = even_subset_characteristics(pd)[0]
    assert len(pd._moved) == 8
    for moved in pd._moved.values():
        assert even_subset_characteristics(moved)[0] == base
    scans.clear()
    assert main(["verify", "--curve", str(SAMPLES / f"curve_g{genus}.json"),
                 "--char", str(SAMPLES / f"char_g{genus}.json"),
                 "--suite", "compat", "--output", os.devnull]) == 0
    assert len(scans) == 1

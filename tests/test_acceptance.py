"""End-to-end acceptance checks, one test per advertised guarantee.

Each test states its tolerance inline and is independent of the others;
together they cover period matrices, theta identities, kernel relations,
the solution family, its deformation equations, the tau function, and the
reproducibility of the command line verifier.
"""

import time

import numpy as np
import pytest

from rhtheta.cli import main
from rhtheta.hyperelliptic import HyperellipticCurve, compute_periods
from rhtheta.isomonodromy import (
    b_derivative,
    b_derivative_sheet_sum,
    compatibility_check,
    f_factor_check,
    differential_variation_check,
    rauch_check,
    schlesinger_residuals,
    sheet_sum_defect,
    tau_closed_form,
    tau_gradient_check,
)
from rhtheta.kernels import KernelContext
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar, theta, theta_derivs

from test_cli import CURVE, CHAR


def _draw_branch_points(rng, count):
    while True:
        pts = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
        dist = np.abs(pts[:, None] - pts[None, :]) + 10 * np.eye(count)
        if dist.min() > 0.35:
            return pts


def _random_riemann_matrix(rng, g):
    X = rng.uniform(-0.5, 0.5, (g, g))
    R = rng.uniform(-1, 1, (g, g))
    return X + X.T + 1j * (R @ R.T + (0.6 + 0.4 * g) * np.eye(g))


def _random_point(rng, pts, scale):
    center = complex(np.mean(pts))
    while True:
        z = center + scale * complex(rng.uniform(-1.2, 1.2),
                                     rng.uniform(-1.2, 1.2))
        if min(abs(z - p) for p in pts) > 0.12 * scale:
            return (z, int(rng.integers(1, 3)))


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


def test_period_matrices_on_random_curves():
    # 50 random curves per genus in under a minute: the period matrix is
    # symmetric, its imaginary part positive definite, and tightening the
    # quadrature target (forcing any further node doubling) moves nothing
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for g, count in ((1, 4), (2, 6), (3, 8)):
        for _ in range(50):
            curve = HyperellipticCurve(_draw_branch_points(rng, count))
            pd = compute_periods(curve, tol=1e-11)
            assert np.max(np.abs(pd.B - pd.B.T)) < 1e-10
            assert np.linalg.eigvalsh(pd.B.imag).min() > 0
            refined = compute_periods(curve, tol=1e-12)
            assert np.max(np.abs(refined.B - pd.B)) < 1e-10
    assert time.monotonic() - t0 < 60.0


def test_theta_quasi_periodicity_and_heat_flow():
    rng = np.random.default_rng(77)
    # lattice shifts at 100 random (z, B) across genus 1..3
    for trial in range(100):
        g = 1 + trial % 3
        B = _random_riemann_matrix(rng, g)
        p, q = rng.uniform(-0.5, 0.5, g), rng.uniform(-0.5, 0.5, g)
        ch = ThetaChar(tuple(p), tuple(q))
        z = rng.normal(0, 0.8, g) + 1j * rng.normal(0, 0.5, g)
        n, m = rng.integers(-2, 3, g), rng.integers(-2, 3, g)
        lhs = theta(z + n + B @ m, B, ch)
        mult = np.exp(2j * np.pi * (p @ n - q @ m)
                      - 1j * np.pi * m @ B @ m - 2j * np.pi * m @ z)
        rhs = mult * theta(z, B, ch)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
    # the B derivative is the z Hessian scaled by 1/(4 pi i); the central
    # difference at h = 1e-4 lands inside 1e-6 and shrinks about fourfold
    # when h is halved
    g = 2
    B = _random_riemann_matrix(rng, g)
    ch = ThetaChar((0.15, -0.3), (0.05, 0.4))
    z = np.array([0.21 - 0.08j, -0.33 + 0.14j])
    ev = theta_derivs(z, B, ch)
    for a in range(g):
        for b in range(a, g):
            def fd(h):
                dB = np.zeros((g, g))
                dB[a, b] += h
                dB[b, a] += h if a != b else 0.0
                return (theta(z, B + dB, ch) - theta(z, B - dB, ch)) / (2 * h)

            want = (2 - (a == b)) * ev.hess[a, b] / (4j * np.pi)
            r1 = abs(fd(1e-4) - want)
            r2 = abs(fd(5e-5) - want)
            assert r1 < 1e-6
            assert 2.5 < r1 / r2 < 6.0


def test_fay_identities_including_trisecant(sol1, sol2):
    rng = np.random.default_rng(4096)
    for sol in (sol1, sol2):
        kc = sol.kc
        pts, scale = sol.curve.points, sol.curve.scale
        for n in (2, 3):
            done = 0
            while done < 10:
                xs = [_random_point(rng, pts, scale) for _ in range(n)]
                ys = [_random_point(rng, pts, scale) for _ in range(n)]
                lams = [p[0] for p in xs + ys]
                sep = min(abs(a - b) for i, a in enumerate(lams)
                          for b in lams[i + 1:])
                if sep < 0.08 * scale:
                    continue
                assert kc.fay_residual(xs, ys) < 1e-8
                done += 1


def test_kernel_product_matches_bergmann(sol1, sol2):
    rng = np.random.default_rng(512)
    for sol in (sol1, sol2):
        kc = sol.kc
        pts, scale = sol.curve.points, sol.curve.scale
        dd = kc.log_hess_char_at_zero()
        done = 0
        while done < 10:
            P = _random_point(rng, pts, scale)
            Q = _random_point(rng, pts, scale)
            if abs(P[0] - Q[0]) < 0.1 * scale:
                continue
            lhs = kc.szego(P, Q) * kc.szego(Q, P)
            vP = sol.periods.differentials(
                P[0], 1.0 if P[1] == 1 else -1.0)[:, 0]
            vQ = sol.periods.differentials(
                Q[0], 1.0 if Q[1] == 1 else -1.0)[:, 0]
            rhs = -kc.bergmann(P, Q) - vP @ dd @ vQ
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
            done += 1


def test_solution_normalization_determinant_monodromy(sol1, sol2):
    rng = np.random.default_rng(31)
    for sol in (sol1, sol2):
        assert np.array_equal(sol.psi(sol.lambda0), np.eye(2))
        pts, scale = sol.curve.points, sol.curve.scale
        for _ in range(25):
            z, _ = _random_point(rng, pts, scale)
            assert abs(np.linalg.det(sol.psi(z)) - 1.0) < 1e-8
        results = sol.monodromies()
        for r in results:
            # off-diagonal quasi-permutation: the permutation part is the
            # sheet swap, so both diagonal entries vanish
            assert r.permutation == (1, 0)
            predicted = sol.predict_monodromy(r.index, r.columns)
            assert np.max(np.abs(predicted - r.matrix)) < 1e-6
        _, defect, _ = sol.monodromy_product(results)
        assert defect < 1e-6


def test_deformation_equations_with_negative_control():
    rng = np.random.default_rng(88)
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    char = ThetaChar(tuple(rng.uniform(-0.4, 0.4, 1)),
                     tuple(rng.uniform(-0.4, 0.4, 1)))
    sol = RHSolution(pd, char, 1.5 + 1.1j)
    for m in range(4):
        assert np.max(schlesinger_residuals(sol, m)) < 1e-4
    # a characteristic dragged along with the moving branch point is no
    # longer constant monodromy data and must break the equations
    assert np.max(schlesinger_residuals(sol, 0, char_drift=20.0)) > 1e-2


def test_tau_gradient_and_divisor_vanishing(sol1, sol2):
    for sol in (sol1, sol2):
        for m in range(len(sol.curve.points)):
            assert tau_gradient_check(sol, m) < 1e-4
    # on the theta divisor the tau value collapses while the curve factor
    # survives, so the zero comes from the monodromy data alone
    pd = sol1.periods
    odd = ThetaChar((0.5,), (0.5,))
    ev = tau_closed_form(pd, odd)
    theta_scale = abs(theta(np.zeros(1), pd.B, ThetaChar((0.0,), (0.0,))))
    assert abs(ev.factor) > 1e-3
    assert abs(ev.value) < 1e-8 * abs(ev.factor) * theta_scale


def test_variational_formulas_and_sheet_sums(sol1, sol2):
    for sol, moving in ((sol1, range(4)), (sol2, (0, 3, 5))):
        pd = sol.periods
        probe = complex(pd.curve.points[0] + 1.37j * pd.curve.scale)
        for m in moving:
            assert rauch_check(pd, m) < 1e-6
        # the contour form of the same derivative integrates the sheet sum
        # of paired differentials; it has to land on the closed form
        for m in range(len(pd.curve.points)):
            agree = np.max(np.abs(b_derivative(pd, m)
                                  - b_derivative_sheet_sum(pd, m)))
            assert agree < 1e-8
        assert sheet_sum_defect(pd, probe) < 1e-12
        assert differential_variation_check(sol.kc, 0, probe) < 1e-6


def test_connection_compatibility_and_tau_factor_routes(sol1, sol2):
    for sol, partner in ((sol1, 2), (sol2, 4)):
        assert compatibility_check(sol, 0, partner) < 1e-4
        assert max(f_factor_check(sol, 0)) < 1e-5


def test_cli_verification_reproducibility(tmp_path):
    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["verify", "--curve", CURVE, "--char", CHAR,
                     "--suite", "all", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhtheta.theta as theta_module
from rhtheta.errors import NotRiemannMatrix, TruncationOverflow
from rhtheta.theta import (
    ThetaChar,
    ThetaContext,
    find_odd_nonsingular_char,
    theta,
    theta_derivs,
)

# Frozen g=1 reference values (classical Jacobi theta constants).
THETA3_AT_0_TAU_I = 1.0864348112133080146
THETA3_AT_Z = 0.95869152529099514998 + 0.066484773332860036266j  # z=0.31-0.12i


def random_riemann_matrix(rng, g):
    X = rng.uniform(-0.5, 0.5, (g, g))
    X = X + X.T
    R = rng.uniform(-1, 1, (g, g))
    Y = R @ R.T + (0.6 + 0.4 * g) * np.eye(g)
    return X + 1j * Y


def conditioned_riemann_matrix(rng, g, lam_min, cond):
    """Random B whose Im B has smallest eigenvalue lam_min and condition
    number cond (g > 1)."""
    X = rng.uniform(-1, 1, (g, g))
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    t = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, max(0, g - 2))])[:g]
    Y = Q @ np.diag(lam_min * cond ** t) @ Q.T
    return X + X.T + 1j * 0.5 * (Y + Y.T)


def box_sum(z, B, char, tol=1e-14):
    """Reference: the former box sum at one point, |n_i - c_i| <= r.

    Returns (value, grad, hess) and, for each, the sum of the moduli of
    its summands, each weighted by 1 + |x| for its exponent x: the scale
    that rounding errors are proportional to, as exp(x) is computed with
    an error of about eps |x| |exp(x)|.
    """
    Y = B.imag
    lam = np.linalg.eigvalsh(Y).min()
    r = np.sqrt((-np.log(tol) + 8.0) / (np.pi * lam))
    p, q = char.arrays()
    c = -np.linalg.solve(Y, z.imag) - p
    axes = [np.arange(np.floor(ci - r), np.ceil(ci + r) + 1) for ci in c]
    n = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(c))
    m = n + p
    expo = (1j * np.pi * np.einsum("ka,ab,kb->k", m, B, m)
            + 2j * np.pi * m @ (z + q))
    shift = expo.real.max()
    e = np.exp(shift) * np.exp(expo - shift)
    u = 2j * np.pi * m
    out = (e.sum(), u.T @ e, np.einsum("ka,kb,k->ab", u, u, e))
    size = np.abs(e) * (1.0 + np.abs(expo))
    grow = 1.0 + np.linalg.norm(u, axis=1)
    scales = (size.sum(), (size * grow).sum(), (size * grow ** 2).sum())
    return out, scales


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       lam_min=st.floats(0.25, 1.5), cond=st.floats(1.0, 50.0))
def test_template_covers_the_certified_ellipsoid(g, seed, lam_min, cond):
    # round(c) + K must hold every lattice point n of the box around c
    # with (n - c).Y(n - c) <= lam_min r^2, for any centre c
    rng = np.random.default_rng(seed)
    B = conditioned_riemann_matrix(rng, g, lam_min, cond if g > 1 else 1.0)
    ctx = ThetaContext(B)
    Y = ctx.B.imag
    lam = np.linalg.eigvalsh(B.imag).min()
    r = ctx.radius
    template = {tuple(k) for k in ctx.k.astype(int)}
    for c in rng.uniform(-5, 5, (4, g)):
        axes = [np.arange(np.floor(ci - r), np.ceil(ci + r) + 1) for ci in c]
        n = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, g)
        d = n - c
        inside = n[np.einsum("ka,ab,kb->k", d, Y, d) <= lam * r * r]
        assert len(inside) > 0
        a = np.rint(c)
        missed = [k for k in (inside - a).astype(int)
                  if tuple(k) not in template]
        assert not missed, f"{len(missed)} ellipsoid points outside a + K"


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_engine_matches_box_sum(g):
    rng = np.random.default_rng(30 + g)
    mats = [random_riemann_matrix(rng, g)]
    if g > 1:
        mats.append(conditioned_riemann_matrix(rng, g, 0.4, 50.0))
    for B in mats:
        ctx = ThetaContext(B)
        for ch in (ThetaChar.zero(g),
                   ThetaChar.from_arrays(rng.uniform(-1, 1, g),
                                         rng.uniform(-1, 1, g)),
                   ThetaChar(tuple(rng.integers(0, 2, g) / 2),
                             tuple(rng.integers(0, 2, g) / 2))):
            # spread centres: imaginary parts move the Gaussian centre
            # across several lattice cells
            zs = rng.normal(0, 1.0, (g, 6)) + 1j * rng.normal(0, 2.0, (g, 6))
            refs = [box_sum(zs[:, k], B, ch) for k in range(6)]
            for order in (0, 1, 2):
                stacked = theta_derivs(zs, ctx, ch, order=order)
                for k, (want, scale) in enumerate(refs):
                    one = theta_derivs(zs[:, k], B, ch, order=order)
                    got = [(one.value, stacked.value[k])]
                    if order >= 1:
                        got.append((one.grad, stacked.grad[:, k]))
                    if order >= 2:
                        got.append((one.hess, stacked.hess[:, :, k]))
                    for (x, y), w, sc in zip(got, want, scale):
                        assert np.max(np.abs(x - w)) <= 1e-13 * sc
                        assert np.max(np.abs(y - w)) <= 1e-13 * sc


def test_order_below_two_skips_the_hessian():
    rng = np.random.default_rng(40)
    B = random_riemann_matrix(rng, 3)
    z = rng.normal(0, 0.5, 3) + 1j * rng.normal(0, 0.5, 3)
    zs = rng.normal(0, 0.5, (3, 4)) + 1j * rng.normal(0, 0.5, (3, 4))
    for pts in (z, zs):
        full = theta_derivs(pts, B)
        first = theta_derivs(pts, B, order=1)
        value = theta_derivs(pts, B, order=0)
        assert first.hess is None and value.hess is None
        assert value.grad is None
        assert np.array_equal(first.grad, full.grad)
        assert np.array_equal(value.value, full.value)
        assert np.array_equal(first.value, full.value)


def test_context_matches_matrix_and_checks_tolerance():
    rng = np.random.default_rng(42)
    B = random_riemann_matrix(rng, 2)
    z = rng.normal(0, 0.5, 2) + 1j * rng.normal(0, 0.5, 2)
    ctx = ThetaContext(B)
    assert theta(z, ctx) == theta(z, B)
    with pytest.raises(ValueError):
        theta(z, ctx, tol=1e-10)
    with pytest.raises(ValueError):
        theta_derivs(z, ctx, order=3)


def test_value_g1_frozen():
    B = np.array([[1j]])
    assert abs(theta(np.zeros(1), B) - THETA3_AT_0_TAU_I) < 1e-13
    val = theta(np.array([0.31 - 0.12j]), B)
    assert abs(val - THETA3_AT_Z) < 1e-13


def test_value_g1_against_mpmath():
    import mpmath as mp
    rng = np.random.default_rng(2)
    for _ in range(6):
        tau = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(0.4, 1.6)
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-0.7, 0.7)
        ours = theta(np.array([z]), np.array([[tau]]))
        ref = mp.jtheta(3, mp.pi * mp.mpc(z), mp.exp(1j * mp.pi * mp.mpc(tau)))
        assert abs(ours - complex(ref)) < 1e-12 * max(1.0, abs(complex(ref)))


def test_half_char_is_minus_theta1():
    import mpmath as mp
    B = np.array([[0.22 + 1.31j]])
    ch = ThetaChar((0.5,), (0.5,))
    for z in (0.3 + 0.1j, -0.7 + 0.44j):
        ours = theta(np.array([z]), B, ch)
        ref = -mp.jtheta(1, mp.pi * mp.mpc(z), mp.exp(1j * mp.pi * mp.mpc(0.22 + 1.31j)))
        assert abs(ours - complex(ref)) < 1e-12


def test_quasi_periodicity():
    rng = np.random.default_rng(4)
    for g in (1, 2, 3):
        B = random_riemann_matrix(rng, g)
        ch = ThetaChar(tuple(rng.integers(0, 2, g) / 2),
                       tuple(rng.integers(0, 2, g) / 2))
        for _ in range(8):
            z = rng.normal(0, 0.8, g) + 1j * rng.normal(0, 0.5, g)
            n = rng.integers(-2, 3, g)
            m = rng.integers(-2, 3, g)
            lhs = theta(z + n + B @ m, B, ch)
            p, q = np.array(ch.p), np.array(ch.q)
            mult = np.exp(2j * np.pi * (p @ n - q @ m)
                          - 1j * np.pi * m @ B @ m - 2j * np.pi * m @ z)
            rhs = mult * theta(z, B, ch)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_integer_char_shift():
    rng = np.random.default_rng(6)
    B = random_riemann_matrix(rng, 2)
    p = np.array([0.5, 0.0])
    q = np.array([0.0, 0.5])
    z = np.array([0.1 + 0.2j, -0.3 + 0.1j])
    N = np.array([1, -2])
    M = np.array([3, 1])
    lhs = theta(z, B, ThetaChar(tuple(p + N), tuple(q + M)))
    rhs = np.exp(2j * np.pi * p @ M) * theta(z, B, ThetaChar(tuple(p), tuple(q)))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_parity():
    rng = np.random.default_rng(8)
    B = random_riemann_matrix(rng, 2)
    z = rng.normal(0, 0.5, 2) + 1j * rng.normal(0, 0.3, 2)
    even = ThetaChar((0.5, 0.0), (0.0, 0.5))   # 4 p.q = 0
    odd = ThetaChar((0.5, 0.5), (0.5, 0.5))    # 4 p.q = 2 -> even, pick another
    assert even.parity() == 1
    odd = ThetaChar((0.5, 0.0), (0.5, 0.0))    # 4 p.q = 1
    assert odd.parity() == -1
    assert abs(theta(-z, B, even) - theta(z, B, even)) < 1e-12
    assert abs(theta(-z, B, odd) + theta(z, B, odd)) < 1e-12


def test_gradient_and_hessian_fd():
    rng = np.random.default_rng(10)
    for g in (1, 2):
        B = random_riemann_matrix(rng, g)
        ch = ThetaChar(tuple(rng.integers(0, 2, g) / 2),
                       tuple(rng.integers(0, 2, g) / 2))
        z = rng.normal(0, 0.4, g) + 1j * rng.normal(0, 0.2, g)
        ev = theta_derivs(z, B, ch)
        h = 1e-5
        for a in range(g):
            e = np.eye(g)[a]
            fd = (theta(z + h * e, B, ch) - theta(z - h * e, B, ch)) / (2 * h)
            assert abs(fd - ev.grad[a]) < 1e-7 * max(1.0, abs(ev.grad[a]))
            for b in range(g):
                eb = np.eye(g)[b]
                fd2 = (theta(z + h * e + h * eb, B, ch)
                       - theta(z + h * e - h * eb, B, ch)
                       - theta(z - h * e + h * eb, B, ch)
                       + theta(z - h * e - h * eb, B, ch)) / (4 * h * h)
                assert abs(fd2 - ev.hess[a, b]) < 1e-5 * max(1.0, abs(ev.hess[a, b]))


def test_theta_matches_theta_derivs_value_exactly():
    rng = np.random.default_rng(12)
    for g in (1, 2, 3, 4):
        B = random_riemann_matrix(rng, g)
        chars = (ThetaChar.zero(g),
                 ThetaChar.from_arrays(rng.uniform(-0.4, 0.4, g),
                                       rng.uniform(-0.4, 0.4, g)))
        for ch in chars:
            for _ in range(3):
                z = rng.normal(0, 0.6, g) + 1j * rng.normal(0, 0.4, g)
                assert theta(z, B, ch) == theta_derivs(z, B, ch).value


@pytest.mark.parametrize("max_terms", [None, 1])
def test_stacked_points_match_single_points(max_terms, monkeypatch):
    # max_terms=1 forces one slice per point: the stacked call then holds
    # no more summands at once than a single-point call
    if max_terms is not None:
        monkeypatch.setattr(theta_module, "_MAX_TERMS", max_terms)
    rng = np.random.default_rng(14)
    for g in (1, 2, 3):
        B = random_riemann_matrix(rng, g)
        ch = ThetaChar.from_arrays(rng.uniform(-0.4, 0.4, g),
                                   rng.uniform(-0.4, 0.4, g))
        zs = rng.normal(0, 0.6, (g, 5)) + 1j * rng.normal(0, 0.4, (g, 5))
        ev = theta_derivs(zs, B, ch)
        vals = theta(zs, B, ch)
        assert ev.value.shape == vals.shape == (5,)
        assert ev.grad.shape == (g, 5) and ev.hess.shape == (g, g, 5)
        for k in range(5):
            one = theta_derivs(zs[:, k], B, ch)
            for got, want in ((ev.value[k], one.value), (vals[k], one.value),
                              (ev.grad[..., k], one.grad),
                              (ev.hess[..., k], one.hess)):
                assert np.max(np.abs(got - want)) < 1e-13 * max(
                    1.0, np.max(np.abs(want)))


def test_heat_equation():
    # d theta / d B_ab = (2 - delta_ab) hess_ab / (4 pi i) when the two
    # symmetric entries move together; verified with one Richardson step
    rng = np.random.default_rng(12)
    g = 2
    B = random_riemann_matrix(rng, g)
    ch = ThetaChar((0.5, 0.0), (0.0, 0.0))
    z = np.array([0.21 - 0.08j, -0.33 + 0.14j])
    ev = theta_derivs(z, B, ch)
    for a in range(g):
        for b in range(g):
            def fd(h):
                dB = np.zeros((g, g))
                dB[a, b] += h
                dB[b, a] += h if a != b else 0.0
                return (theta(z, B + dB, ch) - theta(z, B - dB, ch)) / (2 * h)
            d1, d2 = fd(1e-4), fd(5e-5)
            rich = (4 * d2 - d1) / 3
            want = (2 - (a == b)) * ev.hess[a, b] / (4j * np.pi)
            assert abs(rich - want) < 1e-6 * max(1.0, abs(want))


def test_odd_nonsingular_char():
    rng = np.random.default_rng(14)
    ch, _ = find_odd_nonsingular_char(np.array([[1j]]))
    assert ch.p == (0.5,) and ch.q == (0.5,)
    for g in (2, 3):
        B = random_riemann_matrix(rng, g)
        ch, grad = find_odd_nonsingular_char(B)
        assert ch.parity() == -1
        assert abs(theta(np.zeros(g), B, ch)) < 1e-12
        ev = theta_derivs(np.zeros(g), B, ch)
        assert np.linalg.norm(ev.grad) > 1e-8
        # the handed-back gradient is the one a fresh call computes
        assert np.array_equal(grad, ev.grad)


def test_validation():
    with pytest.raises(NotRiemannMatrix):
        theta(np.zeros(1), np.array([[1.0 + 0j]]))   # Im B = 0
    with pytest.raises(NotRiemannMatrix):
        theta(np.zeros(2), np.array([[1j, 0.5], [0.2, 1j]]))  # asymmetric
    with pytest.raises(TruncationOverflow):
        theta(np.zeros(1), np.array([[1e-5j]]))

"""Deformation identities of the solution under moving branch points.

The residue matrices of the logarithmic derivative obey the Schlesinger
system, the generating Hamiltonians are residues of the squared trace,
and the resulting tau-function has a closed form: a power of the
a-period determinant, a Vandermonde-type product over the branch
points, and a theta constant.  Every function here checks one of these
statements by pitting a finite-difference derivative in a branch point
against the corresponding closed formula, or two closed formulas
against each other.

Finite differences are central with step 1e-5 times the curve scale and
one Richardson halving; the perturbed curve keeps its cut pairing and
its sorted point order, so all period data stays on the same homology
basis and the derivatives are honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, StepTooLarge
from .hyperelliptic import compute_periods
from .kernels import KernelContext, even_subset_characteristics
from .quadrature import integrate_circle
from .rh_solver import _CIRCLE_PHASE, RHSolution, _circle_abel
from .theta import ThetaChar, theta, theta_derivs

_FD_FACTOR = 1e-5

# residuals of finite-difference checks are dominated by the difference
# noise, not by the quadrature or theta error
TOL_H = 1e-6
TOL_FD = 1e-4


def _step(curve, h):
    if h is None:
        h = _FD_FACTOR * curve.scale
    if h > 0.02 * curve.min_separation:
        raise StepTooLarge(
            f"step {h:.3g} is comparable to the branch point separation")
    return h


def _central(f, h, richardson=True):
    d = (f(h) - f(-h)) / (2.0 * h)
    if not richardson:
        return d
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4.0 * d2 - d) / 3.0


def _circle_radius(points, m):
    return 0.25 * min(abs(points[m] - q)
                      for i, q in enumerate(points) if i != m)


# -- exact variations of the period data ------------------------------------

def numerator_values(periods, lam):
    """Numerator polynomials of the normalized differentials at lam;
    v_alpha = P_alpha(lam) / w(lam)."""
    g = periods.curve.genus
    return (np.asarray(lam, dtype=complex) ** np.arange(g)) @ periods.C


def b_derivative(periods, m):
    """Derivative of the period matrix in branch point m, in closed form.

    The pairing of the normalized differentials across the two sheets has
    a simple pole at the branch point whose residue is the product of the
    numerator polynomials over the remaining linear factors.
    """
    lam = periods.curve.points[m]
    P = numerator_values(periods, lam)
    prodp = np.prod([lam - q for i, q in enumerate(periods.curve.points)
                     if i != m])
    return 4j * np.pi * np.outer(P, P) / prodp


def rauch_check(sol, m, alpha=None, beta=None, h=None, richardson=True):
    """Finite-difference derivative of the period matrix against the
    closed form; max-entry residual, or one entry if indexes are given."""
    pd = _periods(sol)
    h = _step(pd.curve, h)
    fd = _central(lambda s: compute_periods(pd.curve.perturb(m, s)).B,
                  h, richardson)
    diff = np.abs(fd - b_derivative(pd, m))
    if alpha is not None:
        return float(diff[alpha, beta])
    return float(np.max(diff))


def b_derivative_sheet_sum(periods, m, tol=1e-11):
    """Same derivative through the two-sheet sum of differential pairings,
    integrated on a circle; the closed form is its exact residue."""
    lam0 = periods.curve.points[m]

    def f(zs):
        v = periods.differentials(zs)
        return 2.0 * np.einsum("an,bn->abn", v, v)

    rho = _circle_radius(periods.curve.points, m)
    return integrate_circle(f, lam0, rho, tol=tol, phase=_CIRCLE_PHASE)


def differential_variation_check(sol, m, at, h=None, richardson=True):
    """Variation of the normalized differentials at a fixed point of the
    plane against the kernel-residue formula; max residual over the basis.

    The formula pairs each differential with the symmetric kernel summed
    over both sheets and takes the residue at the moving branch point.
    The sheets give the Hessian of log theta[odd] at U(z, 1) -/+ U(at), which
    is even and ignores lattice shifts, so the circle is evaluated in batch.
    """
    kernel = _kernel(sol)
    pd = kernel.periods
    z = complex(at)
    h = _step(pd.curve, h)
    fd = _central(
        lambda s: compute_periods(pd.curve.perturb(m, s)).differentials(z)[:, 0],
        h, richardson)
    lam0, rho = pd.curve.points[m], _circle_radius(pd.curve.points, m)
    _, abel = _circle_abel(pd, m, rho, lambda w: kernel.abel((w, 1)))
    Uz = kernel.abel((z, 1))[:, None]
    vz = pd.differentials(z)[:, 0]

    def f(zs):
        v, U = pd.differentials(zs), abel(zs)
        H = kernel.log_hess_odd(U - Uz) + kernel.log_hess_odd(U + Uz)
        return -v * np.einsum("an,abn,b->n", v, H, vz)

    ex = integrate_circle(f, lam0, rho, phase=_CIRCLE_PHASE) / (2j * np.pi)
    return float(np.max(np.abs(fd - ex)))


def sheet_sum_defect(periods, lam):
    """A holomorphic differential summed over all sheets over one base
    point vanishes; returns the max defect over the basis."""
    vals = periods.differentials(lam, 1.0) + periods.differentials(lam, -1.0)
    return float(np.max(np.abs(vals)))


def w1_sheet_sum(kernel, lam):
    """Sheet sum of the theta-gradient combination of the differentials
    entering the diagonal expansion of the solution; identically zero."""
    ev = theta_derivs(np.zeros(kernel.periods.curve.genus),
                      kernel.periods.B, kernel.char)
    grad = ev.grad / ev.value
    total = 0.0
    for sgn in (1.0, -1.0):
        total = total + grad @ kernel.periods.differentials(lam, sgn)[:, 0]
    return complex(total)


# -- Hamiltonians ------------------------------------------------------------

@dataclass
class HamiltonianSet:
    """Generating Hamiltonians of the deformation in both evaluations."""

    values: np.ndarray           # closed form, one per branch point
    contour_values: np.ndarray   # residue of the squared-trace contour
    discrepancy: float
    radius_factor: float


def bergmann_pair_residue(kernel, m, tol=1e-11):
    """Residue at branch point m of the kernel paired across the two
    sheets over the same base point.  The integrand ignores lattice shifts
    of U, so the circle takes one routed Abel value and hops in batch."""
    pd = kernel.periods
    lam0, rho = pd.curve.points[m], _circle_radius(pd.curve.points, m)
    _, abel = _circle_abel(pd, m, rho, lambda w: kernel.abel((w, 1)))

    def f(zs):
        # w((z, 1), (z, 2)) with v(z, 2) = -v(z, 1) and U(z, 2) = -U(z, 1)
        v = pd.differentials(zs)
        H = kernel.log_hess_odd(2.0 * abel(zs))
        return np.einsum("an,abn,bn->n", v, H, v)

    return integrate_circle(f, lam0, rho, tol=tol,
                            phase=_CIRCLE_PHASE) / (2j * np.pi)


def theta_constant_derivative(kernel, m):
    """Derivative of the log theta constant in branch point m: the heat
    equation converts the period derivative into the theta Hessian."""
    pd = kernel.periods
    ev = theta_derivs(np.zeros(pd.curve.genus), pd.B, kernel.char)
    return np.sum((ev.hess / ev.value) * b_derivative(pd, m)) / (4j * np.pi)


def hamiltonian_closed(kernel, m):
    """Closed form of the m-th Hamiltonian: kernel residue plus the log
    derivative of the theta constant."""
    return -bergmann_pair_residue(kernel, m) + theta_constant_derivative(
        kernel, m)


def hamiltonian_contour(sol, m, radius_factor=0.25, tol=1e-8):
    """The m-th Hamiltonian as half the residue of the squared trace of
    the logarithmic derivative, straight from the solution matrix."""
    lam0 = sol.curve.points[m]
    rho = radius_factor * min(abs(lam0 - q) for i, q in
                              enumerate(sol.curve.points) if i != m)
    dlog = sol.circle_log_derivative(m, rho)

    def f(zs):
        a = dlog(zs)
        return np.einsum("ijn,jin->n", a, a)

    total = integrate_circle(f, lam0, rho, tol=tol, phase=_CIRCLE_PHASE)
    return 0.5 * total / (2j * np.pi)


def hamiltonians(sol, radius_factor=0.25):
    """Both evaluations of every Hamiltonian and their worst discrepancy."""
    kernel = _kernel(sol)
    M = len(sol.curve.points)
    closed = np.array([hamiltonian_closed(kernel, m) for m in range(M)])
    contour = np.array([hamiltonian_contour(sol, m, radius_factor)
                        for m in range(M)])
    return HamiltonianSet(values=closed, contour_values=contour,
                          discrepancy=float(np.max(np.abs(closed - contour))),
                          radius_factor=radius_factor)


# -- tau function ------------------------------------------------------------

@dataclass
class TauEvaluation:
    """Closed-form tau value together with its branch bookkeeping.

    The fractional powers are fixed by the recorded logarithms; with a
    reference evaluation the logarithms are continued along the straight
    deformation path from the reference configuration, otherwise they
    are principal.
    """

    value: complex
    factor: complex              # (det A)^(-1/2) prod (lam_m - lam_n)^(-1/8)
    theta_factor: complex
    det_a: complex
    vandermonde: complex         # the product factor alone
    log_det_a: complex
    pair_logs: np.ndarray        # log(lam_m - lam_n) for m < n, row order
    points: np.ndarray


def _pair_diffs(points):
    M = len(points)
    return np.array([points[m] - points[n]
                     for m in range(M) for n in range(m + 1, M)])


def _continued_logs(diffs, ref_diffs, ref_logs, scale):
    logs = np.empty(len(diffs), dtype=complex)
    for i, (d, d0, l0) in enumerate(zip(diffs, ref_diffs, ref_logs)):
        # straight path from the reference difference; reject paths
        # through zero, where the curve degenerates
        t = np.linspace(0.0, 1.0, 33)
        path = (1.0 - t) * d0 + t * d
        if np.min(np.abs(path)) < 1e-12 * scale:
            raise DegenerateCurve(
                "deformation path collides two branch points")
        incr = np.sum(np.angle(path[1:] / path[:-1]))
        logs[i] = l0 + np.log(abs(d / d0)) + 1j * incr
    return logs


def tau_closed_form(sol, char=None, reference=None):
    """Tau value for the solution's characteristic (or a supplied one).

    Accepts the period data in place of a full solution, so the value is
    defined on the theta divisor as well, where the solution itself does
    not exist; there the theta factor vanishes while the curve factor
    stays finite.
    """
    pd = _periods(sol)
    if char is None:
        char = _kernel(sol).char
    points = pd.curve.points
    det_a = complex(np.linalg.det(pd.A))
    diffs = _pair_diffs(points)
    if reference is None:
        log_det_a = np.log(det_a)
        pair_logs = np.log(diffs)
    else:
        log_det_a = np.log(abs(det_a / reference.det_a)) + 1j * np.angle(
            det_a / reference.det_a) + reference.log_det_a
        pair_logs = _continued_logs(diffs, _pair_diffs(reference.points),
                                    reference.pair_logs, pd.curve.scale)
    vandermonde = np.exp(-0.125 * np.sum(pair_logs))
    factor = np.exp(-0.5 * log_det_a) * vandermonde
    theta_factor = complex(theta(np.zeros(pd.curve.genus), pd.B, char))
    return TauEvaluation(value=factor * theta_factor, factor=factor,
                         theta_factor=theta_factor, det_a=det_a,
                         vandermonde=vandermonde, log_det_a=log_det_a,
                         pair_logs=pair_logs, points=points.copy())


def _dlog_tau_fd(pd0, char, m, s, theta_part=True):
    """Log-ratio of the tau factors between the perturbed and the base
    periods pd0; each factor moves little, so principal logs are safe."""
    curve = pd0.curve
    pds = compute_periods(curve.perturb(m, s))
    out = -0.5 * np.log(np.linalg.det(pds.A) / np.linalg.det(pd0.A))
    lam = curve.points
    for n in range(len(lam)):
        if n != m:
            out -= 0.125 * np.log((lam[m] + s - lam[n]) / (lam[m] - lam[n]))
    if theta_part:
        g = curve.genus
        out += np.log(theta(np.zeros(g), pds.B, char)
                      / theta(np.zeros(g), pd0.B, char))
    return out


def tau_gradient_check(sol, m, h=None, richardson=True):
    """|FD of log tau in branch point m minus the closed Hamiltonian|."""
    pd = _periods(sol)
    kernel = _kernel(sol)
    h = _step(pd.curve, h)
    pd0 = compute_periods(pd.curve)
    fd = _central(lambda s: _dlog_tau_fd(pd0, kernel.char, m, s),
                  h, richardson)
    return float(abs(fd - hamiltonian_closed(kernel, m)))


def thomae_ratios(periods):
    """Fourth powers of the subset theta constants over their product
    formula, normalized by (2 pi i)^2g; the values are +-1.

    One ratio per even subset characteristic, in the subset order.
    """
    points = periods.curve.points
    det_a = np.linalg.det(periods.A)
    g = periods.curve.genus
    out = []
    for T, ch in even_subset_characteristics(periods):
        Tc = [n for n in range(len(points)) if n not in T]
        prod = 1.0
        for group in (list(T), Tc):
            for i, mm in enumerate(group):
                for nn in group[i + 1:]:
                    prod *= points[mm] - points[nn]
        th = complex(theta(np.zeros(g), periods.B, ch))
        out.append(th ** 4 * (2j * np.pi) ** (2 * g) / (det_a ** 2 * prod))
    return np.array(out)


def translation_defect(periods, char, eps):
    """Log-tau change under a rigid translation of every branch point;
    the determinant and the pair differences are invariant, so only the
    theta constant is compared."""
    curve = periods.curve
    moved = compute_periods(type(curve)(curve.points + eps,
                                        cut_pairing=curve.cut_index_pairs))
    g = curve.genus
    out = -0.5 * np.log(np.linalg.det(moved.A) / np.linalg.det(periods.A))
    out += np.log(theta(np.zeros(g), moved.B, char)
                  / theta(np.zeros(g), periods.B, char))
    return float(abs(out))


# -- Schlesinger system -------------------------------------------------------

def schlesinger_rhs(points, lam0, residue_matrices, m, n):
    """Right-hand side of the deformation equation for residue n under
    motion of branch point m, for a solution normalized at lam0.

    The off-diagonal equation carries the normalization-point term; in
    the diagonal equation those terms cancel against the vanishing total
    residue, leaving the plain commutator sum.
    """
    A = residue_matrices
    if m != n:
        com = A[n] @ A[m] - A[m] @ A[n]
        return com / (points[n] - points[m]) - com / (lam0 - points[m])
    out = np.zeros_like(A[m])
    for k in range(len(points)):
        if k != m:
            com = A[k] @ A[m] - A[m] @ A[k]
            out = out - com / (points[k] - points[m])
    return out


def schlesinger_residuals(sol, m, h=None, richardson=True, char_drift=0.0):
    """Max-entry residuals of the deformation equations of every residue
    matrix under motion of branch point m.

    char_drift moves the twist characteristic along with the branch
    point; any nonzero drift breaks the constancy of the monodromy data
    and must blow the residuals up, which makes it a negative control.
    """
    kernel = _kernel(sol)
    pd = _periods(sol)
    curve = pd.curve
    M = len(curve.points)
    h = _step(curve, h)
    p0, q0 = kernel.char.arrays()

    def residue_stack(s):
        char = ThetaChar(tuple(p0 + char_drift * s), tuple(q0))
        pds = compute_periods(curve.perturb(m, s))
        moved = RHSolution(pds, None, sol.lambda0,
                           kernel=KernelContext(pds, char))
        return np.array([moved.residue(n) for n in range(M)])

    fd = _central(residue_stack, h, richardson)
    base = [sol.residue(n) for n in range(M)]
    out = np.empty(M)
    for n in range(M):
        rhs = schlesinger_rhs(curve.points, sol.lambda0, base, m, n)
        out[n] = np.max(np.abs(fd[n] - rhs))
    return out


def schlesinger_check(sol, m, n, h=None, richardson=True, char_drift=0.0):
    return float(schlesinger_residuals(sol, m, h, richardson,
                                       char_drift)[n])


# -- projective connection compatibility --------------------------------------

def _connection_of(curve, char, m):
    pd = compute_periods(curve)
    return KernelContext(pd, char).projective_connection_at_branch_point(m)


def compatibility_check(sol, m, n, h=None, richardson=True):
    """Symmetry of the mixed branch-point derivatives of the projective
    connection values; returns the finite-difference defect."""
    if m == n:
        raise ValueError("compatibility compares two distinct points")
    kernel = _kernel(sol)
    curve = _periods(sol).curve
    h = _step(curve, h)
    dn_rm = _central(
        lambda s: _connection_of(curve.perturb(n, s), kernel.char, m),
        h, richardson)
    dm_rn = _central(
        lambda s: _connection_of(curve.perturb(m, s), kernel.char, n),
        h, richardson)
    return float(abs(dn_rm - dm_rn))


def f_factor_check(sol, m, h=None, richardson=True):
    """Derivative of the log curve factor of tau, checked both ways.

    Returns the defects of the finite difference against one 24th of the
    projective connection value and against the negative kernel residue;
    the two closed routes agree with each other as well.
    """
    kernel = _kernel(sol)
    pd = _periods(sol)
    h = _step(pd.curve, h)
    pd0 = compute_periods(pd.curve)
    fd = _central(
        lambda s: _dlog_tau_fd(pd0, kernel.char, m, s, theta_part=False),
        h, richardson)
    via_connection = kernel.projective_connection_at_branch_point(m) / 24.0
    via_residue = -bergmann_pair_residue(kernel, m)
    return float(abs(fd - via_connection)), float(abs(fd - via_residue))


# -- aggregate report ---------------------------------------------------------

@dataclass
class VariationalReport:
    """Residuals of every deformation identity on one solution."""

    rauch: np.ndarray            # per branch point
    differentials: np.ndarray    # per branch point, at the probe point
    tau_gradient: np.ndarray     # per branch point
    schlesinger: np.ndarray      # per residue, moving the probe point
    compatibility: np.ndarray    # per partner of the probe point
    moving_index: int
    probe: complex
    tol_fd: float = TOL_FD

    def passed(self):
        worst = max(np.max(r) for r in (self.rauch, self.differentials,
                                        self.tau_gradient, self.schlesinger,
                                        self.compatibility))
        return bool(worst < self.tol_fd)


def variational_report(sol, h=None, moving=0, probe=None):
    """Run every deformation check once; moving selects the branch point
    whose motion drives the Schlesinger and compatibility columns."""
    pd = _periods(sol)
    M = len(pd.curve.points)
    if probe is None:
        probe = pd.curve.points[moving] + 1.37j * pd.curve.scale
    return VariationalReport(
        rauch=np.array([rauch_check(sol, m, h=h) for m in range(M)]),
        differentials=np.array([
            differential_variation_check(sol, m, probe, h=h)
            for m in range(M)]),
        tau_gradient=np.array([tau_gradient_check(sol, m, h=h)
                               for m in range(M)]),
        schlesinger=schlesinger_residuals(sol, moving, h=h),
        compatibility=np.array([
            compatibility_check(sol, moving, n, h=h)
            for n in range(M) if n != moving]),
        moving_index=moving, probe=complex(probe))


def _periods(ctx):
    return ctx.periods if hasattr(ctx, "periods") else ctx


def _kernel(ctx):
    if isinstance(ctx, KernelContext):
        return ctx
    return ctx.kc

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
one Richardson halving, all taken by one helper on the moved period data
of ``PeriodData.moved``: each moved curve is computed once per base
``PeriodData`` and shared by every check that moves the same branch
point by the same step.  The perturbed curve keeps its cut pairing and
its sorted point order, so all period data stays on the same homology
basis and the derivatives are honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, StepTooLarge
from .hyperelliptic import branch_circle, compute_periods
from .kernels import KernelContext, even_subset_characteristics
from .rh_solver import RHSolution
from .theta import ThetaChar, theta, theta_derivs

_FD_FACTOR = 1e-5


def _central(periods, m, f):
    """Derivative in branch point m of f(moved, s), a function of the period
    data with that point moved by s: central, with one Richardson halving,
    which cuts the truncation error from (h/d)^2 to (h/d)^4 relative, d the
    smallest branch-point separation: the plain difference fails the 1e-6
    rauch_fd gate at d = 0.01 times the scale."""
    curve = periods.curve
    h = _FD_FACTOR * curve.scale
    if h > 0.02 * curve.min_separation:
        raise StepTooLarge(
            f"step {h:.3g} is comparable to the branch point separation")

    def at(s):
        return f(periods.moved(m, s), s)

    d = (at(h) - at(-h)) / (2.0 * h)
    d2 = (at(h / 2) - at(-h / 2)) / h
    return (4.0 * d2 - d) / 3.0


# -- exact variations of the period data ------------------------------------

def b_derivative(periods, m):
    """Derivative of the period matrix in branch point m, in closed form.

    The pairing of the normalized differentials across the two sheets has
    a simple pole at the branch point whose residue is the product of the
    numerator polynomials over the remaining linear factors.
    """
    lam = periods.curve.points[m]
    P = periods.numerators(lam)
    prodp = np.prod([lam - q for i, q in enumerate(periods.curve.points)
                     if i != m])
    return 4j * np.pi * np.outer(P, P) / prodp


def rauch_check(sol, m):
    """Finite-difference derivative of the period matrix against the
    closed form; max-entry residual."""
    pd = _periods(sol)
    fd = _central(pd, m, lambda moved, s: moved.B)
    return float(np.max(np.abs(fd - b_derivative(pd, m))))


def b_derivative_sheet_sum(periods, m):
    """Same derivative through the two-sheet sum of differential pairings,
    integrated on a circle; the closed form is its exact residue."""
    def f(zs):
        v = periods.differentials(zs)
        return 2.0 * np.einsum("an,bn->abn", v, v)

    return branch_circle(f, periods.curve.points, m, "period-derivative")


def differential_variation_check(sol, m, at):
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
    fd = _central(pd, m, lambda moved, s: moved.differentials(z)[:, 0])
    Uz = kernel.abel((z, 1))[:, None]
    vz = pd.differentials(z)[:, 0]

    def f(zs):
        v, U = pd.differentials(zs), pd.abel_near_branch(m, zs)
        H = kernel.log_hess_odd(U - Uz) + kernel.log_hess_odd(U + Uz)
        return -v * np.einsum("an,abn,b->n", v, H, vz)

    ex = branch_circle(f, pd.curve.points, m,
                       "differential-variation") / (2j * np.pi)
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
                      kernel.periods.theta_context, kernel.char, order=1)
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
    contour_values: np.ndarray   # squared-trace residue, from Psi's residues
    discrepancy: float


def bergmann_pair_residue(kernel, m):
    """Residue at branch point m of the kernel paired across the two
    sheets over the same base point.  The integrand ignores lattice shifts
    of U, so the circle hops out of the branch point's Abel value in batch.
    Each kernel context computes the residue of a branch point once."""
    if m in kernel._pair_residues:
        return kernel._pair_residues[m]
    pd = kernel.periods

    def f(zs):
        # w((z, 1), (z, 2)) with v(z, 2) = -v(z, 1) and U(z, 2) = -U(z, 1)
        v = pd.differentials(zs)
        H = kernel.log_hess_odd(2.0 * pd.abel_near_branch(m, zs))
        return np.einsum("an,abn,bn->n", v, H, v)

    out = branch_circle(f, pd.curve.points, m,
                        "kernel pair-residue") / (2j * np.pi)
    kernel._pair_residues[m] = out
    return out


def theta_constant_derivative(kernel, m):
    """Derivative of the log theta constant in branch point m: the heat
    equation converts the period derivative into the theta Hessian."""
    pd = kernel.periods
    ev = theta_derivs(np.zeros(pd.curve.genus), pd.theta_context, kernel.char)
    return np.sum((ev.hess / ev.value) * b_derivative(pd, m)) / (4j * np.pi)


def hamiltonian_closed(kernel, m):
    """Closed form of the m-th Hamiltonian: kernel residue plus the log
    derivative of the theta constant."""
    return -bergmann_pair_residue(kernel, m) + theta_constant_derivative(
        kernel, m)


def hamiltonians(sol):
    """Both evaluations of every Hamiltonian and their worst discrepancy.

    The contour value, half the residue of tr(Psi_lambda Psi^-1)^2 at lambda_m,
    is sum_{n != m} tr(A_m A_n) / (lambda_m - lambda_n) by the rational form
    of Psi_lambda Psi^-1 with the solution's own residue matrices A_n."""
    points = sol.curve.points
    closed = np.array([hamiltonian_closed(_kernel(sol), m)
                       for m in range(len(points))])
    A = sol.residues().matrices
    diff = points[:, None] - points[None, :]
    np.fill_diagonal(diff, np.inf)
    contour = (np.einsum("mij,nji->mn", A, A) / diff).sum(axis=1)
    return HamiltonianSet(values=closed, contour_values=contour,
                          discrepancy=float(np.max(np.abs(closed - contour))))


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
    theta_factor = complex(theta(np.zeros(pd.curve.genus), pd.theta_context,
                                 char))
    return TauEvaluation(value=factor * theta_factor, factor=factor,
                         theta_factor=theta_factor, det_a=det_a,
                         vandermonde=vandermonde, log_det_a=log_det_a,
                         pair_logs=pair_logs, points=points.copy())


def _dlog_tau_fd(pd, moved, char, m, s, theta_part=True):
    """Log-ratio of the tau factors between the periods moved by s in
    point m and the base periods pd; each factor moves little, so
    principal logs are safe."""
    out = -0.5 * np.log(np.linalg.det(moved.A) / np.linalg.det(pd.A))
    lam = pd.curve.points
    for n in range(len(lam)):
        if n != m:
            out -= 0.125 * np.log((lam[m] + s - lam[n]) / (lam[m] - lam[n]))
    if theta_part:
        g = pd.curve.genus
        out += np.log(theta(np.zeros(g), moved.theta_context, char)
                      / theta(np.zeros(g), pd.theta_context, char))
    return out


def tau_gradient_check(sol, m):
    """|FD of log tau in branch point m minus the closed Hamiltonian|."""
    pd = _periods(sol)
    kernel = _kernel(sol)
    fd = _central(pd, m, lambda moved, s: _dlog_tau_fd(pd, moved, kernel.char,
                                                       m, s))
    return float(abs(fd - hamiltonian_closed(kernel, m)))


def thomae_ratios(periods):
    """Fourth powers of the subset theta constants over their product
    formula, normalized by (2 pi i)^2g; the values are +-1.

    One ratio per even subset characteristic, in the subset order; the
    theta constants are the ones ``even_subset_characteristics`` kept.
    """
    points = periods.curve.points
    det_a = np.linalg.det(periods.A)
    g = periods.curve.genus
    out = []
    subsets = even_subset_characteristics(periods)
    for (T, _), th in zip(subsets, periods._subset_thetas):
        Tc = [n for n in range(len(points)) if n not in T]
        prod = 1.0
        for group in (list(T), Tc):
            for i, mm in enumerate(group):
                for nn in group[i + 1:]:
                    prod *= points[mm] - points[nn]
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
    out += np.log(theta(np.zeros(g), moved.theta_context, char)
                  / theta(np.zeros(g), periods.theta_context, char))
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


def schlesinger_residuals(sol, m, char_drift=0.0):
    """Max-entry residuals of the deformation equations of every residue
    matrix under motion of branch point m.

    char_drift moves the twist characteristic along with the branch
    point; any nonzero drift breaks the constancy of the monodromy data
    and must blow the residuals up, which makes it a negative control.
    """
    pd = _periods(sol)
    p0, q0 = _kernel(sol).char.arrays()

    def residue_stack(moved, s):
        char = ThetaChar(tuple(p0 + char_drift * s), tuple(q0))
        return RHSolution(moved, None, sol.lambda0, kernel=KernelContext(
            moved, char)).residues().matrices

    fd = _central(pd, m, residue_stack)
    base = sol.residues().matrices
    return np.array([np.max(np.abs(fd[n] - schlesinger_rhs(
        pd.curve.points, sol.lambda0, base, m, n))) for n in range(len(base))])


# -- projective connection compatibility --------------------------------------

def compatibility_check(sol, m, n):
    """Symmetry of the mixed branch-point derivatives of the projective
    connection values; returns the finite-difference defect."""
    if m == n:
        raise ValueError("compatibility compares two distinct points")
    kernel = _kernel(sol)
    pd = _periods(sol)
    # a discrete half period, which a step this small cannot change: the
    # base curve's subset characteristic serves every moved curve
    subset = even_subset_characteristics(pd)[0]

    def connection_at(k):
        return lambda moved, s: KernelContext(
            moved, kernel.char).projective_connection_at_branch_point(k, subset)

    dn_rm = _central(pd, n, connection_at(m))
    dm_rn = _central(pd, m, connection_at(n))
    return float(abs(dn_rm - dm_rn))


def f_factor_check(sol, m):
    """Derivative of the log curve factor of tau, checked both ways.

    Returns the defects of the finite difference against one 24th of the
    projective connection value and against the negative kernel residue;
    the two closed routes agree with each other as well.
    """
    kernel = _kernel(sol)
    pd = _periods(sol)
    fd = _central(pd, m, lambda moved, s: _dlog_tau_fd(
        pd, moved, kernel.char, m, s, theta_part=False))
    via_connection = kernel.projective_connection_at_branch_point(m) / 24.0
    via_residue = -bergmann_pair_residue(kernel, m)
    return float(abs(fd - via_connection)), float(abs(fd - via_residue))


def _periods(ctx):
    return ctx.periods if hasattr(ctx, "periods") else ctx


def _kernel(ctx):
    if isinstance(ctx, KernelContext):
        return ctx
    return ctx.kc

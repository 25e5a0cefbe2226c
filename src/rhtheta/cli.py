"""Command line frontend: JSON files in, JSON reports out.

Subcommands map one to one onto the library layers:

* ``periods``    period matrix and homology data of a curve
* ``theta-eval`` one theta value with gradient
* ``solve``      normalized solution: sampled matrices, monodromies, residues
* ``monodromy``  a single monodromy matrix with its quasi-permutation data
* ``tau``        closed-form tau value with branch bookkeeping
* ``verify``     residual report over a named suite of identity checks

Complex numbers are written as ``[re, im]`` pairs everywhere; sampled
solution grids can additionally be exported as CSV for plotting.  Reports
are rendered with sorted keys and sorted check rows, so a rerun with the
same inputs is byte identical.  The verification suite runs its checks
one after another in the calling thread, drawing its random points in a
fixed order from the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
# nothing here calls it; the benchmark tracer rebinds this name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from .errors import ConfigError, RHThetaError
from .hyperelliptic import (
    complex_to_lists,
    compute_periods,
    load_curve,
    pair_to_complex,
    period_data_to_dict,
)
from .isomonodromy import (
    b_derivative,
    b_derivative_sheet_sum,
    compatibility_check,
    differential_variation_check,
    f_factor_check,
    hamiltonians,
    rauch_check,
    schlesinger_residuals,
    sheet_sum_defect,
    tau_closed_form,
    tau_gradient_check,
    thomae_ratios,
    w1_sheet_sum,
)
from .kernels import KernelContext
from .rh_solver import RHSolution
from .theta import ThetaChar, theta_derivs

# Convention tags stamped into every report.  A tag changes whenever the
# corresponding layout changes incompatibly, so stored reports can be
# compared across versions without re-deriving what they meant.
CONVENTIONS = {
    "homology_basis": "sorted-cut-pairs/1",
    "odd_characteristic": "first-odd-nonsingular/1",
    "loop_layout": "gap-rotated-chord-arc/1",
    "abel_base": "circle-node-0/1",
}

SUITES = ("fay", "periods", "rauch", "schlesinger", "tau", "compat", "all")

# Default tolerance per check name; all overridable with verify's --tol.
TOLERANCES = {
    "b_symmetry": 1e-10,
    "b_imag_definite": 1e-12,
    "node_doubling": 1e-10,
    "fay_identity": 1e-8,
    "szego_bergmann": 1e-8,
    "rauch_fd": 1e-6,
    "rauch_sheet_sum": 1e-8,
    "differential_variation": 1e-6,
    "sheet_sum": 1e-12,
    "schlesinger_fd": 1e-4,
    "tau_gradient": 1e-4,
    "hamiltonian_match": 1e-6,
    "hamiltonian_sum": 1e-10,
    "thomae": 1e-10,
    "w1_sheet_sum": 1e-12,
    "compatibility": 1e-4,
    "f_factor": 1e-5,
}

PSI_COLUMNS = ("re_lambda", "im_lambda",
               "re_psi11", "im_psi11", "re_psi12", "im_psi12",
               "re_psi21", "im_psi21", "re_psi22", "im_psi22")


# -- input parsing ------------------------------------------------------------

def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _char_from_dict(data, genus=None):
    try:
        p = tuple(float(x) for x in data["p"])
        q = tuple(float(x) for x in data["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed characteristic data: {exc}") from exc
    if len(p) != len(q):
        raise ConfigError("characteristic halves p and q differ in length")
    if genus is not None and len(p) != genus:
        raise ConfigError(
            f"characteristic has genus {len(p)}, the curve has genus {genus}")
    return ThetaChar(p, q)


def _load_char(path, genus=None):
    return _char_from_dict(_read_json(path, "characteristic"), genus)


def _parse_lambda0(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--lambda0 expects RE,IM, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"--lambda0 expects RE,IM, got {text!r}") from exc


def _parse_tolerances(items):
    """TOLERANCES with verify's --tol NAME=VALUE overrides applied."""
    out = dict(TOLERANCES)
    for item in items or ():
        name, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        if name not in TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}; "
                              f"known: {', '.join(sorted(TOLERANCES))}")
        try:
            tol = float(value)
        except ValueError as exc:
            raise ConfigError(f"tolerance {name} is not a number: {value!r}") from exc
        if not tol > 0.0:
            raise ConfigError(f"tolerance {name} must be positive, got {tol}")
        out[name] = tol
    return out


# -- output -------------------------------------------------------------------

def _write_report(report, path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PSI_COLUMNS)
        writer.writerows(rows)


def _emit_error(exc):
    payload = {"error": {"code": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)


# -- commands -----------------------------------------------------------------

def cmd_periods(args):
    curve, _ = load_curve(args.curve)
    pd = compute_periods(curve)
    report = dict(period_data_to_dict(pd), conventions=CONVENTIONS)
    _write_report(report, args.output)
    return 0


def cmd_theta_eval(args):
    data = _read_json(args.input, "theta input")
    try:
        B = np.array([[pair_to_complex(e) for e in row] for row in data["B"]])
        z = np.array([pair_to_complex(e) for e in data["z"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed theta input: {exc}") from exc
    char = None
    if data.get("char") is not None:
        char = _char_from_dict(data["char"], genus=len(z))
    ev = theta_derivs(z, B, char, order=1)
    report = {
        "value": complex_to_lists(ev.value),
        "gradient": complex_to_lists(ev.grad),
        "lattice_radius": float(ev.radius),
    }
    _write_report(report, args.output)
    return 0


def _psi_samples(sol, nx=6, ny=6):
    """Solution matrix on a rectangular grid spanning the branch points.

    Grid nodes inside the guard distance of a branch point, or where the
    evaluation degenerates, are skipped; the node set is a deterministic
    function of the curve alone.  The grid is evaluated in one stacked
    call; when that raises, node by node, skipping exactly the nodes whose
    own evaluation raises.
    """
    pts = sol.curve.points
    xs = np.append(pts.real, sol.lambda0.real)
    ys = np.append(pts.imag, sol.lambda0.imag)
    pad = 0.45 * sol.curve.scale
    guard = 0.1 * sol.curve.scale
    nodes = []
    for x in np.linspace(xs.min() - pad, xs.max() + pad, nx):
        for y in np.linspace(ys.min() - pad, ys.max() + pad, ny):
            if min(abs(complex(x, y) - p) for p in pts) >= guard:
                nodes.append((float(x), float(y)))
    lams = np.array([complex(x, y) for x, y in nodes])
    try:
        mats = list(sol.psi(lams))
    except RHThetaError:
        mats = [_psi_or_none(sol, lam) for lam in lams]
    return [[x, y] + [float(part) for e in m.ravel()
                      for part in (e.real, e.imag)]
            for (x, y), m in zip(nodes, mats) if m is not None]


def _psi_or_none(sol, lam):
    try:
        return sol.psi(lam)
    except RHThetaError:
        return None


def cmd_solve(args):
    curve, lam0_file = load_curve(args.curve)
    lam0 = _parse_lambda0(args.lambda0) if args.lambda0 else lam0_file
    pd = compute_periods(curve)
    char = _load_char(args.char, pd.curve.genus)
    if lam0 is None:
        raise ConfigError("no normalization point: pass --lambda0 "
                          "or store a basepoint in the curve file")
    sol = RHSolution(pd, char, lam0)
    results = sol.monodromies()
    _, defect, order = sol.monodromy_product(results)
    res = sol.residues()
    samples = _psi_samples(sol)
    p, q = char.arrays()
    report = {
        "lambda0": complex_to_lists(lam0),
        "char": {"p": [float(v) for v in p], "q": [float(v) for v in q]},
        "monodromies": [
            {
                "index": r.index,
                "matrix": complex_to_lists(r.matrix),
                "permutation": [int(s) for s in r.permutation],
                "entries": complex_to_lists(r.entries),
            }
            for r in results
        ],
        "product_order": [int(k) for k in order],
        "product_defect": float(defect),
        "residues": {
            "matrices": complex_to_lists(res.matrices),
            "exponents": complex_to_lists(res.exponents),
            "sum_norm": float(res.sum_norm),
        },
        "psi_samples": {"columns": list(PSI_COLUMNS), "rows": samples},
        "conventions": CONVENTIONS,
    }
    if args.csv:
        _write_csv(samples, args.csv)
    _write_report(report, args.output)
    return 0


def cmd_monodromy(args):
    curve, lam0 = load_curve(args.curve)
    if lam0 is None:
        raise ConfigError("the curve file needs a basepoint to place "
                          "the monodromy loops")
    pd = compute_periods(curve)
    char = _load_char(args.char, pd.curve.genus)
    if not 0 <= args.n < len(pd.curve.points):
        raise ConfigError(f"--n must be in [0, {len(pd.curve.points) - 1}]")
    sol = RHSolution(pd, char, lam0)
    r = sol.monodromy(args.n)
    report = {
        "index": r.index,
        "matrix": complex_to_lists(r.matrix),
        "permutation": [int(s) for s in r.permutation],
        "entries": complex_to_lists(r.entries),
        "columns": [
            {
                "start_sheet": int(c.start_sheet),
                "end_sheet": int(c.end_sheet),
                "a_index": [int(v) for v in c.a_index],
                "b_index": [int(v) for v in c.b_index],
                "sigma": int(c.sigma),
                "lattice_residual": float(c.lattice_residual),
            }
            for c in r.columns
        ],
        "conventions": CONVENTIONS,
    }
    _write_report(report, args.output)
    return 0


def cmd_tau(args):
    curve, _ = load_curve(args.curve)
    pd = compute_periods(curve)
    char = _load_char(args.char, pd.curve.genus)
    # the phase records how far the continued fractional powers have
    # drifted from their principal values at the input configuration
    if args.reference:
        ref_curve, _ = load_curve(args.reference)
        if len(ref_curve.points) != len(curve.points):
            raise ConfigError("reference configuration has a different "
                              "number of branch points")
        ref = tau_closed_form(compute_periods(ref_curve), char)
        ev = tau_closed_form(pd, char, reference=ref)
        phase = ev.factor / tau_closed_form(pd, char).factor
    else:
        ev = tau_closed_form(pd, char)
        phase = 1.0 + 0.0j
    report = {
        "tau": complex_to_lists(ev.value),
        "curve_factor": complex_to_lists(ev.factor),
        "theta_factor": complex_to_lists(ev.theta_factor),
        "det_a": complex_to_lists(ev.det_a),
        "branch_reference": {
            "path": args.reference,
            "phase": complex_to_lists(phase),
        },
        "conventions": CONVENTIONS,
    }
    _write_report(report, args.output)
    return 0


# -- verification suite -------------------------------------------------------

def _random_surface_point(rng, pts, scale):
    center = complex(np.mean(pts))
    while True:
        z = center + scale * complex(rng.uniform(-1.2, 1.2),
                                     rng.uniform(-1.2, 1.2))
        if min(abs(z - p) for p in pts) > 0.12 * scale:
            return (z, int(rng.integers(1, 3)))


def _fay_points(rng, pts, scale, n):
    # the identity degenerates when arguments collide, so keep the whole
    # draw separated rather than filtering afterwards
    while True:
        xs = [_random_surface_point(rng, pts, scale) for _ in range(n)]
        ys = [_random_surface_point(rng, pts, scale) for _ in range(n)]
        lams = [p[0] for p in xs + ys]
        sep = min(abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1:])
        if sep > 0.08 * scale:
            return xs, ys


def _suite_rows(suite, pd, char, lam0, tols, seed):
    """Evaluate the checks of one suite into report rows, sorted by check
    name and parameters.

    The checks run in the order they are added and the random draws come
    in a fixed order, so the report depends only on the inputs.
    """
    want = set(SUITES[:-1]) if suite == "all" else {suite}
    rng = np.random.default_rng(seed)
    pts = pd.curve.points
    scale = pd.curve.scale
    M = len(pts)
    probe = complex(pts[0] + 1.37j * scale)
    rows = []

    def add(name, params, residual):
        residual, tol = float(residual), tols[name]
        rows.append({"check": name, "params": params, "residual": residual,
                     "tolerance": float(tol), "pass": bool(residual < tol)})

    kc = None
    if want & {"fay", "rauch", "schlesinger", "tau", "compat"}:
        kc = KernelContext(pd, char)
    sol = None
    if want & {"schlesinger", "tau"}:
        if lam0 is None:
            raise ConfigError("this suite builds a solution and needs a "
                              "basepoint in the curve file")
        sol = RHSolution(pd, char, lam0, kernel=kc)

    if "periods" in want:
        add("b_symmetry", {}, np.max(np.abs(pd.B - pd.B.T)))
        add("b_imag_definite", {},
            max(0.0, -float(np.linalg.eigvalsh(pd.B.imag).min())))
        # a looser quadrature target stops one doubling earlier, so the
        # difference is what the final node doublings still moved B by
        add("node_doubling", {},
            np.max(np.abs(compute_periods(pd.curve, tol=1e-11).B - pd.B)))

    if "fay" in want:
        for n in (2, 3):
            for draw in range(2):
                xs, ys = _fay_points(rng, pts, scale, n)
                add("fay_identity", {"n": n, "draw": draw},
                    kc.fay_residual(xs, ys))
        dd = kc.log_hess_char_at_zero()
        for draw in range(2):
            P = _random_surface_point(rng, pts, scale)
            Q = _random_surface_point(rng, pts, scale)
            while abs(P[0] - Q[0]) < 0.1 * scale:
                Q = _random_surface_point(rng, pts, scale)
            lhs = kc.szego(P, Q) * kc.szego(Q, P)
            vP = pd.differentials(P[0], 1.0 if P[1] == 1 else -1.0)[:, 0]
            vQ = pd.differentials(Q[0], 1.0 if Q[1] == 1 else -1.0)[:, 0]
            rhs = -kc.bergmann(P, Q) - vP @ dd @ vQ
            add("szego_bergmann", {"draw": draw},
                abs(lhs - rhs) / max(1.0, abs(lhs)))

    if "rauch" in want:
        for m in range(M):
            add("rauch_fd", {"m": m}, rauch_check(pd, m))
            add("rauch_sheet_sum", {"m": m}, np.max(np.abs(
                b_derivative(pd, m) - b_derivative_sheet_sum(pd, m))))
        add("differential_variation",
            {"m": 0, "at": complex_to_lists(probe)},
            differential_variation_check(kc, 0, probe))
        add("sheet_sum", {"at": complex_to_lists(probe)},
            sheet_sum_defect(pd, probe))

    if "schlesinger" in want:
        for m in (0, M - 1):
            add("schlesinger_fd", {"moving": m},
                np.max(schlesinger_residuals(sol, m)))

    if "tau" in want:
        for m in range(M):
            add("tau_gradient", {"m": m}, tau_gradient_check(sol, m))
        hs = hamiltonians(sol)
        add("hamiltonian_match", {}, hs.discrepancy)
        add("hamiltonian_sum", {}, abs(sum(hs.values)))
        add("thomae", {}, np.max(np.abs(np.abs(thomae_ratios(pd)) - 1.0)))
        add("w1_sheet_sum", {"at": complex_to_lists(probe)},
            abs(w1_sheet_sum(kc, probe)))

    if "compat" in want:
        add("compatibility", {"m": 0, "n": M - 1},
            compatibility_check(kc, 0, M - 1))
        add("f_factor", {"m": 0}, max(f_factor_check(kc, 0)))

    rows.sort(key=lambda r: (r["check"], json.dumps(r["params"],
                                                    sort_keys=True)))
    return rows


def cmd_verify(args):
    tols = _parse_tolerances(args.tol)
    curve, lam0 = load_curve(args.curve)
    pd = compute_periods(curve)
    char = _load_char(args.char, pd.curve.genus)
    rows = _suite_rows(args.suite, pd, char, lam0, tols, args.seed)
    passed = all(r["pass"] for r in rows)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "checks": rows,
        "conventions": CONVENTIONS,
    }
    _write_report(report, args.output)
    return 0 if passed else 1


COMMANDS = {
    "periods": cmd_periods,
    "theta-eval": cmd_theta_eval,
    "solve": cmd_solve,
    "monodromy": cmd_monodromy,
    "tau": cmd_tau,
    "verify": cmd_verify,
}


# -- argument plumbing --------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rhtheta",
        description="Matrix Riemann-Hilbert solutions and their "
                    "deformation identities on hyperelliptic coverings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON report here "
                       "instead of stdout")

    p = sub.add_parser("periods", help="period matrix of a curve")
    p.add_argument("--curve", required=True, help="curve JSON file")
    common(p)

    p = sub.add_parser("theta-eval", help="theta value and gradient")
    p.add_argument("--input", required=True,
                   help="JSON file with z, B and an optional char block")
    common(p)

    p = sub.add_parser("solve", help="normalized solution on a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--char", required=True,
                   help="characteristic JSON file with p and q lists")
    p.add_argument("--lambda0", metavar="RE,IM",
                   help="normalization point (default: curve basepoint)")
    p.add_argument("--csv", help="also export the sampled grid as CSV")
    common(p)

    p = sub.add_parser("monodromy", help="one monodromy matrix")
    p.add_argument("--curve", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--n", required=True, type=int,
                   help="branch point index, 0-based in sorted order")
    common(p)

    p = sub.add_parser("tau", help="closed-form tau value")
    p.add_argument("--curve", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--reference",
                   help="curve JSON fixing the branch of the fractional "
                        "powers (default: the input configuration itself)")
    common(p)

    p = sub.add_parser("verify", help="run a residual check suite")
    p.add_argument("--curve", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random draws (default 0)")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named tolerance (repeatable)")
    common(p)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except RHThetaError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

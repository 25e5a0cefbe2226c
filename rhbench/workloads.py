"""Seeded inputs and the operations of the rhtheta benchmark workloads.

Every input comes from a ``numpy.random.Generator`` seeded by the run seed,
so a seed fixes the whole schedule.  Solve and verify write their inputs
during set-up; genus draws the inputs of op ``i`` from ``(seed, 0, i)`` just
before the op runs, outside its timing, so set-up costs the same for
every seed.  Inputs are plain data (branch points,
characteristics, points, JSON files); the program under test only ever
sees them through its public entry points.

Each operation returns an ``Outcome``: whether it failed and why, how many
Python warnings it emitted, and the worst ``residual / gate`` over its
validated outputs.  The gates are the ones the repository's own tests use.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

# gates, each as used by the repository tests
DET_GATE = 1e-8          # |det Psi - 1|       (test_acceptance, test_cli)
DEFECT_GATE = 1e-6       # monodromy product   (test_acceptance, test_cli)
EXPONENT_GATE = 1e-10    # exponents vs +-1/4  (test_rh_solver.test_residues)
SUM_NORM_GATE = 1e-10    # sum of residues     (test_rh_solver.test_residues)

BOX = 2.0                # branch points are drawn in [-BOX, BOX]^2
# timed curves keep every branch point this far from the cuts it does not
# bound; cuts 0.034 apart made homology construction fail on a g3 curve
# (NOTES.md, finding e), and the "tight_cuts" probes go below 0.05
CUT_GAP = 0.25
# Psi scales like 1 / theta[p,q](0), so near the theta divisor rounding
# alone breaks the absolute det gate (NOTES.md, finding d); timed ops keep
# the characteristic near zero, the "wide_char" probes reach to +-1/2
CHAR_REACH = 0.25
WIDE_CHAR_REACH = 0.5
GENUS_POINTS = 4         # fresh psi_pair points per genus op
# genus pattern of the genus workload, one block; the shares put the
# median inside the g3 ops and the tail (the 11th slowest op of about 250)
# inside the g4 ops, so neither sits on the boundary between two genera
GENUS_BLOCK = (3, 1, 2, 3, 4, 3, 2, 3)
# timed genus curves are not translated: translations by 1 to 4 failed 2
# of about 450 ops and those by 100 or more all fail (NOTES.md, defect b),
# so both run as probes
GENUS_PROBES_PER_KIND = 4
PROBE_KINDS = ("near_offset", "far_offset", "close_pair", "wide_char",
               "tight_cuts")
# solve pattern: sample pairs and random curves.  A run holds about 18
# ops, so the tail is the 8th fastest; with one op in six on g1, both the
# median and the tail sit inside the g2 ops down to 14 ops per run
SOLVE_BLOCK = ("sample_g2", 2, "sample_g1", 2, "sample_g2", 2,
               "sample_g2", 2, 1, 2, "sample_g2", 2)
# verify: random g1 curves move each branch point and the basepoint of the
# g1 sample by up to this much; general g1 layouts spread verify's cost
# by a quarter between curves, more than a run of five ops averages out
VERIFY_JITTER = 0.3
# scheduled ops per workload; a run that gets through them starts over
SCHEDULE_LENGTH = {"solve": 60, "verify": 16, "genus": 512}


@dataclass
class Outcome:
    seconds: float
    failure: str = ""        # "", "typed", "untyped", "exit", "gate"
    detail: str = ""
    warned: int = 0
    margin: float = 0.0      # worst residual / gate over validated outputs
    peak_rss_mb: float = 0.0  # process peak after the op


@dataclass
class Workload:
    name: str
    ops: Sequence            # ops[i] is the zero-argument call of op i
    labels: list             # category of each scheduled op
    # builds the hard-input probes as (label, call) pairs; run after the
    # timed window
    probes: Callable[[], list] | None = None


# -- input geometry ------------------------------------------------------------

def draw_points(rng, count, minsep, gap=(CUT_GAP, np.inf)):
    """``count`` points in the box, pairwise at least ``minsep`` apart, with
    the smallest distance from a branch point to a cut it does not bound
    in ``[gap[0], gap[1])``."""
    while True:
        pts = rng.uniform(-BOX, BOX, count) + 1j * rng.uniform(-BOX, BOX, count)
        dist = np.abs(pts[:, None] - pts[None, :]) + 10 * BOX * np.eye(count)
        if dist.min() > minsep and gap[0] <= cut_gap(pts) < gap[1]:
            return pts


def _cuts(pts):
    """Cut segments of the documented layout: sorted by (Re, Im), paired
    2k with 2k+1."""
    s = sorted(pts, key=lambda z: (z.real, z.imag))
    return [(s[2 * k], s[2 * k + 1]) for k in range(len(s) // 2)]


def cut_gap(pts):
    """Smallest distance from a branch point to a cut it does not bound."""
    cuts = _cuts(pts)
    return min(_segment_distance(p, a, b)
               for i, (a, b) in enumerate(cuts)
               for j, cut in enumerate(cuts) if j != i for p in cut)


def _segment_distance(p, a, b):
    d = b - a
    t = min(1.0, max(0.0, ((p - a) * np.conj(d)).real / abs(d) ** 2))
    return abs(p - a - t * d)


def clear_point(rng, pts, clearance):
    """Point near the curve, ``clearance`` (share of the curve size) away
    from every branch point and every cut."""
    scale = float(np.max(np.abs(pts[:, None] - pts[None, :])))
    center = complex(np.mean(pts))
    cuts = _cuts(pts)
    while True:
        z = center + scale * complex(rng.uniform(-0.75, 0.75),
                                     rng.uniform(-0.75, 0.75))
        if (min(abs(z - p) for p in pts) > clearance * scale
                and min(_segment_distance(z, a, b) for a, b in cuts)
                > 0.5 * clearance * scale):
            return z


def random_char(rng, g, reach=CHAR_REACH):
    """Twist characteristic (p, q) drawn from [-reach, reach]^2g."""
    return (tuple(float(x) for x in rng.uniform(-reach, reach, g)),
            tuple(float(x) for x in rng.uniform(-reach, reach, g)))


def offset(rng, low, high):
    """Translation of modulus in [low, high] in a random direction."""
    return complex(rng.uniform(low, high) * np.exp(2j * np.pi * rng.uniform()))


def close_pair(rng, pts, low, high):
    """Move one branch point to within [low, high] of the curve size of
    another one."""
    pts = pts.copy()
    scale = float(np.max(np.abs(pts[:, None] - pts[None, :])))
    pts[1] = pts[0] + rng.uniform(low, high) * scale * np.exp(
        2j * np.pi * rng.uniform())
    return pts


def _pairs(zs):
    return [[float(z.real), float(z.imag)] for z in zs]


def write_inputs(directory, stem, pts, lam0, char):
    curve = os.path.join(directory, f"{stem}_curve.json")
    chars = os.path.join(directory, f"{stem}_char.json")
    with open(curve, "w") as fh:
        json.dump({"branch_points": _pairs(pts),
                   "basepoint": {"lambda": _pairs([lam0])[0], "sheet": 1}}, fh)
    with open(chars, "w") as fh:
        json.dump({"p": list(char[0]), "q": list(char[1])}, fh)
    return curve, chars


# -- running one op ------------------------------------------------------------

def run_op(call, validate, rhtheta_error):
    """Time ``call`` and validate its result.

    Warnings from every thread of the op are recorded; the op fails on a
    typed library error, any other exception, a nonzero exit code or a
    gate miss.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = call()
            error = None
        except rhtheta_error as exc:
            error = ("typed", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # counted as a failed op, never hidden
            error = ("untyped", f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    out = Outcome(seconds=seconds, warned=len(caught))
    if error is not None:
        out.failure, out.detail = error
        return out
    failure, detail, margin = validate(result)
    out.failure, out.detail, out.margin = failure, detail, margin
    return out


def _worst(margins):
    """Name and value of the largest residual/gate ratio.  A non-finite
    ratio (a NaN or infinite residual) counts as infinitely over its gate,
    as it fails the tests' ``residual < gate``."""
    clean = {k: float(v) if np.isfinite(v) else np.inf
             for k, v in margins.items()}
    name = max(clean, key=clean.get)
    return name, clean[name]


def _gate(margins):
    """(failure, detail, worst margin) from named residual/gate ratios."""
    name, worst = _worst(margins)
    if not worst < 1.0:
        return "gate", f"{name} at {margins[name]:.3g} of its gate", worst
    return "", "", worst


def _as_complex(pair):
    return complex(pair[0], pair[1])


# -- solve ---------------------------------------------------------------------

def _validate_solve(result):
    code, path = result
    if code != 0:
        return "exit", f"exit code {code}", 0.0
    with open(path) as fh:
        report = json.load(fh)
    exps = np.array([[_as_complex(e) for e in pair]
                     for pair in report["residues"]["exponents"]])
    # np.max, unlike max(), keeps a NaN, so _gate sees it
    exp_err = np.max([np.max(np.abs(np.sort(exps.real, axis=1)
                                    - np.array([-0.25, 0.25]))),
                      np.max(np.abs(exps.imag))])
    rows = report["psi_samples"]["rows"]
    if not rows:
        return "gate", "no psi samples", 0.0
    det_err = np.max([abs(np.linalg.det(np.array(
        [[r[2] + 1j * r[3], r[4] + 1j * r[5]],
         [r[6] + 1j * r[7], r[8] + 1j * r[9]]])) - 1.0) for r in rows])
    return _gate({
        "det_psi": det_err / DET_GATE,
        "product_defect": report["product_defect"] / DEFECT_GATE,
        "exponents": exp_err / EXPONENT_GATE,
        "sum_norm": report["residues"]["sum_norm"] / SUM_NORM_GATE,
    })


def solve_workload(rng, root, tmp, cli_main):
    samples = os.path.join(root, "samples")
    ops, labels = [], []
    for i in range(SCHEDULE_LENGTH["solve"]):
        kind = SOLVE_BLOCK[i % len(SOLVE_BLOCK)]
        if isinstance(kind, str):
            g = kind[-2:]
            curve = os.path.join(samples, f"curve_{g}.json")
            char = os.path.join(samples, f"char_{g}.json")
            labels.append(kind)
        else:
            pts = draw_points(rng, 2 * kind + 2, 0.8)
            curve, char = write_inputs(tmp, f"solve{i}", pts,
                                       clear_point(rng, pts, 0.15),
                                       random_char(rng, kind))
            labels.append(f"random_g{kind}")
        out = os.path.join(tmp, f"solve{i}_report.json")
        argv = ["solve", "--curve", curve, "--char", char, "--output", out]
        ops.append(lambda argv=argv, out=out:
                   (_quiet(cli_main, argv), out))
    return Workload("solve", ops, labels)


def _quiet(cli_main, argv):
    """cli.main with its error payloads kept off the benchmark's output."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


# -- verify --------------------------------------------------------------------

VERIFY_ROWS_G1 = 31


def _validate_verify(result):
    code, path = result
    if code != 0:
        return "exit", f"exit code {code}", 0.0
    with open(path) as fh:
        report = json.load(fh)
    rows = report["checks"]
    if len(rows) != VERIFY_ROWS_G1:
        return "gate", f"{len(rows)} rows instead of {VERIFY_ROWS_G1}", 0.0
    margins, failing = {}, []
    for r in rows:
        key = f"{r['check']}{json.dumps(r['params'], sort_keys=True)}"
        margins[key] = r["residual"] / r["tolerance"]
        if not r["pass"]:
            failing.append(key)
    if failing:
        return "gate", f"{failing[0]} did not pass", _worst(margins)[1]
    return _gate(margins)


def jitter(rng, zs, radius):
    """Each point moved uniformly within a disk of the given radius."""
    zs = np.asarray(zs, dtype=complex)
    r = radius * np.sqrt(rng.uniform(size=zs.shape))
    return zs + r * np.exp(2j * np.pi * rng.uniform(size=zs.shape))


def verify_workload(rng, root, tmp, cli_main):
    samples = os.path.join(root, "samples")
    with open(os.path.join(samples, "curve_g1.json")) as fh:
        sample = json.load(fh)
    sample_pts = [_as_complex(p) for p in sample["branch_points"]]
    sample_lam0 = _as_complex(sample["basepoint"]["lambda"])
    ops, labels = [], []
    for i in range(SCHEDULE_LENGTH["verify"]):
        if i % 2 == 0:
            curve = os.path.join(samples, "curve_g1.json")
            char = os.path.join(samples, "char_g1.json")
            labels.append("sample_g1")
        else:
            pts = jitter(rng, sample_pts, VERIFY_JITTER)
            lam0 = jitter(rng, [sample_lam0], VERIFY_JITTER)[0]
            curve, char = write_inputs(tmp, f"verify{i}", pts, lam0,
                                       random_char(rng, 1))
            labels.append("random_g1")
        out = os.path.join(tmp, f"verify{i}_report.json")
        argv = ["verify", "--curve", curve, "--char", char, "--suite", "all",
                "--seed", str(int(rng.integers(0, 2 ** 31))), "--output", out]
        ops.append(lambda argv=argv, out=out:
                   (_quiet(cli_main, argv), out))
    return Workload("verify", ops, labels)


# -- genus ---------------------------------------------------------------------

def _validate_genus(result):
    defect, dets, tau = result
    if not np.isfinite(tau):
        return "gate", "tau is not finite", 0.0
    return _gate({"det_psi": np.max(dets) / DET_GATE,
                  "product_defect": defect / DEFECT_GATE})


def genus_op(lib, pts, char, lam0, zs):
    """One cold pass over a curve: periods, solution, all monodromies with
    the product defect, psi_pair at fresh points, and tau."""
    curve = lib.hyperelliptic.HyperellipticCurve(pts)
    pd = lib.hyperelliptic.compute_periods(curve)
    sol = lib.rh_solver.RHSolution(pd, lib.theta.ThetaChar(*char), lam0)
    _, defect, _ = sol.monodromy_product(sol.monodromies())
    dets = [abs(np.linalg.det(sol.psi_pair(z)[0]) - 1.0) for z in zs]
    tau = lib.isomonodromy.tau_closed_form(sol)
    return defect, dets, complex(tau.value)


def _genus_case(rng, lib, g, pts, reach=CHAR_REACH):
    lam0 = clear_point(rng, pts, 0.15)
    zs = [clear_point(rng, pts, 0.1) for _ in range(GENUS_POINTS)]
    char = random_char(rng, g, reach)
    return lambda: genus_op(lib, pts, char, lam0, zs)


class _GenusSchedule(Sequence):
    """Timed genus ops; op ``i`` draws its inputs from ``(seed, 0, i)``
    when it is fetched."""

    def __init__(self, seed, lib):
        self.seed, self.lib = seed, lib

    def __len__(self):
        return SCHEDULE_LENGTH["genus"]

    def __getitem__(self, i):
        rng = np.random.default_rng([self.seed, 0, i])
        g = GENUS_BLOCK[i % len(GENUS_BLOCK)]
        return _genus_case(rng, self.lib, g, draw_points(rng, 2 * g + 2, 0.5))


def genus_probes(seed, lib):
    """Hard inputs, measured for their failures and warnings outside the
    timed ops (see NOTES.md, defects b, d and e): one probe of each kind
    per genus 1..4, as (label, call) pairs."""
    rng = np.random.default_rng([seed, 1])
    probes = []
    for i in range(GENUS_PROBES_PER_KIND):
        for kind in PROBE_KINDS:
            g = 1 + i % 4
            reach = CHAR_REACH
            if kind == "tight_cuts":
                pts = draw_points(rng, 2 * g + 2, 0.5, gap=(0.0, 0.05))
            else:
                pts = draw_points(rng, 2 * g + 2, 0.5)
            if kind == "near_offset":
                pts = pts + offset(rng, 1.0, 4.0)
            elif kind == "far_offset":
                pts = pts + offset(rng, 100.0, 1000.0)
            elif kind == "close_pair":
                pts = close_pair(rng, pts, 0.01, 0.05)
            elif kind == "wide_char":
                reach = WIDE_CHAR_REACH
            probes.append((f"g{g}_{kind}", _genus_case(rng, lib, g, pts, reach)))
    return probes


def genus_workload(seed, lib):
    labels = [f"g{GENUS_BLOCK[i % len(GENUS_BLOCK)]}"
              for i in range(SCHEDULE_LENGTH["genus"])]
    return Workload("genus", _GenusSchedule(seed, lib), labels,
                    lambda: genus_probes(seed, lib))


VALIDATORS = {"solve": _validate_solve, "verify": _validate_verify,
              "genus": _validate_genus}

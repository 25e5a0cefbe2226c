"""Layer timings of routes, the solve grid, the monodromies and residues.

Usage, from the root of any checkout (the one measured is named by --src):

    python3 tools/bench_grid.py --src path/to/checkout/src [--reps 5] \
        [--layer monodromies_ms ...]

Prints one JSON object.  Each layer is timed in a fresh Python process of
its own, so its numbers do not depend on what the other layers ran
before it (caches, allocator state, warm quadrature rules); --layer picks
layers, all by default.  Curves are the benchmark's seeded recipe,
``draw_points(default_rng([s, 0, g]), 2g+2, 0.5)`` with basepoint
``clear_point(rng, pts, 0.15)`` and characteristic ``random_char(rng, g)``
from ``rhbench/workloads.py`` of this checkout, plus the two samples.

* ``route_ms``: per target, a one-target ``geometry.route`` (a fresh
  search per target) against a replay of one ``RouteTree`` built from the
  same source (its build included, spread over the targets), at the first
  clearance rung, 30 targets per curve, s = 0..2, best of --reps; the tree
  is null where the checkout has none.
* ``periods_ms``: ``compute_periods`` on the same curves, median over
  s = 0..2 of the best of --reps.
* ``residues_ms``: a fresh ``RHSolution`` plus ``residues()`` over fresh
  period data (built outside the timer), best of --reps; on the same
  curves the median over s = 0..2, on the samples the one value.
* ``monodromies_ms``: ``RHSolution.monodromies()`` on a fresh solution
  over fresh period data (built outside the timer), best of --reps; on the
  same curves and g5 the median over s = 0..2, on the samples the one
  value.
* ``searches_per_solve``: shortest-path searches in one in-process
  ``solve`` on each case (the samples and seeded g3, g4 s = 0):
  ``RouteTree`` builds where the checkout has them, ``route`` calls
  otherwise.
* ``grid_ms``: ``cli._psi_samples`` on a fresh solution over fresh period
  data, best of --reps, on the same cases.
* ``solve_s`` and ``verify_s``: in-process ``solve`` and ``verify --suite
  all --seed 0`` on the same cases, best of --reps (verify: the samples
  only).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def best_ms(fn, reps):
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return 1e3 * min(out)


class Checkout:
    """The measured checkout's modules, the seeded curves and the cases."""

    def __init__(self, src, reps):
        sys.path[:0] = [src, str(ROOT / "rhbench")]
        self.reps = reps
        self.wl = importlib.import_module("workloads")
        self.geo = importlib.import_module("rhtheta.geometry")
        self.hyp = importlib.import_module("rhtheta.hyperelliptic")
        self.cli = importlib.import_module("rhtheta.cli")
        self.rh = importlib.import_module("rhtheta.rh_solver")
        self.theta = importlib.import_module("rhtheta.theta")

    def seeded(self, g, s):
        """Curve, basepoint, characteristic and the rng after drawing them."""
        rng = np.random.default_rng([s, 0, g])
        pts = self.wl.draw_points(rng, 2 * g + 2, 0.5)
        lam0 = self.wl.clear_point(rng, pts, 0.15)
        char = self.theta.ThetaChar(*self.wl.random_char(rng, g))
        return self.hyp.HyperellipticCurve(pts), lam0, char, rng

    def cases(self, tmp):
        """name -> (curve path, char path): the samples, seeded g3, g4 s0."""
        out = {f"sample_g{g}": (ROOT / "samples" / f"curve_g{g}.json",
                                ROOT / "samples" / f"char_g{g}.json")
               for g in (1, 2)}
        for g in (3, 4):
            rng = np.random.default_rng([0, 0, g])
            pts = self.wl.draw_points(rng, 2 * g + 2, 0.5)
            lam0 = self.wl.clear_point(rng, pts, 0.15)
            char = self.wl.random_char(rng, g)
            out[f"g{g}_s0"] = self.wl.write_inputs(tmp, f"g{g}", pts, lam0,
                                                   char)
        return out

    def load(self, curve_path, char_path):
        curve, lam0 = self.hyp.load_curve(str(curve_path))
        with open(char_path) as fh:
            c = json.load(fh)
        return curve, lam0, self.theta.ThetaChar(tuple(c["p"]),
                                                 tuple(c["q"]))

    def fresh_ms(self, curve, lam0, char, op):
        """Best of reps of op(solution), each on a fresh solution over
        fresh period data built outside the timer."""
        times = []
        for _ in range(self.reps):
            sol = self.rh.RHSolution(self.hyp.compute_periods(curve), char,
                                     lam0)
            t = time.perf_counter()
            op(sol)
            times.append(time.perf_counter() - t)
        return 1e3 * min(times)

    def seeded_medians(self, genera, op):
        """g -> median over s = 0..2 of op(curve, lam0, char, rng)."""
        return {f"g{g}": float(np.median([op(*self.seeded(g, s))
                                          for s in range(3)]))
                for g in genera}

    def sample_values(self, op):
        """sample name -> op(curve, lam0, char) on the two samples."""
        with tempfile.TemporaryDirectory() as tmp:
            return {name: op(*self.load(*paths))
                    for name, paths in self.cases(tmp).items()
                    if name.startswith("sample")}


def route_ms(ck):
    out = {}
    tree_cls = getattr(ck.geo, "RouteTree", None)
    for g in (1, 2, 3, 4):
        one, tree = [], []
        for s in range(3):
            curve, lam0, _, rng = ck.seeded(g, s)
            margin = 0.2 * curve.min_separation
            targets = [ck.wl.clear_point(rng, curve.points, 0.1)
                       for _ in range(30)]

            def one_target():
                for z in targets:
                    try:
                        ck.geo.route(lam0, z, curve.cuts, margin,
                                     curve.points)
                    except ck.hyp.RoutingFailure:
                        pass

            def replay():
                t = tree_cls(lam0, curve.cuts, margin, curve.points)
                for z in targets:
                    try:
                        t.path(z)
                    except ck.hyp.RoutingFailure:
                        pass

            one.append(best_ms(one_target, ck.reps) / len(targets))
            if tree_cls is not None:
                tree.append(best_ms(replay, ck.reps) / len(targets))
        out[f"g{g}"] = {"route": float(np.median(one)),
                        "tree": float(np.median(tree)) if tree else None}
    return out


def periods_ms(ck):
    return ck.seeded_medians((1, 2, 3, 4), lambda curve, *_: best_ms(
        lambda: ck.hyp.compute_periods(curve), ck.reps))


def residues_ms(ck):
    def op(curve, lam0, char, *_):
        return ck.fresh_ms(curve, lam0, char, lambda sol: sol.residues())
    return {**ck.seeded_medians((1, 2, 3, 4), op), **ck.sample_values(op)}


def monodromies_ms(ck):
    def op(curve, lam0, char, *_):
        return ck.fresh_ms(curve, lam0, char, lambda sol: sol.monodromies())
    return {**ck.seeded_medians((1, 2, 3, 4, 5), op), **ck.sample_values(op)}


def searches_per_solve(ck):
    searches = []
    tree_cls = getattr(ck.geo, "RouteTree", None)
    if tree_cls is not None:
        init = tree_cls.__init__

        def counted(self, *a, **k):
            searches.append(1)
            init(self, *a, **k)
        tree_cls.__init__ = counted
    else:
        route = ck.hyp.route

        def counted(*a, **k):
            searches.append(1)
            return route(*a, **k)
        ck.hyp.route = counted
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (curve_path, char_path) in ck.cases(tmp).items():
            searches.clear()
            ck.cli.main(["solve", "--curve", str(curve_path), "--char",
                         str(char_path), "--output", os.devnull])
            out[name] = len(searches)
    return out


def grid_ms(ck):
    with tempfile.TemporaryDirectory() as tmp:
        return {name: ck.fresh_ms(*ck.load(*paths), ck.cli._psi_samples)
                for name, paths in ck.cases(tmp).items()}


def _command_s(ck, command, samples_only, *extra):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (curve_path, char_path) in ck.cases(tmp).items():
            if samples_only and not name.startswith("sample"):
                continue
            argv = [command, "--curve", str(curve_path), "--char",
                    str(char_path), *extra, "--output", os.devnull]
            out[name] = best_ms(lambda: ck.cli.main(argv), ck.reps) / 1e3
    return out


def solve_s(ck):
    return _command_s(ck, "solve", False)


def verify_s(ck):
    return _command_s(ck, "verify", True, "--suite", "all", "--seed", "0")


LAYERS = {f.__name__: f for f in (route_ms, periods_ms, residues_ms,
                                  monodromies_ms, searches_per_solve,
                                  grid_ms, solve_s, verify_s)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--layer", action="append", choices=LAYERS,
                    help="layer to time, repeatable; all by default")
    # set on the child process that times one layer
    ap.add_argument("--in-process", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    layers = args.layer or list(LAYERS)
    if args.in_process:
        ck = Checkout(args.src, args.reps)
        print(json.dumps({name: LAYERS[name](ck) for name in layers}))
        return
    out = {"src": args.src, "reps": args.reps}
    for name in layers:
        child = subprocess.run(
            [sys.executable, __file__, "--src", args.src, "--reps",
             str(args.reps), "--layer", name, "--in-process"],
            capture_output=True, text=True, check=True)
        out.update(json.loads(child.stdout))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()

"""Layer timings of routes, the solve grid, the monodromies and residues.

Usage, from the root of any checkout (the one measured is named by --src):

    python3 tools/bench_grid.py --src path/to/checkout/src [--reps 5]

Prints one JSON object.  Curves are the benchmark's seeded recipe,
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
* ``searches_per_solve``: shortest-path searches in one in-process
  ``solve`` on each curve: ``RouteTree`` builds where the checkout has
  them, ``route`` calls otherwise.
* ``grid_ms`` and ``monodromies_ms``: ``cli._psi_samples`` and
  ``RHSolution.monodromies()`` on a fresh solution over fresh period data,
  best of --reps.
* ``solve_s`` and ``verify_s``: in-process ``solve`` and ``verify --suite
  all --seed 0``, best of --reps (verify: g1 and g2 only).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
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


def seeded(wl, g, s):
    rng = np.random.default_rng([s, 0, g])
    pts = wl.draw_points(rng, 2 * g + 2, 0.5)
    return pts, wl.clear_point(rng, pts, 0.15), wl.random_char(rng, g), rng


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "rhbench")]
    wl = importlib.import_module("workloads")
    geo = importlib.import_module("rhtheta.geometry")
    hyp = importlib.import_module("rhtheta.hyperelliptic")
    cli = importlib.import_module("rhtheta.cli")
    rh = importlib.import_module("rhtheta.rh_solver")
    theta = importlib.import_module("rhtheta.theta")
    tree_cls = getattr(geo, "RouteTree", None)
    out = {"src": args.src, "reps": args.reps, "route_ms": {},
           "periods_ms": {}, "residues_ms": {}, "searches_per_solve": {},
           "grid_ms": {}, "monodromies_ms": {}, "solve_s": {},
           "verify_s": {}}

    def residues_ms(curve, char, lam0):
        times = []
        for _ in range(args.reps):
            pd = hyp.compute_periods(curve)
            t = time.perf_counter()
            rh.RHSolution(pd, char, lam0).residues()
            times.append(time.perf_counter() - t)
        return 1e3 * min(times)

    for g in (1, 2, 3, 4):
        one, tree, periods, residues = [], [], [], []
        for s in range(3):
            pts, lam0, char, rng = seeded(wl, g, s)
            curve = hyp.HyperellipticCurve(pts)
            margin = 0.2 * curve.min_separation
            targets = [wl.clear_point(rng, pts, 0.1) for _ in range(30)]

            def one_target():
                for z in targets:
                    try:
                        geo.route(lam0, z, curve.cuts, margin, curve.points)
                    except hyp.RoutingFailure:
                        pass

            def replay():
                t = tree_cls(lam0, curve.cuts, margin, curve.points)
                for z in targets:
                    try:
                        t.path(z)
                    except hyp.RoutingFailure:
                        pass

            periods.append(best_ms(lambda: hyp.compute_periods(curve),
                                   args.reps))
            residues.append(residues_ms(curve, theta.ThetaChar(*char), lam0))
            one.append(best_ms(one_target, args.reps) / len(targets))
            if tree_cls is not None:
                tree.append(best_ms(replay, args.reps) / len(targets))
        out["route_ms"][f"g{g}"] = {
            "route": float(np.median(one)),
            "tree": float(np.median(tree)) if tree else None}
        out["periods_ms"][f"g{g}"] = float(np.median(periods))
        out["residues_ms"][f"g{g}"] = float(np.median(residues))

    cases = {f"sample_g{g}": (ROOT / "samples" / f"curve_g{g}.json",
                              ROOT / "samples" / f"char_g{g}.json")
             for g in (1, 2)}
    tmp = tempfile.TemporaryDirectory()
    for g in (3, 4):
        pts, lam0, char, _ = seeded(wl, g, 0)
        cases[f"g{g}_s0"] = wl.write_inputs(tmp.name, f"g{g}", pts, lam0, char)

    searches = []
    if tree_cls is not None:
        init = tree_cls.__init__

        def counted(self, *a, **k):
            searches.append(1)
            init(self, *a, **k)
        tree_cls.__init__ = counted
    else:
        route = hyp.route

        def counted(*a, **k):
            searches.append(1)
            return route(*a, **k)
        hyp.route = counted

    for name, (curve_path, char_path) in cases.items():
        solve = ["solve", "--curve", str(curve_path), "--char",
                 str(char_path), "--output", os.devnull]
        searches.clear()
        cli.main(solve)
        out["searches_per_solve"][name] = len(searches)
        curve, lam0 = hyp.load_curve(str(curve_path))
        with open(char_path) as fh:
            c = json.load(fh)
        char = theta.ThetaChar(tuple(c["p"]), tuple(c["q"]))
        grid, mono = [], []
        for _ in range(args.reps):
            sol = rh.RHSolution(hyp.compute_periods(curve), char, lam0)
            t = time.perf_counter()
            cli._psi_samples(sol)
            grid.append(time.perf_counter() - t)
            sol = rh.RHSolution(hyp.compute_periods(curve), char, lam0)
            t = time.perf_counter()
            sol.monodromies()
            mono.append(time.perf_counter() - t)
        if name.startswith("sample"):
            out["residues_ms"][name] = residues_ms(curve, char, lam0)
        out["grid_ms"][name] = 1e3 * min(grid)
        out["monodromies_ms"][name] = 1e3 * min(mono)
        out["solve_s"][name] = best_ms(lambda: cli.main(solve),
                                       args.reps) / 1e3
        if name.startswith("sample"):
            verify = ["verify", "--curve", str(curve_path), "--char",
                      str(char_path), "--suite", "all", "--seed", "0",
                      "--output", os.devnull]
            out["verify_s"][name] = best_ms(lambda: cli.main(verify),
                                            args.reps) / 1e3
    tmp.cleanup()
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()

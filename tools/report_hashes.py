"""sha256 of every CLI report over a fixed set of curves.

Usage, from the root of any checkout (the one measured is named by --src):

    python3 tools/report_hashes.py --src path/to/checkout/src > hashes.txt

Prints one line per report: case, command, exit code and the sha256 of
the report's bytes.  Diffing the output of two checkouts shows every
report that changed.  Cases are the g1 and g2 samples and the benchmark's
seeded curves ``draw_points(default_rng([s, 0, g]), 2g+2, 0.5)`` with
basepoint ``clear_point(rng, pts, 0.15)`` and characteristic
``random_char(rng, g)`` from ``rhbench/workloads.py`` of this checkout,
g = 1..4, s = 0..2.  Commands are ``periods``, ``solve``, ``monodromy --n
1``, ``tau`` and, on g1-g3 only, ``verify --suite all --seed 0``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def cases(wl, tmp):
    """(name, genus, curve path, char path) of every input."""
    out = [(f"sample_g{g}", g, ROOT / "samples" / f"curve_g{g}.json",
            ROOT / "samples" / f"char_g{g}.json") for g in (1, 2)]
    for g in (1, 2, 3, 4):
        for s in range(3):
            rng = np.random.default_rng([s, 0, g])
            pts = wl.draw_points(rng, 2 * g + 2, 0.5)
            lam0 = wl.clear_point(rng, pts, 0.15)
            char = wl.random_char(rng, g)
            out.append((f"g{g}_s{s}", g, *wl.write_inputs(
                tmp, f"g{g}_s{s}", pts, lam0, char)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "rhbench")]
    wl = importlib.import_module("workloads")
    cli = importlib.import_module("rhtheta.cli")
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for name, g, curve, char in cases(wl, tmp):
            c = ["--curve", str(curve)]
            cc = c + ["--char", str(char)]
            commands = {"periods": ["periods", *c], "solve": ["solve", *cc],
                        "monodromy": ["monodromy", *cc, "--n", "1"],
                        "tau": ["tau", *cc]}
            if g <= 3:
                commands["verify"] = ["verify", *cc, "--suite", "all",
                                      "--seed", "0"]
            for command, argv in commands.items():
                if os.path.exists(report):
                    os.remove(report)
                code = cli.main(argv + ["--output", report])
                digest = "-"
                if os.path.exists(report):
                    with open(report, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{name} {command} {code} {digest}", flush=True)


if __name__ == "__main__":
    main()

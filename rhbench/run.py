"""rhtheta benchmark: three closed-loop workloads with outside-in tracing.

Usage, from the root of a checkout:

    python3 rhbench/run.py --workload {solve,verify,genus} --seed N \
        --seconds S --trace {0,1}

One client in one process runs the workload's seeded schedule of ops
back to back (a closed loop) for ``--seconds`` seconds, validates every
output against the gates the repository tests use, prints every metric by
name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run replays its
first half traced (see ``tracer.py``) and reports the per-layer ones plus
the tracing overhead.  Spans and a full result record are written to
``.rhbench_out/`` in the checkout.  See NOTES.md for the workloads, the
metrics and the known defects.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".rhbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, MODULES, Tracer  # noqa: E402

WORKLOADS = ("solve", "verify", "genus")
# seed that no tuning used; a gain claimed on other seeds must hold here too
HOLDOUT_SEED = 90417
SETUP_REPEATS = 9


class Program:
    """The package imported from the checkout's ``src``.

    Ops reach functions through the module attributes at call time, so a
    tracer's patches apply to them.
    """

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "rhtheta" or m.startswith("rhtheta.")]:
            del sys.modules[name]
        for m in MODULES:
            setattr(self, m, importlib.import_module(f"rhtheta.{m}"))
        self.error = self.errors.RHThetaError

    def main(self, argv):
        return self.cli.main(argv)


def build(name, seed, tmp):
    """Import the program and generate the workload's inputs (genus
    draws each op's inputs when the op is fetched)."""
    program = Program()
    rng = np.random.default_rng(seed)
    if name == "solve":
        wl = workloads.solve_workload(rng, str(ROOT), tmp, program.main)
    elif name == "verify":
        wl = workloads.verify_workload(rng, str(ROOT), tmp, program.main)
    else:
        wl = workloads.genus_workload(seed, program)
    return program, wl


def setup(name, seed, base):
    """Set up SETUP_REPEATS times from a cold package import; returns the
    median set-up time and the last set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        start = time.perf_counter()
        program, wl = build(name, seed, base)
        times.append(time.perf_counter() - start)
    return statistics.median(times), program, wl


def run_ops(wl, program, seconds=None, count=None, tracer=None):
    """Run scheduled ops back to back until ``seconds`` of wall time have
    passed or ``count`` ops have run; the schedule wraps around."""
    validate = workloads.VALIDATORS[wl.name]
    outcomes = []
    start = time.perf_counter()
    i = 0
    while (count is None and time.perf_counter() - start < seconds) \
            or (count is not None and i < count):
        if tracer is not None:
            tracer.op = i
        outcomes.append(workloads.run_op(wl.ops[i % len(wl.ops)], validate,
                                         program.error))
        outcomes[-1].peak_rss_mb = peak_rss_mb()
        i += 1
    return outcomes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_rank(n):
    """Index into the sorted latencies of the highest percentile with at
    least ten samples beyond it, and that percentile; the maximum when
    fewer than eleven samples exist."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def end_to_end(outcomes, window):
    """End-to-end metrics; a failed op counts as infinitely slow, reported
    as the window length, which no successful op reaches."""
    ok = [o for o in outcomes if not o.failure]
    lat = sorted(o.seconds if not o.failure else float("inf") for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    k, pct = tail_rank(len(lat))

    def finite(v):
        return v if np.isfinite(v) else float(window)

    n = len(outcomes)
    metrics = {
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_s_p50": (finite(float(np.median(lat))), "s"),
        "op_s_tail": (finite(lat[k]), "s"),
        "fail_rate": ((n - len(ok)) / n, "ratio"),
        "warn_rate": (sum(o.warned > 0 for o in outcomes) / n, "ratio"),
        "max_margin": (max(o.margin for o in outcomes), "ratio"),
    }
    return metrics, {"n": n, "tail_percentile": round(pct, 2),
                     "tail_beyond": len(lat) - 1 - k}


def per_layer(tracer, ops, overhead):
    """Per-layer metrics per op from a traced pass over ``ops`` ops."""
    counts, busy, inclusive = tracer.totals()
    c = {k: v / ops for k, v in counts.items()}
    t = {k: v / ops for k, v in inclusive.items()}
    b = {k: v / ops for k, v in busy.items()}
    w = {k: v / ops for k, v in tracer.wall.items()}
    psi = c.get("rh_solver.RHSolution.psi", 0) + c.get("rh_solver.RHSolution.psi_pair", 0)
    residues = c.get("rh_solver.RHSolution.residue", 0)
    thetas = c.get("theta.theta", 0) + c.get("theta.theta_derivs", 0)

    def ratio(a, d):
        return a / d if d else 0.0

    m = {
        "rh_solver.residue_s": (t.get("rh_solver.RHSolution.residue", 0), "s/op"),
        "rh_solver.residue_nodes": (c.get("rh_solver.residue_nodes", 0), "count/op"),
        "rh_solver.nodes_per_residue": (ratio(c.get("rh_solver.residue_nodes", 0), residues), "count"),
        "rh_solver.routes_per_psi": (ratio(c.get("rh_solver.psi_routes", 0), psi), "ratio"),
        "rh_solver.psi_calls": (psi, "count/op"),
        "rh_solver.monodromy_s": (t.get("rh_solver.RHSolution.monodromy", 0), "s/op"),
        "geometry.route_calls": (c.get("geometry.route", 0), "count/op"),
        "kernels.h_calls": (c.get("kernels.KernelContext.h_squared", 0), "count/op"),
        "kernels.context_s": (t.get("kernels.KernelContext.__init__", 0), "s/op"),
        "theta.calls": (thetas, "count/op"),
        "theta.us_per_call": (1e6 * ratio(b.get("theta", 0), thetas), "us"),
        "quadrature.segments": (c.get("quadrature.segments", 0), "count/op"),
        "quadrature.bisections": (c.get("quadrature.bisections", 0), "count/op"),
        "quadrature.nodes": (c.get("quadrature.nodes", 0), "count/op"),
        "quadrature.circle_nodes": (c.get("quadrature.circle_nodes", 0), "count/op"),
        "hyperelliptic.periods_calls": (c.get("hyperelliptic.compute_periods", 0), "count/op"),
        "hyperelliptic.periods_s": (t.get("hyperelliptic.compute_periods", 0), "s/op"),
        "hyperelliptic.abel_calls": (c.get("hyperelliptic.PeriodData.abel", 0), "count/op"),
        "isomonodromy.schlesinger_s": (t.get("isomonodromy.schlesinger_residuals", 0), "s/op"),
        "isomonodromy.tau_gradient_s": (t.get("isomonodromy.tau_gradient_check", 0), "s/op"),
        "isomonodromy.fd_periods_calls": (c.get("isomonodromy.fd_periods_calls", 0), "count/op"),
        "cli.threads": (tracer.max_threads_per_op(), "count"),
        "cli.pool_wait_s": (b.get("wait", 0), "s/op"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": (tracer.span_count() / ops, "count/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (b.get(layer, 0), "s/op")
        m[f"{layer}.wall_s"] = (w.get(layer, 0), "s/op")
    return m


def record(args, program, extra):
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "verify_threads": program.cli._thread_count()
        if hasattr(program.cli, "_thread_count") else None,
    }
    rec.update(extra)
    return rec


def shares(labels):
    n = len(labels)
    return {k: round(v / n, 4) for k, v in sorted(Counter(labels).items())}


def run_probes(wl, program):
    validate = workloads.VALIDATORS[wl.name]
    out = []
    for label, op in wl.probes():
        o = workloads.run_op(op, validate, program.error)
        out.append({"label": label, "failure": o.failure, "detail": o.detail,
                    "warnings": o.warned, "seconds": round(o.seconds, 4)})
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rhtheta" / "cli.py").is_file():
        print(f"error: no rhtheta package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # verify runs with the package's default thread count
    os.environ.pop("RH_NUM_THREADS", None)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, os.path.join(tmp, "inputs"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, base):
    setup_s, program, wl = setup(args.workload, args.seed, base)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain = run_ops(wl, program, seconds=args.seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = run_ops(wl, program, count=len(plain), tracer=tracer)
        overhead = (sum(o.seconds for o in traced)
                    / sum(o.seconds for o in plain) - 1.0)
        metrics = per_layer(tracer, len(traced), overhead)
        outcomes = plain + traced
        with gzip.open(f"{stem}-spans.tsv.gz", "wt", compresslevel=1) as fh:
            tracer.write_spans(fh)
        extra = {"n_untraced": len(plain), "n_traced": len(traced)}
    else:
        outcomes = run_ops(wl, program, seconds=args.seconds)
        e2e, extra = end_to_end(outcomes, args.seconds)
        metrics = dict(e2e)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    n = len(outcomes)
    failed = [o for o in outcomes if o.failure]
    labels = [wl.labels[i % len(wl.labels)] for i in range(n)]
    extra["shares"] = shares(labels)
    if wl.probes and not args.trace:
        probes = run_probes(wl, program)
        extra["probes"] = probes
        extra["probe_fail_rate"] = sum(bool(p["failure"]) for p in probes) / len(probes)
        extra["probe_warn_rate"] = sum(p["warnings"] > 0 for p in probes) / len(probes)
    extra["failures"] = [{"op": i, "label": labels[i], "failure": o.failure,
                          "detail": o.detail} for i, o in enumerate(outcomes)
                         if o.failure]
    ops = [[labels[i], round(o.seconds, 5), o.failure, o.warned, o.margin,
            round(o.peak_rss_mb, 1)] for i, o in enumerate(outcomes)]
    rec = record(args, program, extra)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print("record " + json.dumps(rec, sort_keys=True))
    declared = _declared(args.trace)
    result = {
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": float(metrics[k][0]), "unit": metrics[k][1]}
                    for k in declared},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({"result": result, "record": rec, "ops": ops,
                   "metrics": {k: list(v) for k, v in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def _declared(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())

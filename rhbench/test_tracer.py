"""Coverage of the benchmark tracer.

Run from the root of a checkout:  python3 -m pytest -q rhbench
"""

import importlib
import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import LAYERS, MODULES, PACKAGE, Tracer  # noqa: E402

SAMPLES = HERE.parent / "samples"


def _modules():
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def _public_functions(mod):
    return {name: fn for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__}


def test_every_binding_of_every_public_function_is_patched():
    mods = _modules()
    before = {m: dict(vars(mod)) for m, mod in mods.items()}
    defined = {fn: f"{layer}.{name}" for layer in LAYERS
               for name, fn in _public_functions(mods[layer]).items()}
    residue = mods["rh_solver"].RHSolution.__dict__["residue"]
    tracer = Tracer()
    with tracer:
        assert set(tracer.wrappers) >= set(defined)
        for m, mod in mods.items():
            for attr, obj in before[m].items():
                if inspect.isfunction(obj) and obj in defined:
                    assert getattr(mod, attr) is tracer.wrappers[obj], \
                        f"{m}.{attr} (bound to {defined[obj]}) is not patched"
        # the bindings named in the benchmark notes, spelled out
        for m, attr, home in (("rh_solver", "theta", "theta"),
                              ("kernels", "theta", "theta"),
                              ("isomonodromy", "compute_periods", "hyperelliptic"),
                              ("cli", "compute_periods", "hyperelliptic"),
                              ("hyperelliptic", "integrate_segment", "quadrature")):
            original = before[home][attr]
            assert getattr(mods[m], attr) is tracer.wrappers[original]
            assert getattr(mods[home], attr) is tracer.wrappers[original]
        # methods are patched on their classes
        assert mods["rh_solver"].RHSolution.residue is tracer.wrappers[residue]
    for m, mod in mods.items():
        for attr, obj in before[m].items():
            assert vars(mod)[attr] is obj, f"{m}.{attr} not restored"
    assert mods["rh_solver"].RHSolution.__dict__["residue"] is residue


def _solve(cli, out):
    argv = ["solve", "--curve", str(SAMPLES / "curve_g1.json"),
            "--char", str(SAMPLES / "char_g1.json"), "--output", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def test_traced_solve_report_is_byte_identical(tmp_path):
    cli = _modules()["cli"]
    plain = _solve(cli, tmp_path / "plain.json")
    tracer = Tracer()
    with tracer:
        tracer.op = 0
        with tracer.span("harness.op", "harness"):
            traced = _solve(cli, tmp_path / "traced.json")
    assert traced == plain
    counts, busy, inclusive = tracer.totals()
    assert counts["rh_solver.RHSolution.residue"] == 4
    assert counts["rh_solver.residue_nodes"] > 0
    assert counts["quadrature.nodes"] > 0
    # self times partition the op: every layer plus the harness span
    # add up to the op's duration
    assert abs(sum(busy.values()) - inclusive["harness.op"]) < 1e-6
    assert set(busy) - {"harness"} <= set(LAYERS)

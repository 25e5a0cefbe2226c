import csv
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import rhtheta.cli as cli_mod
import rhtheta.hyperelliptic as hyp_mod
import rhtheta.isomonodromy as iso_mod
import rhtheta.kernels as ker_mod
import rhtheta.quadrature as quad_mod
import rhtheta.rh_solver as rh_mod
from rhtheta.cli import main
from rhtheta.errors import RoutingFailure
from rhtheta.hyperelliptic import (HyperellipticCurve, PeriodData,
                                   compute_periods)
from rhtheta.isomonodromy import tau_closed_form
from rhtheta.kernels import riemann_constant
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar, theta_derivs

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
CURVE = str(SAMPLES / "curve_g1.json")
CHAR = str(SAMPLES / "char_g1.json")


def read(path):
    with open(path) as fh:
        return json.load(fh)


def as_complex(pair):
    return complex(pair[0], pair[1])


def as_matrix(nested):
    return np.array([[as_complex(e) for e in row] for row in nested])


# -- per-command output --------------------------------------------------------


def test_periods_report(tmp_path):
    out = tmp_path / "periods.json"
    assert main(["periods", "--curve", CURVE, "--output", str(out)]) == 0
    report = read(out)
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    assert report["genus"] == 1
    assert abs(as_matrix(report["period_matrix"])[0, 0] - pd.B[0, 0]) < 1e-14
    assert abs(as_matrix(report["a_periods"])[0, 0] - pd.A[0, 0]) < 1e-14
    assert set(report["conventions"]) == {
        "homology_basis", "odd_characteristic", "loop_layout", "abel_base"}


def test_theta_eval_report(tmp_path):
    B = [[[0.0, 1.2792615711710182]]]
    inp = tmp_path / "theta.json"
    inp.write_text(json.dumps(
        {"z": [[0.1, 0.05]], "B": B, "char": {"p": [0.11], "q": [-0.23]}}))
    out = tmp_path / "theta_out.json"
    assert main(["theta-eval", "--input", str(inp),
                 "--output", str(out)]) == 0
    report = read(out)
    ev = theta_derivs(np.array([0.1 + 0.05j]),
                      np.array([[1.2792615711710182j]]),
                      ThetaChar((0.11,), (-0.23,)))
    assert abs(as_complex(report["value"]) - ev.value) < 1e-14
    assert abs(as_complex(report["gradient"][0]) - ev.grad[0]) < 1e-14
    assert report["lattice_radius"] > 0


def test_solve_report_and_csv(tmp_path):
    out = tmp_path / "solve.json"
    grid = tmp_path / "psi.csv"
    assert main(["solve", "--curve", CURVE, "--char", CHAR,
                 "--csv", str(grid), "--output", str(out)]) == 0
    report = read(out)
    assert len(report["monodromies"]) == 4
    assert report["product_defect"] < 1e-6
    assert report["residues"]["sum_norm"] < 1e-8
    for rec in report["monodromies"]:
        m = as_matrix(rec["matrix"])
        assert rec["permutation"] == [1, 0]
        assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12
    rows = report["psi_samples"]["rows"]
    assert rows and all(len(r) == 10 for r in rows)
    # the sampled matrices are unimodular wherever they were kept
    for r in rows[:5]:
        m = np.array([[r[2] + 1j * r[3], r[4] + 1j * r[5]],
                      [r[6] + 1j * r[7], r[8] + 1j * r[9]]])
        assert abs(np.linalg.det(m) - 1.0) < 1e-8
    with open(grid, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][:2] == ["re_lambda", "im_lambda"]
    assert len(table) == len(rows) + 1


@pytest.mark.parametrize("genus", [1, 2])
def test_solve_evaluates_paths_in_bulk(monkeypatch, genus):
    # one route tree per source and clearance rung; the Psi grid takes one
    # many-path integral, one stacked segment call for its one sheet and
    # one _assemble; the monodromies take one many-path integral over the
    # spurs, one stacked segment call for their one sheet, and one stacked
    # hop from every loop's branch point to its entry
    trees, log, phase = [], [], ["setup"]
    tree_cls = hyp_mod.RouteTree

    def building(z0, cuts, margin, clear_points=()):
        trees.append((complex(z0), margin))
        return tree_cls(z0, cuts, margin, clear_points)

    def logged(what, fn):
        def call(*args, **kwargs):
            if kwargs.get("_depth", 0) == 0:
                log.append((phase[0], what))
            return fn(*args, **kwargs)
        return call

    def phased(name, fn):
        def call(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "other"
        return call

    segment = quad_mod.integrate_segment

    def segmenting(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
        return logged("segment", segment)(f, z0, z1, tol, max_depth,
                                          _depth=_depth)

    hop = hyp_mod.integrate_segment

    def hopping(f, z0, z1, tol=1e-12, max_depth=10, _depth=0):
        return logged("hop", hop)(f, z0, z1, tol, max_depth, _depth=_depth)

    monkeypatch.setattr(hyp_mod, "RouteTree", building)
    monkeypatch.setattr(quad_mod, "integrate_segment", segmenting)
    monkeypatch.setattr(hyp_mod, "integrate_segment", hopping)
    # germ routes integrate in hyperelliptic, monodromy loops in rh_solver
    for mod in (hyp_mod, rh_mod):
        monkeypatch.setattr(mod, "integrate_pieces",
                            logged("pieces", mod.integrate_pieces))
    monkeypatch.setattr(rh_mod.RHSolution, "_assemble",
                        logged("assemble", rh_mod.RHSolution._assemble))
    monkeypatch.setattr(rh_mod.RHSolution, "monodromies", phased(
        "monodromies", rh_mod.RHSolution.monodromies))
    monkeypatch.setattr(cli_mod, "_psi_samples",
                        phased("grid", cli_mod._psi_samples))
    assert main(["solve", "--curve", str(SAMPLES / f"curve_g{genus}.json"),
                 "--char", str(SAMPLES / f"char_g{genus}.json"),
                 "--output", os.devnull]) == 0
    assert trees and len(trees) == len(set(trees))
    assert len({z0 for z0, _ in trees}) == 2      # the anchor and lambda0
    assert [w for p, w in log if p == "grid"] == ["pieces", "segment",
                                                  "assemble"]
    assert [w for p, w in log if p == "monodromies"] == ["pieces", "segment",
                                                         "hop"]


def test_solve_skips_exactly_the_failing_grid_node(tmp_path, monkeypatch):
    # no grid node of the samples fails, so one is made to: its row, and
    # only its row, leaves the report, and the CSV still matches the report
    out = tmp_path / "solve.json"
    assert main(["solve", "--curve", CURVE, "--char", CHAR,
                 "--output", str(out)]) == 0
    full = read(out)
    rows = full["psi_samples"]["rows"]
    bad = complex(rows[3][0], rows[3][1])
    route = PeriodData.sheet1_route

    def failing(self, z0, z1):
        if z1 == bad:
            raise RoutingFailure("injected at one grid node")
        return route(self, z0, z1)

    monkeypatch.setattr(PeriodData, "sheet1_route", failing)
    out, grid = tmp_path / "skip.json", tmp_path / "skip.csv"
    assert main(["solve", "--curve", CURVE, "--char", CHAR, "--csv",
                 str(grid), "--output", str(out)]) == 0
    report = read(out)
    kept = report["psi_samples"]["rows"]
    want = rows[:3] + rows[4:]
    assert [r[:2] for r in kept] == [r[:2] for r in want]
    for got, ref in zip(kept, want):
        scale = max(abs(v) for v in ref[2:])
        assert max(abs(a - b) for a, b in zip(got[2:], ref[2:])) \
            <= 1e-14 * scale
    with open(grid, newline="") as fh:
        table = list(csv.reader(fh))
    assert [[float(v) for v in r] for r in table[1:]] == kept
    del report["psi_samples"], full["psi_samples"]
    assert report == full


def test_solve_lambda0_flag_overrides_basepoint(tmp_path):
    curve = tmp_path / "bare.json"
    curve.write_text(json.dumps(
        {"branch_points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}))
    out = tmp_path / "solve.json"
    assert main(["solve", "--curve", str(curve), "--char", CHAR,
                 "--lambda0", "1.5,1.1", "--output", str(out)]) == 0
    assert read(out)["lambda0"] == [1.5, 1.1]
    # without a basepoint anywhere the command cannot normalize
    assert main(["solve", "--curve", str(curve), "--char", CHAR,
                 "--output", str(out)]) == 2


def test_monodromy_report(tmp_path):
    out = tmp_path / "mon.json"
    assert main(["monodromy", "--curve", CURVE, "--char", CHAR,
                 "--n", "1", "--output", str(out)]) == 0
    report = read(out)
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    sol = RHSolution(pd, ThetaChar((0.11,), (-0.23,)), 1.5 + 1.1j)
    want = sol.monodromy(1)
    assert np.max(np.abs(as_matrix(report["matrix"]) - want.matrix)) < 1e-12
    assert report["permutation"] == list(want.permutation)
    assert [c["sigma"] for c in report["columns"]] == \
        [c.sigma for c in want.columns]


def test_tau_report_defaults_to_own_reference(tmp_path):
    out = tmp_path / "tau.json"
    assert main(["tau", "--curve", CURVE, "--char", CHAR,
                 "--output", str(out)]) == 0
    report = read(out)
    pd = compute_periods(HyperellipticCurve([0.0, 1.0, 2.0, 3.0]))
    ev = tau_closed_form(pd, ThetaChar((0.11,), (-0.23,)))
    assert abs(as_complex(report["tau"]) - ev.value) < 1e-14
    assert abs(as_complex(report["theta_factor"]) - ev.theta_factor) < 1e-14
    assert report["branch_reference"]["path"] is None
    assert report["branch_reference"]["phase"] == [1.0, 0.0]


def test_tau_reference_sets_branch_phase(tmp_path):
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps({
        "branch_points": [[0.0, 0.3], [1.1, -0.2], [2.0, 0.1], [3.2, 0.0]]}))
    out = tmp_path / "tau.json"
    assert main(["tau", "--curve", str(moved), "--char", CHAR,
                 "--reference", CURVE, "--output", str(out)]) == 0
    report = read(out)
    phase = as_complex(report["branch_reference"]["phase"])
    assert abs(abs(phase) - 1.0) < 1e-10
    assert report["branch_reference"]["path"] == CURVE
    # continued value = principal value rotated by the reported phase
    assert main(["tau", "--curve", str(moved), "--char", CHAR,
                 "--output", str(out)]) == 0
    principal = as_complex(read(out)["tau"])
    continued = as_complex(report["tau"])
    assert abs(continued - phase * principal) < 1e-12 * abs(continued)


def _same_report(got, want, where="report"):
    """Keys, strings, integers, booleans and row order exactly; floats
    within 1e-12 * max(1, |want|)."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            _same_report(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _same_report(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), where
    else:
        assert got == want, where


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_sample_reports_match_pins(tmp_path, genus):
    # whole reports of five commands on each sample, pinned in
    # sample_reports.json; a sign or lattice-gauge change anywhere shows.
    # The g3 sample is the benchmark's seeded g3 s0 curve, with four cuts
    # for its routes to go around
    pins = read(Path(__file__).resolve().parent / "sample_reports.json")
    curve = str(SAMPLES / f"curve_g{genus}.json")
    char = str(SAMPLES / f"char_g{genus}.json")
    commands = {
        "periods": ["periods", "--curve", curve],
        "solve": ["solve", "--curve", curve, "--char", char],
        "monodromy": ["monodromy", "--curve", curve, "--char", char,
                      "--n", "1"],
        "tau": ["tau", "--curve", curve, "--char", char],
        "verify": ["verify", "--curve", curve, "--char", char,
                   "--suite", "all", "--seed", "0"],
    }
    assert sorted(commands) == sorted(pins[f"g{genus}"])
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--output", str(out)]) == 0
        _same_report(read(out), pins[f"g{genus}"][name], f"g{genus} {name}")


# -- verification suite ----------------------------------------------------


@pytest.mark.parametrize("suite", ["periods", "fay", "rauch", "compat"])
def test_verify_suites_pass(tmp_path, suite):
    out = tmp_path / "report.json"
    assert main(["verify", "--curve", CURVE, "--char", CHAR,
                 "--suite", suite, "--output", str(out)]) == 0
    report = read(out)
    assert report["passed"] is True
    assert report["suite"] == suite
    assert all(c["pass"] for c in report["checks"])
    names = [c["check"] for c in report["checks"]]
    assert names == sorted(names)
    for c in report["checks"]:
        assert c["residual"] < c["tolerance"]


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", "--curve", CURVE, "--char", CHAR,
                     "--suite", "fay", "--seed", "3",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_is_recorded_and_respected(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--curve", CURVE, "--char", CHAR, "--suite",
                 "fay", "--seed", "7", "--output", str(out)]) == 0
    report = read(out)
    assert report["seed"] == 7
    assert report["passed"] is True


def test_verify_tolerance_override_controls_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--curve", CURVE, "--char", CHAR,
                 "--suite", "rauch", "--tol", "rauch_fd=1e-30",
                 "--output", str(out)])
    assert code == 1
    report = read(out)
    assert report["passed"] is False
    rows = {(c["check"], json.dumps(c["params"])): c
            for c in report["checks"]}
    fd_rows = [c for (name, _), c in rows.items() if name == "rauch_fd"]
    assert fd_rows and all(c["pass"] is False for c in fd_rows)
    assert all(c["tolerance"] == 1e-30 for c in fd_rows)
    assert all(c["pass"] for (name, _), c in rows.items()
               if name == "rauch_sheet_sum")


@pytest.mark.parametrize("genus, distinct", [(1, 18), (2, 26)])
def test_verify_computes_each_curve_once(monkeypatch, genus, distinct):
    # the base curve, its looser-tolerance twin for node_doubling, and the
    # curve moved by each of four steps in each branch point, once each;
    # the thomae, compatibility and f_factor rows share one Riemann-constant
    # scan of the base curve; the tau_gradient, hamiltonian and f_factor
    # rows share one kernel pair-residue circle per branch point
    calls, scans, pair_circles = [], [], []

    def counting(curve, tol=1e-12):
        calls.append((tuple(curve.points), tol))
        return compute_periods(curve, tol)

    def scanning(periods):
        scans.append(periods)
        return riemann_constant(periods)

    circle = iso_mod.branch_circle

    def circling(f, points, m, what, *args, **kwargs):
        if what == "kernel pair-residue":
            pair_circles.append(m)
        return circle(f, points, m, what, *args, **kwargs)

    for mod in (cli_mod, hyp_mod, iso_mod):
        monkeypatch.setattr(mod, "compute_periods", counting)
    monkeypatch.setattr(ker_mod, "riemann_constant", scanning)
    monkeypatch.setattr(iso_mod, "branch_circle", circling)
    assert main(["verify", "--curve", str(SAMPLES / f"curve_g{genus}.json"),
                 "--char", str(SAMPLES / f"char_g{genus}.json"),
                 "--suite", "all", "--output", os.devnull]) == 0
    assert len(set(calls)) == distinct
    assert len(calls) == distinct
    assert [tuple(pd.curve.points) for pd in scans] == [calls[0][0]]
    assert sorted(pair_circles) == list(range(2 * genus + 2))


# -- configuration errors ----------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"branch_points": [[0, 0')
    assert main(["periods", "--curve", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "ConfigError"


def test_unknown_command_and_flags_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["verify", "--curve", CURVE, "--char", CHAR,
                 "--suite", "nonsense"]) == 2


def test_tol_is_a_verify_option(capsys):
    # only verify reads tolerances; elsewhere the flag is unknown
    assert main(["periods", "--curve", CURVE,
                 "--tol", "b_symmetry=1"]) == 2
    assert main(["tau", "--curve", CURVE, "--char", CHAR,
                 "--tol", "b_symmetry=1"]) == 2
    capsys.readouterr()


def test_config_validation_errors(tmp_path, capsys):
    assert main(["monodromy", "--curve", CURVE, "--char", CHAR,
                 "--n", "99"]) == 2
    assert main(["tau", "--curve", CURVE,
                 "--char", str(SAMPLES / "char_g2.json")]) == 2
    assert main(["solve", "--curve", CURVE, "--char", CHAR,
                 "--lambda0", "blah"]) == 2
    assert main(["verify", "--curve", CURVE, "--char", CHAR,
                 "--suite", "periods", "--tol", "nonsense=1"]) == 2
    assert main(["verify", "--curve", CURVE, "--char", CHAR,
                 "--suite", "periods", "--tol", "b_symmetry=-1"]) == 2
    capsys.readouterr()


def test_module_errors_exit_3_with_code(tmp_path, capsys):
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps(
        {"branch_points": [[0, 0], [0, 0], [1, 0], [2, 0]]}))
    assert main(["periods", "--curve", str(degen)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "DegenerateCurve"


def test_basepoint_on_branch_point_rejected(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({
        "branch_points": [[0, 0], [1, 0], [2, 0], [3, 0]],
        "basepoint": {"lambda": [1.0, 0.0], "sheet": 1}}))
    assert main(["monodromy", "--curve", str(curve), "--char", CHAR,
                 "--n", "0"]) == 2
    curve.write_text(json.dumps({
        "branch_points": [[0, 0], [1, 0], [2, 0], [3, 0]],
        "basepoint": {"lambda": [1.5, 1.1], "sheet": 2}}))
    assert main(["monodromy", "--curve", str(curve), "--char", CHAR,
                 "--n", "0"]) == 2
    capsys.readouterr()


# -- execution ---------------------------------------------------------------


def test_commands_run_in_the_calling_thread(tmp_path, monkeypatch):
    # a thread-count variable in the environment changes nothing: no
    # command starts a thread
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    theta_in = tmp_path / "theta.json"
    theta_in.write_text(json.dumps({"z": [[0.1, 0.05]],
                                    "B": [[[0.0, 1.2792615711710182]]]}))
    monkeypatch.setenv("RH_NUM_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    curve = ["--curve", CURVE]
    for argv in (["periods"] + curve,
                 ["theta-eval", "--input", str(theta_in)],
                 ["solve"] + curve + ["--char", CHAR],
                 ["monodromy"] + curve + ["--char", CHAR, "--n", "0"],
                 ["tau"] + curve + ["--char", CHAR],
                 ["verify"] + curve + ["--char", CHAR, "--suite", "all"]):
        assert main(argv + ["--output", os.devnull]) == 0, argv[0]

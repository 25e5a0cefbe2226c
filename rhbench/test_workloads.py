"""Output validation of the benchmark workloads: a residual that is NaN,
anywhere in an op's outputs, fails its gate as it fails the tests'
``residual < gate``.

Run from the root of a checkout:  python3 -m pytest -q rhbench
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

NAN = float("nan")


def _solve_report(tmp_path, det_rows=((1.0, 0.0),), exponents=(-0.25, 0.25),
                  sum_norm=0.0, defect=0.0):
    # psi rows are [x, y, re/im of the four entries]: diagonal (d, 1/d)
    rows = [[0.0, 0.0, d, e, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
            for d, e in det_rows]
    report = {"product_defect": defect,
              "residues": {"exponents": [[[exponents[0], 0.0],
                                          [exponents[1], 0.0]]],
                           "sum_norm": sum_norm},
              "psi_samples": {"rows": rows}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return 0, str(path)


def test_clean_outputs_pass(tmp_path):
    assert workloads._validate_solve(_solve_report(tmp_path))[0] == ""
    assert workloads._validate_genus((0.0, [0.0, 1e-12], 1.0 + 0j))[0] == ""


def test_nan_after_a_finite_residual_fails_genus():
    failure, _, margin = workloads._validate_genus((NAN, [1e-12], 1.0 + 0j))
    assert failure == "gate" and math.isinf(margin)
    failure, _, _ = workloads._validate_genus((0.0, [1e-12, NAN], 1.0 + 0j))
    assert failure == "gate"
    failure, _, _ = workloads._validate_genus((0.0, [0.0], complex(NAN, 0)))
    assert failure == "gate"


def test_nan_anywhere_fails_solve(tmp_path):
    for kwargs in ({"sum_norm": NAN}, {"defect": NAN},
                   {"exponents": (-0.25, NAN)},
                   {"det_rows": ((1.0, 0.0), (NAN, 0.0))}):
        failure, _, _ = workloads._validate_solve(_solve_report(tmp_path, **kwargs))
        assert failure == "gate", kwargs


def _verify_report(tmp_path, rows):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps({"checks": rows}))
    return 0, str(path)


def test_verify_margin_is_worst_over_every_row(tmp_path):
    rows = [{"check": f"c{i}", "params": {}, "residual": 0.1,
             "tolerance": 1.0, "pass": True}
            for i in range(workloads.VERIFY_ROWS_G1)]
    rows[3].update(residual=2.0, **{"pass": False})
    rows[7].update(residual=5.0, **{"pass": False})
    rows[9]["residual"] = 0.5
    failure, detail, margin = workloads._validate_verify(_verify_report(tmp_path, rows))
    assert failure == "gate" and "c3" in detail and margin == 5.0
    for r in rows:
        r.update(residual=0.1, **{"pass": True})
    rows[20]["residual"] = NAN
    failure, _, _ = workloads._validate_verify(_verify_report(tmp_path, rows))
    assert failure == "gate"

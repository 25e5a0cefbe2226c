"""Results must not depend on where the curve sits in the plane.

The sample curves are translated by up to 1e4 and then scaled by 10^-3 to
10^3, basepoint included.  The period matrix, the monodromy product, the
residue exponents and sum and the half-period property of the Abel map at the
branch points must all survive, and no numpy warning may leak.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhtheta.hyperelliptic import (HyperellipticCurve, compute_periods,
                                   load_curve)
from rhtheta.rh_solver import RHSolution
from rhtheta.theta import ThetaChar

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _sample(genus):
    curve, lam0 = load_curve(SAMPLES / f"curve_g{genus}.json")
    with open(SAMPLES / f"char_g{genus}.json") as fh:
        ch = json.load(fh)
    return curve, lam0, ThetaChar(tuple(ch["p"]), tuple(ch["q"]))


_REFERENCE_B = {g: compute_periods(_sample(g)[0]).B for g in (1, 2)}


@pytest.mark.filterwarnings("error")
@settings(deadline=None, derandomize=True, database=None, max_examples=8)
@given(genus=st.sampled_from((1, 2)),
       shift=st.complex_numbers(max_magnitude=1e4, allow_nan=False,
                                allow_infinity=False),
       log_scale=st.floats(-3.0, 3.0))
@example(genus=2, shift=100.0 + 0j, log_scale=0.0)
@example(genus=2, shift=1e4 + 0j, log_scale=0.0)
@example(genus=1, shift=1e4 + 0j, log_scale=-3.0)
def test_translation_and_scaling_invariance(genus, shift, log_scale):
    curve, lam0, char = _sample(genus)
    scale = 10.0 ** log_scale
    pd = compute_periods(HyperellipticCurve(scale * (curve.points + shift)))
    assert np.max(np.abs(pd.B - _REFERENCE_B[genus])) < 1e-10
    for m in range(len(pd.curve.points)):
        _, _, res = pd.lattice_decompose(2.0 * pd.abel(branch_index=m))
        assert np.max(np.abs(res)) < 1e-9, m
    sol = RHSolution(pd, char, scale * (lam0 + shift))
    _, defect, _ = sol.monodromy_product()
    assert defect < 1e-6
    rs = sol.residues()
    for eig in rs.exponents:
        assert np.max(np.abs(eig - np.array([-0.25, 0.25]))) < 1e-10
    assert rs.sum_norm < 1e-10

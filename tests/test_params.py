"""Deformation context: validation of t and the tolerances."""

import math

import pytest

from suq2.params import Params
from suq2.verify import RunConfig, run_suite


@pytest.mark.parametrize("name", ["tol_abs", "tol_rel"])
@pytest.mark.parametrize("value", [-1e-9, math.nan, math.inf, -math.inf])
def test_tolerances_must_be_finite_and_nonnegative(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        Params(**{name: value})


def test_zero_tolerances_are_accepted():
    params = Params(tol_abs=0.0, tol_rel=0.0)
    assert params.tol_abs == 0.0 and params.tol_rel == 0.0


def test_infinite_tolerance_cannot_pass_a_suite():
    # an infinite tolerance would pass every check, whatever its residual
    with pytest.raises(ValueError, match="tol_abs must be finite"):
        run_suite(RunConfig(tol_abs=math.inf), "dqg")

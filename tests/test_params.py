"""Deformation context: validation of t and the tolerances."""

import math

import numpy as np
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


@pytest.mark.parametrize("name", ["t", "tol_abs", "tol_rel"])
@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.3", None, 1j])
def test_a_field_that_is_not_a_real_number_is_refused_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        Params(**{name: value})


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.25)])
def test_ints_and_numpy_floats_are_accepted(value):
    params = Params(t=value, tol_abs=value, tol_rel=value)
    assert (params.t, params.tol_abs, params.tol_rel) == (value, value, value)


def test_a_bool_deformation_never_reaches_a_report():
    # True == 1 would run the suite at t = 1 and write "t":true into the report
    with pytest.raises(ValueError, match="^t must be a real number, got True"):
        run_suite(RunConfig(t=True, tol_abs=True), "hopf")


def test_an_overflowing_power_of_lam_names_t_and_the_power():
    with pytest.raises(OverflowError, match=r"^at t = 800\.0, lam = exp\(t\) overflows$"):
        Params(t=800.0).lam
    with pytest.raises(OverflowError, match=r"^at t = 5\.0, lam\^\(802/2\) overflows$"):
        Params(t=5.0).lam_pow(802)
    assert Params(t=5.0).lam_pow(200) == math.exp(500.0)
    assert Params(t=700.0).lam == math.exp(700.0)

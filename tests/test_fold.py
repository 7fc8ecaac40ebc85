"""The one residual fold: `util.worst` and the norms and checks built on it.

Python's ``max`` keeps its running value against a NaN, so a NaN residual
would vanish or survive depending on where it sits; every fold here must
report it wherever it sits.
"""

import math

import numpy as np
import pytest

from suq2.discrete import AlgElement
from suq2.dual import DualElement
from suq2.util import max_abs, worst
from suq2.verify import _check
from suq2.words import AlgPoly, Gen

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("values", [[0.1, NAN], [NAN, 0.1], [0.3, 0.1, NAN, 0.2]])
def test_worst_propagates_nan_from_any_position(values):
    assert math.isnan(worst(values))
    assert math.isnan(worst(iter(values)))


@pytest.mark.parametrize("values", [[0.1, INF], [INF, 0.1]])
def test_worst_propagates_inf(values):
    assert worst(values) == INF


@pytest.mark.parametrize(
    "values, expected",
    [([-3.0, 1.0], 3.0), ([2.0, -1.0], 2.0), ([-0.0], 0.0), ([1.0, NAN], NAN), ([-INF, 1.0], INF), ([3 - 4j], 5.0)],
)
def test_max_abs_is_the_largest_absolute_value(values, expected):
    """One route, the largest entry of abs, for real and complex arrays
    alike: the largest absolute value, NaN and +0.0 included, on a strided
    view as on a contiguous array."""
    contiguous = np.array(values)
    for m in (contiguous, np.repeat(contiguous, 2)[::2]):
        got = max_abs(m)
        assert (math.isnan(got) and math.isnan(expected)) or (got == expected and math.copysign(1.0, got) == 1.0)


def _two_path_max_abs(m):
    """max_abs with a real array read by its largest and smallest entries,
    without an array of absolute values, and other arrays through abs."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    if m.dtype.kind == "f":
        return float(np.maximum(m.max(), -m.min())) + 0.0
    return float(np.max(np.abs(m)))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[-3.0, 1.0], [2.0, -0.5]]),
        np.arange(24.0).reshape(2, 3, 4)[:, ::2] - 11.5,
        np.array([1.0, -2.0], dtype=np.float32),
        np.array([3 - 4j, -1j]),
        np.array([[1 + 1j]])[:, ::-1],
        np.array([-7, 3]),
        np.zeros(0),
        np.zeros((0, 3), dtype=complex),
        np.array(-2.5),
        np.array(-2 + 1j),
        np.array([1.0, NAN, -3.0]),
        np.array([NAN + 0j, 2.0]),
        np.array([INF, -1.0]),
        np.array([-INF, 1.0]),
        np.array([complex(1.0, -INF)]),
        np.array([-0.0]),
        np.array([[-0.0, -0.0]]),
        np.array(-0.0),
        [[-0.0]],
    ],
)
def test_max_abs_equals_the_two_path_formula(m):
    got, expected = max_abs(m), _two_path_max_abs(m)
    assert type(got) is float
    assert (math.isnan(got) and math.isnan(expected)) or (got == expected and math.copysign(1.0, got) == 1.0)


def test_worst_of_nothing_is_zero():
    assert worst([]) == 0.0
    assert worst(x for x in ()) == 0.0


def test_worst_is_the_exact_maximum_of_finite_values():
    values = [0.1, 2.5e-13, np.float64(3.0000000000000004), 1]
    assert worst(values) == 3.0000000000000004
    assert type(worst(values)) is float


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("cls", [AlgElement, DualElement])
def test_block_norm_reports_a_nan_in_any_block(cls, position):
    blocks = {two_n: np.full((two_n + 1, two_n + 1), 0.5) for two_n in range(3)}
    blocks[position][0, 0] = NAN
    assert math.isnan(cls(blocks).norm())


@pytest.mark.parametrize("position", [0, 1, 2])
def test_word_coefficients_report_a_nan_in_any_position(position):
    coeffs = [0.5, 2.0, -1.0]
    coeffs[position] = NAN
    x = AlgPoly({(Gen.E,): coeffs[0], (Gen.F,): coeffs[1], (Gen.Q, Gen.E): coeffs[2]})
    assert math.isnan(x.max_abs_coeff())


def test_check_folds_a_generator_of_residuals():
    check = _check(1e-9, "x/fold", "law", (v for v in [1e-12, NAN, 1e-13]))
    assert math.isnan(check.residual)
    assert not check.passed
    check = _check(1e-9, "x/fold", "law", (v for v in [1e-12, 3e-10]))
    assert check.residual == 3e-10 and check.passed and check.tolerance == 1e-9
    assert _check(1e-9, "x/fold", "law", iter(())).residual == 0.0


def test_check_keeps_bools_and_numbers():
    passed = _check(1e-9, "x/bool", "law", True)
    failed = _check(1e-9, "x/bool", "law", np.bool_(False))
    assert (passed.residual, passed.tolerance, passed.passed) == (0.0, 0.0, True)
    assert (failed.residual, failed.tolerance, failed.passed) == (1.0, 0.0, False)
    number = _check(1e-9, "x/number", "law", np.float64(2e-9), 1e-8)
    assert (number.residual, number.tolerance, number.passed) == (2e-9, 1e-8, True)
    assert not _check(1e-9, "x/number", "law", NAN).passed

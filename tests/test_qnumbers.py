"""Exponentials of t have one home: ``Params.q_diag`` and ``Params.qnum``.

Every site that reads a power of q on a weight basis or a q-number goes
through these two methods.  Each test below holds the formula a site used
before it was routed and requires the routed function to give the same
bits, from t = 1e-8 to t = 50, where the largest weights overflow to inf
(and products of inf and 0 to NaN) on both sides alike.  The last test
scans the package so that a new site cannot bypass the home.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import suq2
from suq2.discrete import (
    block_integrals,
    integral_weights,
    modular_element_block,
    quantum_dimension,
    scaling_block,
    scaling_imag_block,
)
from suq2.params import Params
from suq2.reps import build_rep
from suq2.util import weights

T_VALUES = (1e-8, 1e-5, 0.3, 2.0, 50.0)
SPINS = range(33)


def assert_same_bits(actual, expected):
    assert np.asarray(actual).dtype == np.asarray(expected).dtype
    assert np.array_equal(actual, expected, equal_nan=True)


@pytest.fixture(autouse=True)
def quiet_overflow():
    # at t = 50 the weight exponentials overflow, before and after routing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        yield


@pytest.mark.parametrize("t", T_VALUES)
def test_build_rep_keeps_its_amplitudes_and_q(t):
    params = Params(t=t)
    for two_n in SPINS:
        qnum = np.sinh(params.t * np.arange(1, two_n + 1)) / np.sinh(params.t)
        for sign in (+1, -1):
            rep = build_rep(params, two_n, sign)
            q_diag = sign * np.exp(0.5 * params.t * weights(two_n))
            assert_same_bits(rep.r, np.sqrt(qnum[::-1] * qnum))
            assert_same_bits(rep.q, np.diag(q_diag.astype(complex)))
            assert_same_bits(rep.q_inv, np.diag((1.0 / q_diag).astype(complex)))


@pytest.mark.parametrize("t", T_VALUES)
def test_scaling_keeps_its_weight_factors(t):
    params = Params(t=t)
    rng = np.random.default_rng(5)
    for two_n in SPINS:
        dim = two_n + 1
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for s in (0.5, -1.0, 0.7, -1.3):
            d = np.exp(params.t * s * weights(two_n))
            assert_same_bits(scaling_imag_block(params, two_n, mat, s), mat * np.outer(d, 1.0 / d))
            d = np.exp(params.t * (-1j * s) * weights(two_n))
            assert_same_bits(scaling_imag_block(params, two_n, mat, -1j * s), mat * np.outer(d, 1.0 / d))
            assert_same_bits(scaling_block(params, two_n, mat, s), mat * np.outer(d, 1.0 / d))


@pytest.mark.parametrize("t", T_VALUES)
def test_integrals_and_modular_element_keep_their_weights(t):
    params = Params(t=t)
    rng = np.random.default_rng(6)
    for two_n in SPINS:
        c = float(np.sum(np.exp(params.t * weights(two_n))))
        assert_same_bits(quantum_dimension(params, two_n), c)
        modular = np.diag(np.exp(2.0 * params.t * weights(two_n))).astype(complex)
        assert_same_bits(modular_element_block(params, two_n), modular)
        mats = rng.standard_normal((3, two_n + 1, two_n + 1)) + 0j
        for kind, sign in (("left", -1.0), ("right", 1.0)):
            factors = np.exp(sign * params.t * weights(two_n))
            assert_same_bits(integral_weights(params, two_n, kind), factors)
            expected = c * np.sum(np.diagonal(mats, axis1=-2, axis2=-1) * factors, axis=-1)
            assert_same_bits(block_integrals(params, two_n, mats, kind), expected)


def test_q_diag_and_qnum_read_the_weights_highest_first():
    params = Params(t=0.3)
    np.testing.assert_allclose(params.q_diag(2, 4.0), [params.lam**4, 1.0, params.lam**-4], rtol=1e-15)
    expected = [1.0, params.lam + 1.0 / params.lam, 1.0 + 2.0 * np.cosh(0.6)]
    np.testing.assert_allclose(params.qnum([1, 2, 3]), expected, rtol=1e-15)


def test_every_exponential_of_t_is_computed_in_params():
    """Outside ``params.py`` the one exponential is the random unit phase
    of ``reps/phase-twist`` in verify, which does not read t."""
    calls = []
    for path in sorted(Path(suq2.__file__).parent.glob("*.py")):
        if path.name != "params.py":
            pattern = r"\b(?:np|numpy|math|cmath)\.(?:exp|expm1|sinh|cosh)\([^)]*\)"
            calls += [(path.name, call) for call in re.findall(pattern, path.read_text())]
    assert calls == [("verify.py", "np.exp(1j * theta)")]

"""Irreducible representations: construction, identities, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suq2.params import Params
from suq2.reps import (
    build_rep,
    casimir_matrix,
    casimir_scalar,
    classify_by_highest_weight,
    evaluate,
    ladder_poly_coeffs,
    ladder_poly_matrix,
    relation_residuals,
)
from suq2.util import max_abs, weights
from suq2.words import AlgPoly, E, F, Gen, ONE, Q, QINV

PARAMS = Params(t=0.3)
LAM = PARAMS.lam


def test_trivial_representation_is_the_counit():
    rep = build_rep(PARAMS, 0)
    assert np.array_equal(rep.q, np.eye(1))
    assert np.array_equal(rep.e, np.zeros((1, 1)))
    assert np.array_equal(rep.f, np.zeros((1, 1)))


def test_spin_half_closed_form():
    rep = build_rep(PARAMS, 1)
    assert max_abs(rep.q - np.diag([LAM**0.5, LAM**-0.5])) < 1e-14
    assert np.allclose(rep.e, [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(rep.f, [[0.0, 0.0], [1.0, 0.0]])
    assert rep.r.shape == (1,) and abs(rep.r[0] - 1.0) < 1e-14


def test_spin_half_word_evaluation():
    rep = build_rep(PARAMS, 1)
    qe = evaluate(rep, Q * E)
    assert max_abs(qe - np.array([[0.0, LAM**0.5], [0.0, 0.0]])) < 1e-14


def test_spin_one_amplitudes():
    rep = build_rep(PARAMS, 2)
    v = LAM + 1.0 / LAM
    assert np.allclose(rep.r**2, [v, v])


def test_negative_sign_flips_q_only():
    plus = build_rep(PARAMS, 3, +1)
    minus = build_rep(PARAMS, 3, -1)
    assert np.array_equal(plus.q, -minus.q)
    assert np.array_equal(plus.e, minus.e)
    assert np.array_equal(plus.f, minus.f)


@pytest.mark.parametrize("two_n", range(0, 11))
@pytest.mark.parametrize("sign", [+1, -1])
def test_defining_relations(two_n, sign):
    rep = build_rep(PARAMS, two_n, sign)
    residuals = relation_residuals(PARAMS, rep.q, rep.q_inv, rep.e, rep.f)
    for law, value in residuals.items():
        assert value < 1e-10, f"{law} fails with residual {value}"


@pytest.mark.parametrize("two_n", range(0, 11))
def test_adjointness_is_exact(two_n):
    rep = build_rep(PARAMS, two_n)
    # e and f are real matrices that are exact transposes by construction
    assert np.array_equal(rep.e.conj().T, rep.f)


@pytest.mark.parametrize("two_n", range(1, 11))
def test_amplitudes_are_palindromic(two_n):
    rep = build_rep(PARAMS, two_n)
    assert np.max(np.abs(rep.r - rep.r[::-1])) < 1e-10
    assert np.all(rep.r > 0)


def test_amplitude_recursion_closes():
    # the increments telescope to zero over a full weight string
    for two_n in range(0, 11):
        total = PARAMS.c * np.sum(
            np.exp(PARAMS.t * weights(two_n)) - np.exp(-PARAMS.t * weights(two_n))
        )
        assert abs(total) < 1e-10


@pytest.mark.parametrize("two_n", range(0, 21))
def test_closed_form_amplitudes_solve_the_recursion(two_n):
    # r[i]^2 is the running sum of c (lam^(2j) - lam^(-2j)) over the weights
    # two_n, two_n - 2, ..., two_n - 2i; fsum keeps the reference exact up
    # to the rounding of its terms
    terms = [PARAMS.c * (np.exp(PARAMS.t * j) - np.exp(-PARAMS.t * j)) for j in weights(two_n)]
    expected = [math.fsum(terms[: i + 1]) for i in range(two_n)]
    scale = max(abs(x) for x in terms)
    assert max_abs(build_rep(PARAMS, two_n).r ** 2 - expected) < 1e-13 * max(scale, 1.0)


@pytest.mark.parametrize("t, two_n", [(0.3, 52), (0.5, 34), (0.3, 64)])
def test_amplitudes_are_positive_at_large_spin(t, two_n):
    # a cancelling running sum turned r^2 negative here
    rep = build_rep(Params(t=t), two_n)
    assert np.all(rep.r > 0)
    assert max_abs(rep.r - rep.r[::-1]) == 0.0


@pytest.mark.parametrize("two_n", range(0, 9))
@pytest.mark.parametrize("sign", [+1, -1])
def test_casimir_is_scalar(two_n, sign):
    rep = build_rep(PARAMS, two_n, sign)
    expected = casimir_scalar(PARAMS, two_n)
    cas = casimir_matrix(PARAMS, rep)
    assert max_abs(cas - expected * np.eye(rep.dim)) / abs(expected) < 1e-10


def test_casimir_is_sign_independent():
    for two_n in range(0, 6):
        plus = casimir_matrix(PARAMS, build_rep(PARAMS, two_n, +1))
        minus = casimir_matrix(PARAMS, build_rep(PARAMS, two_n, -1))
        assert np.allclose(plus, minus, atol=1e-13)


def test_ladder_coefficients_at_k_one():
    a, b = ladder_poly_coeffs(PARAMS, 1)
    assert abs(a - PARAMS.c) < 1e-14
    assert abs(b + PARAMS.c) < 1e-14


@pytest.mark.parametrize("two_n", range(0, 7))
def test_ladder_identity(two_n):
    rep = build_rep(PARAMS, two_n)
    f_pow = np.eye(rep.dim, dtype=complex)
    for k in range(1, two_n + 3):
        f_prev = f_pow
        f_pow = f_pow @ rep.f
        lhs = rep.e @ f_pow - f_pow @ rep.e
        rhs = f_prev @ ladder_poly_matrix(PARAMS, rep, k)
        assert max_abs(lhs - rhs) < 1e-9
    # beyond the nilpotency degree the power itself vanishes identically,
    # so the last identities checked above were the 0 = 0 cases
    assert max_abs(f_pow) == 0.0


def test_ladder_needs_positive_k():
    rep = build_rep(PARAMS, 2)
    with pytest.raises(ValueError):
        ladder_poly_coeffs(PARAMS, 0)


@pytest.mark.parametrize("two_n", range(0, 7))
@pytest.mark.parametrize("sign", [+1, -1])
def test_classification_round_trip(two_n, sign):
    rep = build_rep(PARAMS, two_n, sign)
    assert classify_by_highest_weight(PARAMS, rep.q, rep.e, rep.f) == (two_n, sign)


def _haar_conjugation(dim: int, seed: int):
    """m -> u m u* for a seeded Haar-random unitary u."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return lambda m: u @ m @ u.conj().T


@pytest.mark.parametrize("two_n", range(0, 7))
@pytest.mark.parametrize("sign", [+1, -1])
def test_classification_survives_unitary_conjugation(two_n, sign):
    rep = build_rep(PARAMS, two_n, sign)
    conj = _haar_conjugation(rep.dim, 12345 + two_n)
    assert classify_by_highest_weight(PARAMS, conj(rep.q), conj(rep.e), conj(rep.f)) == (
        two_n,
        sign,
    )


@pytest.mark.parametrize("t", [1e-8, 1e-6])
@pytest.mark.parametrize("two_n", range(0, 7))
@pytest.mark.parametrize("sign", [+1, -1])
def test_classification_near_the_classical_limit(t, two_n, sign):
    # neighbouring q-eigenvalues differ by about t / 2, so eigenvectors of a
    # conjugated q mix weights at t = 1e-8; ker e is still the top weight line
    params = Params(t=t)
    rep = build_rep(params, two_n, sign)
    assert classify_by_highest_weight(params, rep.q, rep.e, rep.f) == (two_n, sign)
    conj = _haar_conjugation(rep.dim, 12345 + two_n)
    assert classify_by_highest_weight(params, conj(rep.q), conj(rep.e), conj(rep.f)) == (
        two_n,
        sign,
    )


def test_classification_rejects_missing_highest_weight():
    # an e with trivial kernel cannot come from an irreducible
    q = np.diag([LAM**0.5, LAM**-0.5])
    e = np.eye(2)
    f = np.eye(2)
    with pytest.raises(ValueError, match="annihilated"):
        classify_by_highest_weight(PARAMS, q, e, f)


def test_classification_rejects_off_grid_eigenvalue():
    q = np.diag([1.37, 1.0 / 1.37])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="grid"):
        classify_by_highest_weight(PARAMS, q, e, e.T)


def test_classification_rejects_inconsistent_dimension():
    rep = build_rep(PARAMS, 4)
    # keep only a corner of the spin-2 block: highest weight survives,
    # but the dimension no longer matches
    cut = slice(0, 3)
    with pytest.raises(ValueError, match="dimension"):
        classify_by_highest_weight(PARAMS, rep.q[cut, cut], rep.e[cut, cut], rep.f[cut, cut])


def test_build_rep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_rep(PARAMS, -1)
    with pytest.raises(ValueError):
        build_rep(PARAMS, 2, 0)


def test_rescaled_generators_satisfy_unit_constant_relations():
    c = PARAMS.c
    for two_n in range(0, 6):
        rep = build_rep(PARAMS, two_n)
        e1 = rep.e / np.sqrt(c)
        f1 = rep.f / np.sqrt(c)
        target = rep.q @ rep.q - rep.q_inv @ rep.q_inv
        assert max_abs(e1 @ f1 - f1 @ e1 - target) < 1e-10


def test_phase_twist_is_a_star_automorphism():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        z = np.exp(1j * theta)
        rep = build_rep(PARAMS, 3)
        residuals = relation_residuals(PARAMS, rep.q, rep.q_inv, z * rep.e, np.conj(z) * rep.f)
        assert max(residuals.values()) < 1e-10


words_strategy = st.lists(st.sampled_from(list(Gen)), max_size=3).map(tuple)
polys_strategy = st.dictionaries(
    words_strategy, st.sampled_from([1.0, -1.0, 0.5, 1j]), min_size=1, max_size=3
).map(AlgPoly)


@settings(max_examples=40, deadline=None)
@given(polys_strategy, polys_strategy, st.integers(min_value=0, max_value=3))
def test_evaluation_is_multiplicative(x, y, two_n):
    rep = build_rep(PARAMS, two_n)
    lhs = evaluate(rep, x * y)
    rhs = evaluate(rep, x) @ evaluate(rep, y)
    assert max_abs(lhs - rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(polys_strategy, st.integers(min_value=0, max_value=3))
def test_evaluation_respects_star(x, two_n):
    rep = build_rep(PARAMS, two_n)
    assert max_abs(evaluate(rep, x.star()) - evaluate(rep, x).conj().T) < 1e-9


def test_evaluation_of_unit():
    rep = build_rep(PARAMS, 4)
    assert np.array_equal(evaluate(rep, ONE), np.eye(rep.dim))
    assert max_abs(evaluate(rep, Q * QINV) - np.eye(rep.dim)) < 1e-13

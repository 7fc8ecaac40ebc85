"""Formal word layer: free *-algebra with coproduct, counit, antipode."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from suq2.words import (
    AlgPoly,
    E,
    F,
    Gen,
    ONE,
    Q,
    QINV,
    TensorPoly,
    coproduct_leg,
    formal_antipode,
    formal_coproduct,
    formal_counit,
)

LAM = math.exp(0.3)

words_strategy = st.lists(st.sampled_from(list(Gen)), max_size=4).map(tuple)
polys_strategy = st.dictionaries(
    words_strategy,
    st.sampled_from([1.0, -1.0, 2.0, 0.5, 1j, -0.5]),
    min_size=1,
    max_size=3,
).map(AlgPoly)


def test_coproduct_on_letters():
    assert formal_coproduct(Q) == TensorPoly({((Gen.Q,), (Gen.Q,)): 1.0})
    de = formal_coproduct(E)
    assert de == TensorPoly({((Gen.Q,), (Gen.E,)): 1.0, ((Gen.E,), (Gen.QINV,)): 1.0})
    df = formal_coproduct(F)
    assert df == TensorPoly({((Gen.Q,), (Gen.F,)): 1.0, ((Gen.F,), (Gen.QINV,)): 1.0})


def test_coproduct_of_ef_has_four_terms():
    tp = formal_coproduct(E * F)
    expected = TensorPoly(
        {
            ((Gen.Q, Gen.Q), (Gen.E, Gen.F)): 1.0,
            ((Gen.Q, Gen.F), (Gen.E, Gen.QINV)): 1.0,
            ((Gen.E, Gen.Q), (Gen.QINV, Gen.F)): 1.0,
            ((Gen.E, Gen.F), (Gen.QINV, Gen.QINV)): 1.0,
        }
    )
    assert (tp - expected).max_abs_coeff() == 0.0


def test_counit_values():
    assert formal_counit(Q) == 1.0
    assert formal_counit(QINV) == 1.0
    assert formal_counit(E) == 0.0
    assert formal_counit(F) == 0.0
    assert formal_counit(Q * QINV) == 1.0
    assert formal_counit(Q * E * F) == 0.0
    assert formal_counit(ONE) == 1.0


def test_antipode_on_letters():
    assert (formal_antipode(Q, LAM) - QINV).max_abs_coeff() == 0.0
    assert (formal_antipode(E, LAM) + (1.0 / LAM) * E).max_abs_coeff() == 0.0
    assert (formal_antipode(F, LAM) + LAM * F).max_abs_coeff() == 0.0


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_formal_antipode_is_the_letter_table_fold_on_every_short_word(t):
    """S(w) is the product of the letter images in reverse order, on every
    word of length at most 3, coefficients exactly equal."""
    lam = math.exp(t)
    image = {Gen.Q: QINV, Gen.QINV: Q, Gen.E: (-1.0 / lam) * E, Gen.F: (-lam) * F}
    for length in range(4):
        for word in itertools.product(list(Gen), repeat=length):
            expected = ONE
            for g in reversed(word):
                expected = expected * image[g]
            assert formal_antipode(AlgPoly.from_word(*word), lam).terms == expected.terms, word


def test_antipode_of_ef_is_fe():
    # S(ef) = S(f) S(e) = (-lam f)(-e/lam) = fe, with the scalars cancelling
    s = formal_antipode(E * F, LAM)
    assert (s - F * E).max_abs_coeff() < 1e-12


def test_star_reverses_and_swaps():
    assert (Q * E).star() == F * Q
    assert (E * F).star() == E * F
    assert (Q * E * F).star() == E * F * Q
    assert ((2.0 + 1j) * E).star() == (2.0 - 1j) * F


def test_star_is_involutive_on_scalar_combos():
    x = 2.0 * Q * E - 1j * F + 0.5 * ONE
    assert x.star().star() == x


@settings(max_examples=60, deadline=None)
@given(polys_strategy)
def test_coproduct_is_coassociative(x):
    tp = formal_coproduct(x)
    lhs = coproduct_leg(tp, 0).terms
    rhs = coproduct_leg(tp, 1).terms
    for key in lhs.keys() | rhs.keys():
        assert abs(lhs.get(key, 0.0) - rhs.get(key, 0.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(polys_strategy)
def test_counit_laws(x):
    tp = formal_coproduct(x)
    left = AlgPoly()
    right = AlgPoly()
    for (w1, w2), coeff in tp.terms.items():
        left = left + AlgPoly({w2: coeff * formal_counit(AlgPoly({w1: 1.0}))})
        right = right + AlgPoly({w1: coeff * formal_counit(AlgPoly({w2: 1.0}))})
    assert (left - x).max_abs_coeff() < 1e-12
    assert (right - x).max_abs_coeff() < 1e-12


@settings(max_examples=60, deadline=None)
@given(polys_strategy, polys_strategy)
def test_coproduct_is_multiplicative(x, y):
    assert (
        formal_coproduct(x * y) - formal_coproduct(x) * formal_coproduct(y)
    ).max_abs_coeff() < 1e-12


@settings(max_examples=60, deadline=None)
@given(polys_strategy, polys_strategy)
def test_counit_is_multiplicative(x, y):
    assert abs(formal_counit(x * y) - formal_counit(x) * formal_counit(y)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(polys_strategy, polys_strategy)
def test_antipode_is_antimultiplicative(x, y):
    lhs = formal_antipode(x * y, LAM)
    rhs = formal_antipode(y, LAM) * formal_antipode(x, LAM)
    assert (lhs - rhs).max_abs_coeff() < 1e-9


@settings(max_examples=60, deadline=None)
@given(polys_strategy)
def test_antipode_star_round_trip(x):
    # S o * is involutive: S(S(x)*)* = x
    round_trip = formal_antipode(formal_antipode(x, LAM).star(), LAM).star()
    assert (round_trip - x).max_abs_coeff() < 1e-9


@settings(max_examples=60, deadline=None)
@given(polys_strategy)
def test_counit_of_antipode(x):
    assert abs(formal_counit(formal_antipode(x, LAM)) - formal_counit(x)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(polys_strategy, polys_strategy)
def test_star_is_antimultiplicative(x, y):
    assert ((x * y).star() - y.star() * x.star()).max_abs_coeff() < 1e-12


def test_poly_arithmetic_prunes_zeros():
    x = E - E
    assert x == AlgPoly()
    assert x.max_abs_coeff() == 0.0
    tp = formal_coproduct(E) - formal_coproduct(E)
    assert tp.max_abs_coeff() == 0.0


def test_counit_of_tensor_legs_matches_coproduct_leg_shapes():
    tp = formal_coproduct(Q * E)
    legs = coproduct_leg(tp, 0)
    # every key is a pair of words joined with a third leg
    assert legs.terms and all(len(key) == 3 for key in legs.terms)


def test_three_leg_tensor_product_and_star_act_legwise():
    x = TensorPoly({((Gen.Q,), (Gen.E,), ()): 2.0, ((), (Gen.F,), (Gen.QINV,)): 1j})
    y = TensorPoly({((Gen.E,), (), (Gen.F, Gen.Q)): 3.0})
    assert (x * y).terms == {
        ((Gen.Q, Gen.E), (Gen.E,), (Gen.F, Gen.Q)): 6.0,
        ((Gen.E,), (Gen.F,), (Gen.QINV, Gen.F, Gen.Q)): 3j,
    }
    assert x.star().terms == {((Gen.Q,), (Gen.F,), ()): 2.0, ((), (Gen.E,), (Gen.QINV,)): -1j}
    assert (x * y).star() == y.star() * x.star()


def letterwise_fold(x):
    """D(x) folded letter by letter from each word's coefficient, with no
    memoized prefix: the reference for the cached word coproducts."""
    letter = {g: formal_coproduct(AlgPoly({(g,): 1.0})) for g in Gen}
    total = TensorPoly()
    for word, coeff in x.terms.items():
        term = TensorPoly({((), ()): coeff})
        for g in word:
            term = term * letter[g]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(polys_strategy)
def test_memoized_coproduct_is_the_letterwise_fold(x):
    reference = letterwise_fold(x)
    tp = formal_coproduct(x)
    assert list(tp.terms) == list(reference.terms)
    assert tp.terms == reference.terms


def test_editing_a_coproduct_leaves_later_ones_unchanged():
    for x in (E, E * F, Q * E * F + 2.0 * QINV):
        first = formal_coproduct(x)
        expected = dict(first.terms)
        key = next(iter(first.terms))
        first.terms[key] = 99.0
        first.terms[((Gen.F,), (Gen.F,))] = 1.0
        assert formal_coproduct(x).terms == expected
        # a longer word reuses the edited one's prefix
        assert formal_coproduct(x * F) == letterwise_fold(x * F)
        first.terms.clear()
        assert formal_coproduct(x).terms == expected
    legs = coproduct_leg(formal_coproduct(E * F), 0)
    legs.terms.clear()
    assert coproduct_leg(formal_coproduct(E * F), 0).terms

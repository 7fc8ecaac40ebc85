"""Compact dual: pairing, product, antipode, star, Haar state, spanning."""

import numpy as np
import pytest

from suq2 import dual
from suq2.discrete import (
    AlgElement,
    antipode,
    antipode_block,
    antipode_inv,
    antipode_inv_block,
    matrix_unit,
    modular_element_block,
)
from suq2.dual import (
    DualElement,
    U_LABELS,
    dual_antipode,
    dual_antipode_inv,
    dual_counit,
    dual_haar,
    dual_modular,
    dual_modular_inv,
    dual_mul,
    dual_star,
    dual_unit,
    pair,
    span_check,
    u_entries,
    u_entry,
    unitarity_residuals,
    woronowicz_residuals,
)
from suq2.params import Params
from suq2.reps import build_rep
from suq2.verify import (
    dual_antipode_expected,
    dual_coproduct_residual,
    dual_haar_quadratic_expected,
)

PARAMS = Params(t=0.3)
LAM = PARAMS.lam


def test_pairing_against_spin_half_generators():
    half = build_rep(PARAMS, 1)
    table_q = np.array(
        [[pair(AlgElement({1: half.q}), u_entry(i, j)) for j in U_LABELS] for i in U_LABELS]
    )
    assert np.allclose(table_q, np.diag([LAM**0.5, LAM**-0.5]), atol=1e-13)
    table_e = np.array(
        [[pair(AlgElement({1: half.e}), u_entry(i, j)) for j in U_LABELS] for i in U_LABELS]
    )
    assert np.allclose(table_e, [[0.0, 1.0], [0.0, 0.0]], atol=1e-13)
    table_f = np.array(
        [[pair(AlgElement({1: half.f}), u_entry(i, j)) for j in U_LABELS] for i in U_LABELS]
    )
    assert np.allclose(table_f, [[0.0, 0.0], [1.0, 0.0]], atol=1e-13)


def test_pairing_with_unit_is_counit_of_dual():
    one = dual_unit()
    assert pair(matrix_unit(0, 0, 0), one) == 1.0
    assert pair(matrix_unit(2, 0, 0), one) == 0.0


def test_dual_unit_laws():
    one = dual_unit()
    for u in u_entries().values():
        assert (dual_mul(PARAMS, one, u) - u).norm() < 1e-12
        assert (dual_mul(PARAMS, u, one) - u).norm() < 1e-12


def test_dual_counit_values():
    assert dual_counit(dual_unit()) == 1.0
    for (i, j), u in u_entries().items():
        expected = 1.0 if i == j else 0.0
        assert abs(dual_counit(u) - expected) < 1e-14


def test_dual_counit_is_multiplicative_on_u():
    for (i, j), u in u_entries().items():
        for (k, l), w in u_entries().items():
            prod = dual_mul(PARAMS, u, w)
            assert abs(dual_counit(prod) - dual_counit(u) * dual_counit(w)) < 1e-12


def test_matrix_coefficient_coproduct_law():
    assert dual_coproduct_residual(PARAMS) < 1e-11


def test_dual_product_is_associative():
    rng = np.random.default_rng(20)
    entries = list(u_entries().values())
    x = DualElement()
    for coeff, u in zip(rng.standard_normal(4) + 1j * rng.standard_normal(4), entries):
        x = x + coeff * u
    y = dual_mul(PARAMS, entries[0], entries[3]) + entries[1]
    z = entries[2] + 0.5 * dual_unit()
    lhs = dual_mul(PARAMS, dual_mul(PARAMS, x, y), z)
    rhs = dual_mul(PARAMS, x, dual_mul(PARAMS, y, z))
    assert (lhs - rhs).norm() < 1e-11


def test_dual_antipode_table():
    for i in U_LABELS:
        for j in U_LABELS:
            factor, (ti, tj) = dual_antipode_expected(PARAMS, i, j)
            image = dual_antipode(PARAMS, u_entry(i, j))
            assert (image - factor * u_entry(ti, tj)).norm() < 1e-12
    # spelled out: diagonal entries swap, off-diagonal entries rescale
    assert (dual_antipode(PARAMS, u_entry(1, 1)) - u_entry(-1, -1)).norm() < 1e-12
    assert (dual_antipode(PARAMS, u_entry(-1, -1)) - u_entry(1, 1)).norm() < 1e-12
    assert (dual_antipode(PARAMS, u_entry(1, -1)) + LAM * u_entry(1, -1)).norm() < 1e-12
    assert (dual_antipode(PARAMS, u_entry(-1, 1)) + (1.0 / LAM) * u_entry(-1, 1)).norm() < 1e-12


def test_dual_antipode_squared_and_inverse():
    for (i, j), u in u_entries().items():
        assert (dual_antipode_inv(PARAMS, dual_antipode(PARAMS, u)) - u).norm() < 1e-12
        twice = dual_antipode(PARAMS, dual_antipode(PARAMS, u))
        assert (twice - PARAMS.lam_pow(2 * (i - j)) * u).norm() < 1e-12


def test_dual_star_structure():
    alpha = u_entry(1, 1)
    gamma = u_entry(-1, 1)
    # u* = S(u) transposed entrywise
    for (i, j), u in u_entries().items():
        assert (dual_star(PARAMS, u) - dual_antipode(PARAMS, u_entry(j, i))).norm() < 1e-12
    assert (dual_star(PARAMS, alpha) - u_entry(-1, -1)).norm() < 1e-12
    assert (u_entry(1, -1) + (1.0 / LAM) * dual_star(PARAMS, gamma)).norm() < 1e-12
    x = alpha + 1j * gamma
    assert (dual_star(PARAMS, dual_star(PARAMS, x)) - x).norm() < 1e-12


def test_dual_star_is_antimultiplicative():
    alpha = u_entry(1, 1)
    gamma = u_entry(-1, 1)
    lhs = dual_star(PARAMS, dual_mul(PARAMS, alpha, gamma))
    rhs = dual_mul(PARAMS, dual_star(PARAMS, gamma), dual_star(PARAMS, alpha))
    assert (lhs - rhs).norm() < 1e-11


def test_unitarity_of_the_fundamental_matrix():
    for law, value in unitarity_residuals(PARAMS).items():
        assert value < 1e-11, law


def test_commutation_relations():
    for law, value in woronowicz_residuals(PARAMS).items():
        assert value < 1e-9, law


def test_u_entries_are_fresh_objects():
    """Mutating a returned entry leaves later entries and the relations alone."""
    expected = woronowicz_residuals(PARAMS)
    entry = u_entry(1, 1)
    entry.blocks[1][0, 0] = 2.0
    assert u_entry(1, 1) is not entry
    np.testing.assert_array_equal(u_entry(1, 1).blocks[1], [[1.0, 0.0], [0.0, 0.0]])
    assert woronowicz_residuals(PARAMS) == expected
    assert woronowicz_residuals(PARAMS)["alpha* alpha + gamma* gamma = 1"] < 1e-15


def test_haar_state_values():
    assert abs(dual_haar(dual_unit()) - 1.0) < 1e-14
    for u in u_entries().values():
        assert abs(dual_haar(u)) < 1e-14


def test_haar_state_on_quadratics():
    for k in U_LABELS:
        for l in U_LABELS:
            for i in U_LABELS:
                for j in U_LABELS:
                    prod = dual_mul(PARAMS, u_entry(k, l), u_entry(i, j))
                    expected = dual_haar_quadratic_expected(PARAMS, k, l, i, j)
                    assert abs(dual_haar(prod) - expected) < 1e-11


def test_haar_state_is_antipode_invariant():
    for k in U_LABELS:
        for l in U_LABELS:
            for i in U_LABELS:
                for j in U_LABELS:
                    b = dual_mul(PARAMS, u_entry(k, l), u_entry(i, j))
                    assert abs(dual_haar(dual_antipode(PARAMS, b)) - dual_haar(b)) < 1e-11


def test_haar_state_left_invariance_on_quadratics():
    one = dual_unit()
    for i in U_LABELS:
        for j in U_LABELS:
            for k in U_LABELS:
                for l in U_LABELS:
                    target = dual_haar(dual_mul(PARAMS, u_entry(i, j), u_entry(k, l))) * one
                    acc = DualElement()
                    for r in U_LABELS:
                        for s in U_LABELS:
                            w = dual_haar(dual_mul(PARAMS, u_entry(r, j), u_entry(s, l)))
                            if w != 0:
                                acc = acc + w * dual_mul(PARAMS, u_entry(i, r), u_entry(k, s))
                    assert (acc - target).norm() < 1e-9


def test_modular_twist_of_the_haar_state():
    # the Haar state is a twisted trace: haar(x y) = haar(y sigma(x))
    entries = list(u_entries().values())
    for x in entries:
        sx = dual_modular(PARAMS, x)
        for y in entries:
            lhs = dual_haar(dual_mul(PARAMS, x, y))
            rhs = dual_haar(dual_mul(PARAMS, y, sx))
            assert abs(lhs - rhs) < 1e-11


def test_dual_modular_automorphism_eigenvalues():
    for (p, q), u in u_entries().items():
        expected = PARAMS.lam_pow(2 * (p + q)) * u
        assert (dual_modular(PARAMS, u) - expected).norm() < 1e-12
        assert (dual_modular_inv(PARAMS, dual_modular(PARAMS, u)) - u).norm() < 1e-12


def test_dual_modular_respects_star():
    for u in u_entries().values():
        lhs = dual_modular(PARAMS, dual_star(PARAMS, u))
        rhs = dual_star(PARAMS, dual_modular_inv(PARAMS, u))
        assert (lhs - rhs).norm() < 1e-12


def test_haar_is_modular_invariant():
    for u in u_entries().values():
        for w in u_entries().values():
            b = dual_mul(PARAMS, u, w)
            assert abs(dual_haar(dual_modular(PARAMS, b)) - dual_haar(b)) < 1e-11


def test_span_ranks_are_complete():
    report = span_check(PARAMS, 2)
    for two_k, entry in report.items():
        assert entry["rank"] == entry["expected"] == (two_k + 1) ** 2
        assert entry["gap"] >= 1e-6


def reference_span_check(params: Params, two_k_max: int) -> dict:
    """The span check by enumeration: all 4^L products of L u-entries, for
    every L <= two_k_max, stacked per block."""
    entries = list(u_entries().values())
    products = [dual_unit()]
    layer = [dual_unit()]
    for _ in range(two_k_max):
        layer = [dual_mul(params, p, u) for p in layer for u in entries]
        products.extend(layer)
    report = {}
    for two_k in range(two_k_max + 1):
        stack = np.array([p.blocks[two_k].reshape(-1) for p in products if two_k in p.blocks])
        sing = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(sing > params.tol_rel * float(sing[0])))
        report[two_k] = {"rank": rank, "expected": (two_k + 1) ** 2, "gap": float(sing[rank - 1])}
    return report


SPAN_CASES = [(t, cap) for t in (1e-8, 1e-5, 0.3, 2.0, 10.0, 50.0) for cap in range(5)]
SPAN_CASES += [(t, cap) for t in (0.3, 2.0) for cap in (5, 6)]


@pytest.mark.parametrize("t, two_k_max", SPAN_CASES)
def test_layered_span_matches_the_enumerated_products(t, two_k_max):
    # the layers keep the Gram matrix of the enumerated products, so the
    # ranks agree and so do the singular values, up to roundoff
    params = Params(t=t)
    got = span_check(params, two_k_max)
    expected = reference_span_check(params, two_k_max)
    assert list(got) == list(expected) == list(range(two_k_max + 1))
    for two_k in expected:
        assert got[two_k]["rank"] == expected[two_k]["rank"] == (two_k + 1) ** 2
        assert got[two_k]["expected"] == expected[two_k]["expected"]
        assert min(got[two_k]["gap"], expected[two_k]["gap"]) >= 1e-6
        assert got[two_k]["gap"] == pytest.approx(expected[two_k]["gap"], rel=1e-12)


@pytest.mark.parametrize("t", (0.3, 2.0, 5.0))
def test_span_has_full_rank_at_cap_eight(t):
    report = span_check(Params(t=t), 8)
    assert [entry["rank"] for entry in report.values()] == [(k + 1) ** 2 for k in range(9)]
    assert all(entry["gap"] >= 1e-6 for entry in report.values())


def test_span_multiplies_only_the_layer_bases(monkeypatch):
    # 4^1 + ... + 4^6 = 5460 products by enumeration; the layer of length L
    # keeps (L + 1)(L + 2)(L + 3)/6 rows, the dimension of blocks L, L - 2,
    # ..., and each is multiplied by the four entries: 504 <= 784, the bound
    # of one basis of every block up to L
    calls = []

    def counting(params, x, y):
        calls.append(1)
        return dual_mul(params, x, y)

    monkeypatch.setattr(dual, "dual_mul", counting)
    span_check(PARAMS, 6)
    assert len(calls) == 4 * sum((n + 1) * (n + 2) * (n + 3) // 6 for n in range(6)) == 504


def test_dual_element_arithmetic():
    a = u_entry(1, 1)
    b = u_entry(-1, -1)
    assert ((a + b) - a - b).norm() < 1e-14
    assert ((2.0 * a) - a - a).norm() < 1e-14
    assert (a - a).norm() == 0.0
    assert dual_unit().support == [0]


def test_pairing_is_bilinear():
    a = matrix_unit(1, 1, -1)
    b = u_entry(1, -1)
    assert abs(pair(2.0 * a, b) - 2.0 * pair(a, b)) < 1e-14
    assert abs(pair(a, 2.0 * b) - 2.0 * pair(a, b)) < 1e-14


# ---------------------------------------------------------------------------
# closed-form dual maps against the matrix-unit probe and the pairing laws
# ---------------------------------------------------------------------------

REFERENCE_TS = (0.1, 0.3, 1.0, 2.0)
REFERENCE_SPINS = range(0, 17)  # spin <= 8
# float64 roundoff of a few entrywise products, with headroom; fixed
# before the comparison was first run
REFERENCE_REL_TOL = 1e-13


def _random_blocks(rng, two_ns) -> dict:
    return {n: rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1)) for n in two_ns}


def _probe_transpose(b: DualElement, block_map) -> DualElement:
    """Transpose of a blockwise linear map under the pairing, one matrix
    unit at a time: result[r, s] = <block_map(e_(r,s)), b>.  O(dim^4)."""
    out = {}
    for two_n, coeff in b.blocks.items():
        dim = two_n + 1
        new = np.zeros((dim, dim), dtype=complex)
        unit = np.zeros((dim, dim), dtype=complex)
        for r in range(dim):
            for s in range(dim):
                unit[r, s] = 1.0
                new[r, s] = np.sum(block_map(two_n, unit) * coeff)
                unit[r, s] = 0.0
        out[two_n] = new
    return DualElement(out)


def _probe(params, name, b):
    """The dual map ``name`` of b from its defining pairing law."""
    s_blk = lambda n, m: antipode_block(params, n, m)  # noqa: E731
    s_inv = lambda n, m: antipode_inv_block(params, n, m)  # noqa: E731
    delta = lambda n: modular_element_block(params, n)  # noqa: E731
    if name == "antipode":
        return _probe_transpose(b, s_inv)
    if name == "antipode_inv":
        return _probe_transpose(b, s_blk)
    if name == "star":
        # (b*)[r, s] = conj(<S(e_(r,s)*), b>) with e_(r,s)* = e_(s,r)
        probed = _probe_transpose(b, lambda n, m: s_blk(n, m.T))
        return DualElement({n: m.conj() for n, m in probed.blocks.items()})
    if name == "modular":
        return _probe_transpose(b, lambda n, m: s_inv(n, s_inv(n, m)) @ delta(n))
    if name == "modular_inv":
        return _probe_transpose(
            b, lambda n, m: s_blk(n, s_blk(n, m @ np.diag(1.0 / np.diag(delta(n)))))
        )
    raise ValueError(name)


DUAL_MAPS = {
    "antipode": dual_antipode,
    "antipode_inv": dual_antipode_inv,
    "star": dual_star,
    "modular": dual_modular,
    "modular_inv": dual_modular_inv,
}


@pytest.mark.parametrize("t", REFERENCE_TS)
@pytest.mark.parametrize("name", sorted(DUAL_MAPS))
def test_closed_form_dual_maps_match_the_matrix_unit_probe(t, name):
    params = Params(t=t)
    b = DualElement(_random_blocks(np.random.default_rng(31), REFERENCE_SPINS))
    got = DUAL_MAPS[name](params, b)
    ref = _probe(params, name, b)
    assert got.support == ref.support == list(REFERENCE_SPINS)
    for two_n in ref.support:
        diff = np.abs(got.blocks[two_n] - ref.blocks[two_n])
        assert np.all(diff <= REFERENCE_REL_TOL * np.abs(ref.blocks[two_n])), (name, t, two_n)


def _pairing_gap(lhs_a, lhs_b, rhs_a, rhs_b, conjugate=False):
    """|<lhs_a, lhs_b> - <rhs_a, rhs_b>| over the sum of absolute terms."""
    lhs = pair(lhs_a, lhs_b)
    rhs = pair(rhs_a, rhs_b)
    if conjugate:
        rhs = np.conj(rhs)
    scale = sum(
        np.sum(np.abs(rhs_a.blocks[n] * rhs_b.blocks[n]))
        for n in rhs_a.blocks.keys() & rhs_b.blocks.keys()
    )
    return abs(lhs - rhs) / scale


@pytest.mark.parametrize("t", REFERENCE_TS)
def test_dual_maps_satisfy_their_pairing_laws(t):
    params = Params(t=t)
    rng = np.random.default_rng(32)
    a = AlgElement(_random_blocks(rng, REFERENCE_SPINS))
    b = DualElement(_random_blocks(rng, REFERENCE_SPINS))
    delta = AlgElement({n: modular_element_block(params, n) for n in REFERENCE_SPINS})
    delta_inv = AlgElement({n: np.linalg.inv(modular_element_block(params, n)) for n in REFERENCE_SPINS})
    s_inv_sq_a = antipode_inv(params, antipode_inv(params, a))
    s_sq_a_delta_inv = antipode(params, antipode(params, a * delta_inv))
    gaps = {
        "<a, S(b)> = <S^-1(a), b>": _pairing_gap(a, dual_antipode(params, b), antipode_inv(params, a), b),
        "<a, S^-1(b)> = <S(a), b>": _pairing_gap(a, dual_antipode_inv(params, b), antipode(params, a), b),
        "<a, b*> = conj(<S(a*), b>)": _pairing_gap(
            a, dual_star(params, b), antipode(params, a.star()), b, conjugate=True
        ),
        "<a, sigma(b)> = <S^-2(a) delta, b>": _pairing_gap(a, dual_modular(params, b), s_inv_sq_a * delta, b),
        "<a, sigma^-1(b)> = <S^2(a delta^-1), b>": _pairing_gap(
            a, dual_modular_inv(params, b), s_sq_a_delta_inv, b
        ),
    }
    for law, gap in gaps.items():
        assert gap <= REFERENCE_REL_TOL, (law, t, gap)

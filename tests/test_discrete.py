"""Direct sum algebra: coproduct, antipode, scaling group, integrals."""

import functools

import numpy as np
import pytest

from suq2.discrete import (
    AlgElement,
    BiElement,
    antipode,
    antipode_block,
    antipode_inv,
    antipode_inv_block,
    block_integrals,
    cointegral,
    cointegral_coproduct,
    conjugate_unitary,
    coproduct_component,
    coproduct_window,
    counit,
    embed,
    integral_weights,
    invariant_vector,
    left_integral,
    matrix_unit,
    modular_automorphism,
    modular_element_block,
    one_window,
    quantum_dimension,
    right_integral,
    scaling,
    scaling_block,
    scaling_imag,
    unitary_antipode,
    unitary_antipode_block,
)
from suq2.dual import DualElement
from suq2.params import Params
from suq2.reps import build_rep, evaluate
from suq2.util import max_abs, weights
from suq2.verify import (
    antipode_law_residuals,
    coassociativity_residuals,
    invariance_residuals,
    modular_certificate_residual,
    symmetry_residuals,
)
from suq2.words import E, F, Q, QINV, formal_antipode
from test_kernels import signed_flip_matrix

PARAMS = Params(t=0.3)
LAM = PARAMS.lam
WINDOW = list(range(0, 5))


def _random_element(seed, two_ns=WINDOW):
    rng = np.random.default_rng(seed)
    return AlgElement(
        {
            two_n: rng.standard_normal((two_n + 1, two_n + 1))
            + 1j * rng.standard_normal((two_n + 1, two_n + 1))
            for two_n in two_ns
        }
    )


def test_embed_evaluates_blockwise():
    a = embed(PARAMS, E * F, WINDOW)
    for two_n in WINDOW:
        rep = build_rep(PARAMS, two_n)
        assert max_abs(a.block(two_n) - evaluate(rep, E * F)) < 1e-13


def test_counit_reads_the_trivial_block():
    assert counit(one_window(WINDOW)) == 1.0
    assert counit(embed(PARAMS, E, WINDOW)) == 0.0
    assert counit(matrix_unit(0, 0, 0)) == 1.0
    assert counit(matrix_unit(2, 0, 0)) == 0.0


def test_algebra_operations():
    a = _random_element(1)
    b = _random_element(2)
    assert ((a + b) - b - a).norm() < 1e-12
    assert ((2.0 * a) - a - a).norm() < 1e-12
    assert (a * one_window(WINDOW) - a).norm() < 1e-12
    assert ((a * b).star() - b.star() * a.star()).norm() < 1e-12
    assert (a.star().star() - a).norm() == 0.0


def test_matrix_unit_multiplication_table():
    e12 = matrix_unit(2, 2, 0)
    e23 = matrix_unit(2, 0, -2)
    e13 = matrix_unit(2, 2, -2)
    assert (e12 * e23 - e13).norm() == 0.0
    assert (e23 * e12).norm() == 0.0


def test_coproduct_component_against_tensor_evaluation():
    # embedding then decomposing must agree with evaluating on the product
    from suq2.clebsch import tensor_rep
    from suq2.reps import evaluate_in

    a = embed(PARAMS, Q * E * F, list(range(0, 9)))
    for two_n in range(0, 4):
        for two_m in range(0, 4):
            left = build_rep(PARAMS, two_n)
            right = build_rep(PARAMS, two_m)
            trep = tensor_rep(left, right)
            direct = evaluate_in(trep.gen_matrices, Q * E * F, trep.dim)
            assert max_abs(coproduct_component(PARAMS, a, two_n, two_m) - direct) < 1e-10


@pytest.mark.parametrize("two_n", range(0, 7))
def test_coproduct_component_matches_the_per_spin_sum(two_n):
    # reference: sum_k V_k a_k V_k* over the dense isometries, spin by spin
    from suq2.clebsch import decompose, index_set

    rng = np.random.default_rng(two_n)
    for two_m in range(0, 7):
        ks = index_set(two_n, two_m)
        dec = decompose(PARAMS, two_n, two_m)
        dim = (two_n + 1) * (two_m + 1)
        for support in (ks, ks[:1], ks[-1:], ks[::2], [two_n + two_m + 2]):
            a = AlgElement(
                {k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
                 for k in support}
            )
            expected = np.zeros((dim, dim), dtype=complex)
            for k in set(support) & set(ks):
                v = dec.piece(k).v
                expected += v @ a.blocks[k] @ v.conj().T
            assert max_abs(coproduct_component(PARAMS, a, two_n, two_m) - expected) < 1e-12


def test_coproduct_window_collects_blocks():
    a = matrix_unit(2, 0, 0)
    pairs = [(1, 1), (2, 0), (0, 2)]
    window = coproduct_window(PARAMS, a, pairs)
    for two_n, two_m in pairs:
        assert window.block(two_n, two_m).shape == ((two_n + 1) * (two_m + 1),) * 2


@pytest.mark.parametrize("two_m", range(0, 4))
def test_counit_laws_on_battery(two_m):
    """D(a)_(0,m) and D(a)_(m,0) are the block a_m itself."""
    for a in [_random_element(3), embed(PARAMS, E * F, WINDOW), matrix_unit(2, 2, -2)]:
        for pair in ((0, two_m), (two_m, 0)):
            assert max_abs(coproduct_component(PARAMS, a, *pair) - a.block(two_m)) < 1e-9


@pytest.mark.parametrize("two_n", range(0, 4))
def test_antipode_laws_on_battery(two_n):
    battery = [_random_element(4), embed(PARAMS, Q * E, WINDOW), matrix_unit(1, 1, -1)]
    assert antipode_law_residuals(PARAMS, battery, [two_n]).max() < 1e-9


def test_coassociativity_on_battery():
    a = _random_element(5, [0, 1, 2, 3])
    assert coassociativity_residuals(PARAMS, [a], range(3)).max() < 1e-9


def test_coproduct_is_multiplicative_and_star_compatible():
    a = _random_element(6)
    b = _random_element(7)
    for two_n in range(0, 3):
        for two_m in range(0, 3):
            left = coproduct_component(PARAMS, a * b, two_n, two_m)
            right = coproduct_component(PARAMS, a, two_n, two_m) @ coproduct_component(
                PARAMS, b, two_n, two_m
            )
            assert max_abs(left - right) < 1e-9
            star = coproduct_component(PARAMS, a.star(), two_n, two_m)
            assert max_abs(star - coproduct_component(PARAMS, a, two_n, two_m).conj().T) < 1e-9


def test_conjugate_unitary_squares_to_parity():
    for two_n in range(0, 5):
        signs = conjugate_unitary(two_n)
        assert signs.dtype == float and not signs.flags.writeable
        basis = np.eye(two_n + 1, dtype=complex)
        parity = (-1.0) ** two_n
        assert np.array_equal(signs * signs[::-1], np.full(two_n + 1, parity))
        # the flip G v = (signs * conj(v))[::-1] = P conj(v), applied twice
        p = signed_flip_matrix(two_n)
        for i in range(two_n + 1):
            once = (signs * np.conj(basis[i]))[::-1]
            assert np.array_equal(once, p @ np.conj(basis[i]))
            assert max_abs((signs * np.conj(once))[::-1] - parity * basis[i]) < 1e-14
        # unitary as a matrix: columns orthonormal
        assert max_abs(p.conj().T @ p - np.eye(two_n + 1)) < 1e-14


def test_unitary_antipode_block_is_the_signed_flip_sandwich():
    rng = np.random.default_rng(11)
    for two_n in range(0, 17):
        dim = two_n + 1
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p = signed_flip_matrix(two_n)
        assert np.array_equal(unitary_antipode_block(two_n, mat), p.T @ mat.T @ p)


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
@pytest.mark.parametrize("lead", [(5,), (2, 3)])
def test_block_maps_act_on_stacks_as_on_each_block(t, lead):
    """R, S and S^-1 on a stack of blocks in the last two axes give each
    block's own result bit for bit."""
    params = Params(t=t)
    rng = np.random.default_rng(23)
    maps = {
        "R": unitary_antipode_block,
        "S": lambda two_n, mat: antipode_block(params, two_n, mat),
        "S^-1": lambda two_n, mat: antipode_inv_block(params, two_n, mat),
    }
    for two_n in range(9):
        shape = lead + (two_n + 1, two_n + 1)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for name, block_map in maps.items():
            each = np.array([block_map(two_n, mat) for mat in stack.reshape((-1,) + shape[-2:])]).reshape(shape)
            assert np.array_equal(block_map(two_n, stack), each), (name, two_n)


@pytest.mark.parametrize("bad", ["3", None, 2.0, -1])
def test_weights_rejects_bad_doubled_spin(bad):
    with pytest.raises(ValueError, match="nonnegative integer"):
        weights(bad)


def test_unitary_antipode_closed_form_on_matrix_units():
    for two_n in range(0, 4):
        for two_r in weights(two_n):
            for two_s in weights(two_n):
                image = unitary_antipode(matrix_unit(two_n, two_r, two_s))
                sign = (-1.0) ** ((two_s - two_r) // 2)
                expected = sign * matrix_unit(two_n, -two_s, -two_r)
                assert (image - expected).norm() < 1e-13


def test_unitary_antipode_is_star_antiautomorphism():
    a = _random_element(8)
    b = _random_element(9)
    assert (unitary_antipode(unitary_antipode(a)) - a).norm() < 1e-12
    assert (unitary_antipode(a * b) - unitary_antipode(b) * unitary_antipode(a)).norm() < 1e-12
    assert (unitary_antipode(a.star()) - unitary_antipode(a).star()).norm() < 1e-12


def test_unitary_antipode_on_embedded_generators():
    assert (unitary_antipode(embed(PARAMS, Q, WINDOW)) - embed(PARAMS, QINV, WINDOW)).norm() < 1e-12
    assert (unitary_antipode(embed(PARAMS, E, WINDOW)) + embed(PARAMS, E, WINDOW)).norm() < 1e-12
    assert (unitary_antipode(embed(PARAMS, F, WINDOW)) + embed(PARAMS, F, WINDOW)).norm() < 1e-12


def test_unitary_antipode_flips_the_coproduct():
    a = _random_element(10)
    pairs = [(two_n, two_m) for two_n in range(0, 3) for two_m in range(0, 3)]
    assert symmetry_residuals(PARAMS, [a], [unitary_antipode_block], pairs, reverse=True).max() < 1e-9


def test_antipode_matches_symbolic_antipode():
    for x in [Q, QINV, E, F, E * F, Q * E]:
        lhs = antipode(PARAMS, embed(PARAMS, x, WINDOW))
        rhs = embed(PARAMS, formal_antipode(x, LAM), WINDOW)
        assert (lhs - rhs).norm() < 1e-12


def test_antipode_closed_form_on_matrix_units():
    for two_n in range(0, 4):
        for two_r in weights(two_n):
            for two_s in weights(two_n):
                image = antipode(PARAMS, matrix_unit(two_n, two_r, two_s))
                factor = (-1.0) ** ((two_s - two_r) // 2) * PARAMS.lam_pow(two_s - two_r)
                expected = factor * matrix_unit(two_n, -two_s, -two_r)
                assert (image - expected).norm() < 1e-12
                inv = antipode_inv(PARAMS, matrix_unit(two_n, two_r, two_s))
                factor = (-1.0) ** ((two_s - two_r) // 2) * PARAMS.lam_pow(two_r - two_s)
                expected = factor * matrix_unit(two_n, -two_s, -two_r)
                assert (inv - expected).norm() < 1e-12


def test_antipode_squared_is_imaginary_time_scaling():
    a = _random_element(11)
    assert (antipode_inv(PARAMS, antipode(PARAMS, a)) - a).norm() < 1e-12
    twice = antipode(PARAMS, antipode(PARAMS, a))
    assert (twice - scaling_imag(PARAMS, a, -1.0)).norm() < 1e-12
    # S^2 = conjugation by q^-2 blockwise
    for two_n in WINDOW:
        d = modular_element_block(PARAMS, two_n)
        sq = np.diag(np.sqrt(np.diag(d).real))  # q^2 on the block
        manual = np.linalg.inv(sq) @ a.block(two_n) @ sq
        assert max_abs(twice.block(two_n) - manual) < 1e-10


def test_scaling_group_laws():
    a = _random_element(12)
    assert (scaling(PARAMS, a, 0.0) - a).norm() < 1e-13
    s1, s2 = 0.8, -0.5
    assert (
        scaling(PARAMS, scaling(PARAMS, a, s1), s2) - scaling(PARAMS, a, s1 + s2)
    ).norm() < 1e-12
    assert (scaling(PARAMS, a.star(), s1) - scaling(PARAMS, a, s1).star()).norm() < 1e-12
    pairs = [(two_n, two_m) for two_n in range(0, 3) for two_m in range(0, 3)]
    tau = functools.partial(scaling_block, PARAMS, s=s1)
    assert symmetry_residuals(PARAMS, [a], [tau], pairs).max() < 1e-9


def test_scaling_fixes_counit_and_integrals():
    a = _random_element(13)
    s = 1.7
    assert abs(counit(scaling(PARAMS, a, s)) - counit(a)) < 1e-12
    assert abs(left_integral(PARAMS, scaling(PARAMS, a, s)) - left_integral(PARAMS, a)) < 1e-9


def test_cointegral_is_absorbing():
    h = cointegral()
    for a in [_random_element(14), embed(PARAMS, E * F, WINDOW), matrix_unit(2, 2, 0)]:
        assert (a * h - counit(a) * h).norm() < 1e-12
        assert (h * a - counit(a) * h).norm() < 1e-12
    assert counit(h) == 1.0


@pytest.mark.parametrize("two_n", range(0, 6))
def test_cointegral_coproduct_two_routes(two_n):
    closed = cointegral_coproduct(PARAMS, two_n)
    assembled = coproduct_component(PARAMS, cointegral(), two_n, two_n)
    assert max_abs(closed - assembled) < 1e-10


@pytest.mark.parametrize("two_n", range(0, 6))
def test_cointegral_coproduct_is_rank_one_projection(two_n):
    block = cointegral_coproduct(PARAMS, two_n)
    assert max_abs(block @ block - block) < 1e-10
    assert max_abs(block - block.conj().T) < 1e-12
    sing = np.linalg.svd(block, compute_uv=False)
    assert abs(sing[0] - 1.0) < 1e-10
    if sing.size > 1:
        assert sing[1] < 1e-10
    vec = invariant_vector(PARAMS, two_n)
    assert max_abs(block - np.outer(vec, vec.conj())) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_integral_values_on_matrix_units():
    for two_n in range(0, 5):
        c_n = quantum_dimension(PARAMS, two_n)
        for two_r in weights(two_n):
            unit = matrix_unit(two_n, two_r, two_r)
            assert abs(left_integral(PARAMS, unit) - c_n * PARAMS.lam_pow(-2 * two_r)) < 1e-10
            assert abs(right_integral(PARAMS, unit) - c_n * PARAMS.lam_pow(2 * two_r)) < 1e-10
    # off-diagonal units are null
    assert left_integral(PARAMS, matrix_unit(2, 2, 0)) == 0.0
    assert right_integral(PARAMS, matrix_unit(2, 0, -2)) == 0.0


def test_integrals_normalize_the_cointegral():
    h = cointegral()
    assert abs(left_integral(PARAMS, h) - 1.0) < 1e-14
    assert abs(right_integral(PARAMS, h) - 1.0) < 1e-14


@pytest.mark.parametrize("two_n", range(0, 4))
def test_integral_invariance(two_n):
    battery = [matrix_unit(2, 2, -2), matrix_unit(1, 1, 1), _random_element(15, [0, 1, 2])]
    assert invariance_residuals(PARAMS, battery, [two_n]).max() < 1e-9


def test_quantum_dimension_values():
    assert abs(quantum_dimension(PARAMS, 0) - 1.0) < 1e-14
    assert abs(quantum_dimension(PARAMS, 1) - (LAM + 1.0 / LAM)) < 1e-13
    assert abs(
        quantum_dimension(PARAMS, 2) - (LAM**2 + 1.0 + LAM**-2)
    ) < 1e-13


@pytest.mark.parametrize("two_n", range(0, 4))
@pytest.mark.parametrize("kind", ["left", "right"])
def test_modular_certificates(two_n, kind):
    assert modular_certificate_residual(PARAMS, two_n, kind) < 1e-11


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: integral_weights(PARAMS, 2, kind),
        lambda kind: block_integrals(PARAMS, 2, np.eye(3), kind),
        lambda kind: modular_automorphism(PARAMS, matrix_unit(2, 2, 0), kind),
        lambda kind: modular_automorphism(PARAMS, AlgElement(), kind),
        lambda kind: modular_certificate_residual(PARAMS, 2, kind),
    ],
    ids=["integral_weights", "block_integrals", "modular_automorphism", "modular_automorphism-empty",
         "modular_certificate_residual"],
)
def test_an_integral_kind_other_than_left_or_right_is_refused(call):
    call("left")
    call("right")
    with pytest.raises(ValueError, match="kind must be 'left' or 'right'"):
        call("up")


def test_modular_automorphisms_are_mutually_inverse():
    a = _random_element(16)
    round_trip = modular_automorphism(
        PARAMS, modular_automorphism(PARAMS, a, "left"), "right"
    )
    assert (round_trip - a).norm() < 1e-12
    assert abs(
        left_integral(PARAMS, modular_automorphism(PARAMS, a, "left"))
        - left_integral(PARAMS, a)
    ) < 1e-9


def test_modular_element_is_q_fourth():
    delta = embed(PARAMS, Q * Q * Q * Q, WINDOW)
    for two_n in WINDOW:
        assert max_abs(delta.block(two_n) - modular_element_block(PARAMS, two_n)) < 1e-12


@pytest.mark.parametrize(
    "cls, keys",
    [(AlgElement, [0, 1, 2, 3]), (BiElement, [(0, 1), (1, 1), (2, 1), (1, 3)])],
    ids=["AlgElement", "BiElement"],
)
def test_block_products_and_stars_are_per_block_matmul_and_adjoint(cls, keys):
    rng = np.random.default_rng(5)

    def draw(ks):
        return {k: rng.standard_normal((cls._dim(k),) * 2) + 1j * rng.standard_normal((cls._dim(k),) * 2) for k in ks}

    x_blocks, y_blocks = draw(keys[:3]), draw(keys[1:])
    x, y = cls(x_blocks), cls(y_blocks)
    product, star = x * y, x.star()
    assert type(product) is cls and product.support == sorted(keys[1:3])
    assert all(np.array_equal(product.blocks[k], x_blocks[k] @ y_blocks[k]) for k in keys[1:3])
    assert type(star) is cls and star.support == sorted(keys[:3])
    assert all(np.array_equal(star.blocks[k], x_blocks[k].conj().T) for k in keys[:3])


def test_products_across_element_kinds_raise_type_error():
    a = matrix_unit(0, 0, 0)
    b = BiElement({(0, 0): np.ones((1, 1))})
    d = DualElement({0: np.ones((1, 1))})
    for x, y in ((a, b), (b, a), (d, d)):
        with pytest.raises(TypeError):
            x * y


@pytest.mark.parametrize("t", [0.3, 2.0, 50.0])
@pytest.mark.parametrize("kind, s", [("left", -1.0), ("right", 1.0)])
def test_modular_automorphism_is_q_conjugation_bit_for_bit(t, kind, s):
    """sigma(a)_n = q^(2s) a_n q^(-2s), s = -1 for phi and +1 for psi,
    written out block by block as the entrywise factor d_i / d_j."""
    params = Params(t=t)
    a = _random_element(11, range(4))
    got = modular_automorphism(params, a, kind)
    assert got.support == a.support
    for two_n, mat in a.blocks.items():
        d = params.q_diag(two_n, 2 * s)
        assert np.array_equal(got.blocks[two_n], mat * np.outer(d, 1.0 / d))


def test_alg_element_validation():
    with pytest.raises(ValueError):
        AlgElement({1: np.zeros((3, 3))})  # wrong block shape for spin 1/2
    with pytest.raises(ValueError):
        matrix_unit(2, 3, 0)  # weight not in the block's grid



@pytest.mark.parametrize(
    "cls, key, dim, zero_key",
    [(AlgElement, 2, 3, 0), (BiElement, (1, 2), 6, (0, 0)), (DualElement, 2, 3, 0)],
    ids=["AlgElement", "BiElement", "DualElement"],
)
def test_block_containers_share_validation_and_linear_structure(cls, key, dim, zero_key):
    with pytest.raises(ValueError):
        cls({key: np.ones((dim + 1, dim + 1))})
    mat = np.arange(dim * dim).reshape(dim, dim) + 1j
    x = cls({key: mat, zero_key: np.zeros((1, 1))})
    assert list(x.blocks) == [key]
    assert (x - x).blocks == {} and (0.0 * x).blocks == {}
    with pytest.raises(TypeError):
        x + (DualElement if cls is AlgElement else AlgElement)()  # another kind's blocks
    results = {
        "+": x + x,
        "-": x - 0.5 * x,
        "neg": -x,
        "scalar": 2.0 * x,
        "map": x.map(lambda k, m: m.T),
    }
    assert all(type(r) is cls for r in results.values())
    assert np.array_equal(results["+"].blocks[key], 2 * mat)
    assert np.array_equal(results["-"].blocks[key], 0.5 * mat)
    assert np.array_equal(results["map"].blocks[key], mat.T)
    if cls is DualElement:
        with pytest.raises(TypeError):
            x * x  # the product of functionals is dual_mul
    else:
        assert type(x * x) is cls
        assert np.array_equal((x * x).blocks[key], mat @ mat)
        corner = np.zeros((dim, dim))
        corner[0, -1] = 1.0
        assert (cls({key: corner}) * cls({key: corner})).blocks == {}  # an exact zero product is pruned

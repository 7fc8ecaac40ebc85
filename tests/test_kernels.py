"""Batched certificate kernels against their one-element references.

Each reference below is the direct form of a law the verification
batteries certify: a dense Kronecker lift for coassociativity, one matrix
unit at a time for the integrals' invariance and the antipode laws, one
algebra product and integral per pair for the modular certificates.  The
kernels in `suq2.verify` evaluate each map once per basis element and
contract whole batteries in stacked products; here they must agree with
the references item by item over the default batteries.

The dense forms the checks of `suq2.verify` no longer carry are kept here
too: R as the sandwich of the dense signed flip P and as a gather through
the index array of the reversal, R (x) R as a Kronecker sandwich of P
with a swap permutation, sum_k V_k pi_k(x) V_k* summed over the dense V_k,
the tau_s (x) tau_s multiplier from its product-basis phases and as the
Kronecker product of tau_s on each leg's all-ones block, and an integral
on one leg as an einsum with the dense diagonal matrix W of its values on
the matrix units.  The checks now call the maps the library ships, and
must agree with these.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from suq2 import discrete, dual, verify
from suq2.clebsch import decompose, index_set, tensor_rep
from suq2.discrete import (
    AlgElement,
    antipode_block,
    antipode_inv_block,
    cointegral_coproduct,
    coproduct_blocks,
    coproduct_component,
    counit,
    embed,
    integral_weights,
    left_integral,
    matrix_unit,
    modular_automorphism,
    modular_element_block,
    quantum_dimension,
    right_integral,
    scaling,
    scaling_block,
    scaling_imag_block,
    unitary_antipode,
    unitary_antipode_block,
)
from suq2.params import Params
from suq2.reps import build_rep, evaluate, evaluate_in
from suq2.util import kron, max_abs, weight_index, weights, worst
from suq2.verify import (
    WORD_BATTERY,
    _cointegral_block,
    _lift,
    _matrix_units,
    _max_abs_each,
    _random_alg_element,
    _stacked,
    _unit_contractions,
    antipode_law_residuals,
    clebsch_battery,
    coassociativity_residuals,
    invariance_residuals,
    modular_certificate_residual,
    symmetry_residuals,
)

T_VALUES = (0.1, 0.3, 1.0)
WINDOW = range(5)
TOL = 1e-15


def dense_integral_weights(params, two_n, kind):
    """The integral's values on the matrix units of block n as the dense
    complex matrix W[p, p'] = integral(e_(p, p'))."""
    return np.diag(quantum_dimension(params, two_n) * integral_weights(params, two_n, kind)).astype(complex)


def contract_first(mat, dim_left, dim_right, w):
    """The functional with matrix-unit values W[p, p'] on the first leg of
    an operator on a product of two blocks, or of each in a stack."""
    m4 = mat.reshape(mat.shape[:-2] + (dim_left, dim_right, dim_left, dim_right))
    return np.einsum("pq,...puqv->...uv", w, m4)


def contract_second(mat, dim_left, dim_right, w):
    """Same, on the second leg."""
    m4 = mat.reshape(mat.shape[:-2] + (dim_left, dim_right, dim_left, dim_right))
    return np.einsum("uv,...puqv->...pq", w, m4)


def reference_lifts(params, a, two_n, two_m, two_l):
    """(D (x) id) D(a) and (id (x) D) D(a) on (n, m, l), each lifted by the
    dense Kronecker products V_k (x) 1 and 1 (x) V_k."""
    dims = (two_n + 1, two_m + 1, two_l + 1)
    total = dims[0] * dims[1] * dims[2]
    lhs = np.zeros((total, total), dtype=complex)
    dec_nm = decompose(params, two_n, two_m)
    for two_k in index_set(two_n, two_m):
        lift = np.kron(dec_nm.piece(two_k).v, np.eye(dims[2]))
        lhs += lift @ coproduct_component(params, a, two_k, two_l) @ lift.conj().T
    rhs = np.zeros((total, total), dtype=complex)
    dec_ml = decompose(params, two_m, two_l)
    for two_k in index_set(two_m, two_l):
        lift = np.kron(np.eye(dims[0]), dec_ml.piece(two_k).v)
        rhs += lift @ coproduct_component(params, a, two_n, two_k) @ lift.conj().T
    return lhs, rhs


def reference_invariance(params, a, two_n):
    dim = two_n + 1
    left_sum = np.zeros((dim, dim), dtype=complex)
    right_sum = np.zeros((dim, dim), dtype=complex)
    left_scales, right_scales = [1.0], [1.0]
    m_window = sorted({two_m for two_k in a.support for two_m in index_set(two_k, two_n)})
    for two_m in m_window:
        term = contract_second(
            coproduct_component(params, a, two_n, two_m), dim, two_m + 1,
            dense_integral_weights(params, two_m, "left"),
        )
        left_sum += term
        left_scales.append(max_abs(term))
        term = contract_first(
            coproduct_component(params, a, two_m, two_n), two_m + 1, dim,
            dense_integral_weights(params, two_m, "right"),
        )
        right_sum += term
        right_scales.append(max_abs(term))
    eye = np.eye(dim)
    return (
        max_abs(left_sum - left_integral(params, a) * eye) / worst(left_scales),
        max_abs(right_sum - right_integral(params, a) * eye) / worst(right_scales),
    )


def reference_cointegral_contractions(params, two_n):
    """The four contraction rows of `_cointegral_block`, each functional a
    dense W contracted with D(h)_(n,n) in full."""
    dim = two_n + 1
    closed = cointegral_coproduct(params, two_n)
    w_left, w_right = (dense_integral_weights(params, two_n, kind) for kind in ("left", "right"))
    eye = np.eye(dim, dtype=complex)
    trace = np.diag(params.q_diag(two_n, 2.0)) / quantum_dimension(params, two_n)
    return {
        "left-integral": max_abs(contract_second(closed, dim, dim, w_left) - eye),
        "right-integral": max_abs(contract_first(closed, dim, dim, w_right) - eye),
        "modular-element": max_abs(contract_first(closed, dim, dim, w_left) - modular_element_block(params, two_n)),
        "trace-contraction": max_abs(contract_first(closed, dim, dim, eye) - trace),
    }


def reference_unit_contractions(params, two_n, two_m, two_k, kind):
    """`_unit_contractions` from D of the stack of matrix units e_(r,s) of
    block k (r major): the dense W of block m contracted with each
    D(e_(r,s))_(n,m) for kind "left", with each D(e_(r,s))_(m,n) for kind
    "right"."""
    dim_k = two_k + 1
    units = {two_k: np.eye(dim_k * dim_k).reshape(-1, dim_k, dim_k)}
    w = dense_integral_weights(params, two_m, kind)
    if kind == "left":
        rows = contract_second(coproduct_blocks(params, units, two_n, two_m), two_n + 1, two_m + 1, w)
    else:
        rows = contract_first(coproduct_blocks(params, units, two_m, two_n), two_m + 1, two_n + 1, w)
    return rows.reshape(dim_k * dim_k, (two_n + 1) ** 2)


def dense_unit_contractions(params, two_n, two_m, two_k, kind):
    """`_unit_contractions` with the dense W multiplied in full into the
    real basis columns of V_k, the integral's leg first."""
    dec = decompose(params, *((two_n, two_m) if kind == "left" else (two_m, two_n)))
    v = dec.basis[:, dec.columns[two_k]].reshape(dec.two_n + 1, dec.two_m + 1, two_k + 1)
    if kind == "left":
        v = v.transpose(1, 0, 2)
    w = dense_integral_weights(params, two_m, kind)
    terms = np.tensordot(v, np.tensordot(w, v, axes=(1, 0)), axes=(0, 0))
    return terms.transpose(1, 3, 0, 2).reshape((two_k + 1) ** 2, (two_n + 1) ** 2)


def reference_antipode_law(params, a, two_n):
    dim = two_n + 1
    m4 = coproduct_component(params, a, two_n, two_n).reshape(dim, dim, dim, dim)
    target = counit(a) * np.eye(dim)
    unit = np.zeros((dim, dim), dtype=complex)
    lhs = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):
        for pp in range(dim):
            unit[p, pp] = 1.0
            s_unit = antipode_block(params, two_n, unit)
            unit[p, pp] = 0.0
            lhs += s_unit @ m4[p, :, pp, :]
            rhs += m4[:, p, :, pp] @ s_unit
    return worst((max_abs(lhs - target), max_abs(rhs - target)))


def reference_modular_certificate(params, two_n, kind):
    integral = left_integral if kind == "left" else right_integral
    units = [a for _, a in _matrix_units([two_n])]
    return worst(
        abs(integral(params, a * b) - integral(params, b * modular_automorphism(params, a, kind)))
        for a in units
        for b in units
    )


def signed_flip_matrix(two_n):
    """The linear factor P of the flip G = P o conj on block n, the dense
    signed permutation P[2n - i, i] = (-1)^(2n - i)."""
    dim = two_n + 1
    p = np.zeros((dim, dim))
    p[np.arange(dim - 1, -1, -1), np.arange(dim)] = [(-1.0) ** (two_n - i) for i in range(dim)]
    return p


def gathered_unitary_antipode_block(two_n, mat):
    """R on a block or a stack of blocks as a gather through the index
    array of the reversal, between the outer product of the flip's signs."""
    dim = two_n + 1
    perm = np.arange(dim - 1, -1, -1)
    signs = np.array([(-1.0) ** (two_n - i) for i in range(dim)])
    return np.outer(signs, signs) * mat[..., perm[:, None], perm].swapaxes(-1, -2)


def gathered_antipode_block(params, two_n, mat):
    """S = R o tau_(-i/2) with R the gather above."""
    return gathered_unitary_antipode_block(two_n, scaling_imag_block(params, two_n, mat, -0.5))


def gathered_antipode_inv_block(params, two_n, mat):
    """S^-1 = tau_(i/2) o R with R the gather above."""
    return scaling_imag_block(params, two_n, gathered_unitary_antipode_block(two_n, mat), +0.5)


def reference_flip(params, a, two_n, two_m):
    """flip (R (x) R) D(a)_(n,m) as P^T D^T P with P = P_n (x) P_m, between
    the swap permutations of the two legs."""
    dims = (two_n + 1, two_m + 1)
    p_big = np.kron(signed_flip_matrix(two_n), signed_flip_matrix(two_m))
    r_tensor = p_big.T @ coproduct_component(params, a, two_n, two_m).T @ p_big
    swap = np.zeros((dims[0] * dims[1],) * 2)
    for p in range(dims[0]):
        for u in range(dims[1]):
            swap[u * dims[0] + p, p * dims[1] + u] = 1.0
    flipped = swap @ r_tensor @ swap.T
    return max_abs(coproduct_component(params, unitary_antipode(a), two_m, two_n) - flipped)


def reference_block_reconstruction(params, two_n, two_m, x):
    """sum_k V_k pi_k(x) V_k* over the dense V_k against D(x), and max|D(x)|."""
    trep = tensor_rep(build_rep(params, two_n, +1), build_rep(params, two_m, +1))
    direct = evaluate_in(trep.gen_matrices, x, trep.dim)
    assembled = np.zeros_like(direct)
    for piece in decompose(params, two_n, two_m).pieces:
        assembled += piece.v @ evaluate(build_rep(params, piece.two_k, +1), x) @ piece.v.conj().T
    return max_abs(assembled - direct), max_abs(direct)


def reference_scaling_multiplier(params, two_n, two_m, s):
    """tau_s (x) tau_s on the (n, m) product basis as the entrywise factor d_i / d_j."""
    d = np.kron(np.exp(-1j * params.t * s * weights(two_n)), np.exp(-1j * params.t * s * weights(two_m)))
    return np.outer(d, 1.0 / d)


def lift_operators(lift, leg):
    """A `_lift` stack, axes (len, o, o', n, m, n', m'), as the (len, N, N)
    operators on (n (x) m) (x) o (leg 0) or o (x) (n (x) m) (leg 1)."""
    lifted = lift.transpose((0, 3, 4, 1, 5, 6, 2) if leg == 0 else (0, 1, 3, 4, 2, 5, 6))
    size = int(np.prod(lifted.shape[1:4]))
    return lifted.reshape(len(lift), size, size)


def hopf_battery_elements(params):
    """The shapes of the hopf battery: word elements, units up to spin 1, two random elements."""
    rng = np.random.default_rng(0)
    words = {name: embed(params, x, WINDOW) for name, x in WORD_BATTERY.items()}
    units = [a for _, a in _matrix_units(range(3))]
    randoms = [_random_alg_element(rng, WINDOW) for _ in range(2)]
    return words, units, randoms


@pytest.mark.parametrize("t", T_VALUES)
def test_coassociativity_kernel_matches_the_kronecker_lift(monkeypatch, t):
    """`_lift` takes D on one leg through the CG blocks, the reference
    through dense Kronecker lifts; the two round differently on entries
    larger than 1, so each lift is held entrywise to a few eps at the
    scale of the reference, and each residual to 1e-15 at that scale.
    The kernel lifts the battery in chunks sized by `discrete._SLAB_BYTES`:
    one element at a time (budget 0) and the whole battery at once
    (1 << 40) give the residuals of the module's budget bit for bit."""
    params = Params(t=t)
    words, _, randoms = hopf_battery_elements(params)
    battery = [words["e"], words["ef"]] + randoms
    kernel = coassociativity_residuals(params, battery, WINDOW)
    for budget in (0, 1 << 40):
        monkeypatch.setattr(discrete, "_SLAB_BYTES", budget)
        np.testing.assert_array_equal(coassociativity_residuals(params, battery, WINDOW), kernel, strict=True)
    monkeypatch.undo()
    components = lambda two_n, two_m: np.array([coproduct_component(params, a, two_n, two_m) for a in battery])
    eps = np.finfo(float).eps
    for n, m, l in itertools.product(WINDOW, repeat=3):
        lhs = lift_operators(_lift(params, {k: components(k, l) for k in index_set(n, m)}, (n, m), l, leg=0), 0)
        rhs = lift_operators(_lift(params, {k: components(n, k) for k in index_set(m, l)}, (m, l), n, leg=1), 1)
        for i, a in enumerate(battery):
            ref_lhs, ref_rhs = reference_lifts(params, a, n, m, l)
            for got, ref in ((lhs[i], ref_lhs), (rhs[i], ref_rhs)):
                assert max_abs(got - ref) <= 4 * eps * max(1.0, max_abs(ref)), (t, n, m, l, i)
            scale = max(1.0, max_abs(ref_lhs), max_abs(ref_rhs))
            assert abs(kernel[i, n, m, l] - max_abs(ref_lhs - ref_rhs)) <= 1e-15 * scale, (t, n, m, l, i)


def coassociativity_shapes(params, window):
    """The coassociativity row's battery: words e and ef, two random elements."""
    rng = np.random.default_rng(0)
    battery = [embed(params, WORD_BATTERY[w], window) for w in ("e", "ef")]
    return battery + [_random_alg_element(rng, window) for _ in range(2)]


def test_coassociativity_kernel_takes_d_once_per_stack_it_keeps(monkeypatch):
    """Over window 0..4 at t = 0.3 the kernel takes D of the battery 220
    times, each second-leg stack once per n and each first-leg one once per
    (n, l), and makes 286 lifts, two per chunk, so neither the scoping of
    the stacks nor the chunk size drifts unnoticed."""
    params, window = Params(t=0.3), range(5)
    battery = coassociativity_shapes(params, window)
    calls = []
    spy = lambda name, f: lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs)
    monkeypatch.setattr(verify, "coproduct_blocks", spy("D", coproduct_blocks))
    monkeypatch.setattr(verify, "_lift", spy("lift", _lift))
    coassociativity_residuals(params, battery, window)
    # every lift is one D call on its own stack; the rest are on the battery
    assert (calls.count("D") - calls.count("lift"), calls.count("lift")) == (220, 286)


def test_coassociativity_kernel_holds_its_stacks_one_spin_at_a_time():
    """Over window 0..6 at t = 0.3 the kernel keeps the second-leg D(a)
    stacks only while their outer spin n is visited, the first-leg ones
    only while (n, l) is, and drops each chunk's lifts before the next
    chunk's are built, so its traced peak on the hopf battery's shapes
    stays under 12.5 MB (about 11 MB; 13 MB with the previous chunk's
    lifts kept, 21 MB with every stack kept for the whole loop)."""
    params, window = Params(t=0.3), range(7)
    battery = coassociativity_shapes(params, window)
    tracemalloc.start()
    try:
        residuals = coassociativity_residuals(params, battery, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5e6, peak
    assert residuals.max() <= 1e-9


@pytest.mark.parametrize("t", T_VALUES)
def test_invariance_kernel_matches_one_unit_at_a_time(t):
    params = Params(t=t)
    units = [a for _, a in _matrix_units(WINDOW)]
    kernel = invariance_residuals(params, units, WINDOW)
    reference = np.array([[reference_invariance(params, a, two_n) for two_n in WINDOW] for a in units])
    np.testing.assert_allclose(kernel, reference, rtol=0, atol=TOL)


@pytest.mark.parametrize("t", (1e-8, 1e-5, 0.3, 2.0, 10.0, 50.0))
def test_integral_contractions_match_the_dense_weight_matrix(t):
    """The cointegral rows and `_unit_contractions` read the integrals as
    weight vectors.  The rows give the bits of the dense W's einsum on every
    block up to doubled spin 8, and the unit contractions give the bits of
    the dense W multiplied into V_k, and the einsum's values to a few eps,
    on every pair up to 8.  At t = 50 the weights of doubled spin 8
    overflow: every entry of the dense route is NaN there, since the inf
    meets W's off-diagonal zeros, while the vector meets only the zeros of
    V_k, and some of its entries are inf instead."""
    params = Params(t=t)
    eps = np.finfo(float).eps
    overflowed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for two_n in range(9):
            rows = _cointegral_block(params, two_n)
            for name, expected in reference_cointegral_contractions(params, two_n).items():
                assert np.array_equal(rows[name], expected, equal_nan=True), (name, two_n)
            for two_m in range(9):
                for two_k, kind in itertools.product(index_set(two_n, two_m), ("left", "right")):
                    got = _unit_contractions(params, two_n, two_m, two_k, kind)
                    dense = dense_unit_contractions(params, two_n, two_m, two_k, kind)
                    reference = reference_unit_contractions(params, two_n, two_m, two_k, kind)
                    case = (two_n, two_m, two_k, kind)
                    if t == 50.0 and two_m == 8:
                        assert np.isnan(dense).all() and np.isnan(reference).all(), case
                        assert not np.isfinite(got).any(), case
                        overflowed.append(got)
                        continue
                    assert np.isfinite(reference).all(), case
                    np.testing.assert_array_equal(got, dense, err_msg=str(case))
                    assert max_abs(got - reference) <= 4 * eps * max(1.0, max_abs(reference)), case
    if t == 50.0:
        assert any(np.isinf(got).any() for got in overflowed)


@pytest.mark.parametrize("t", T_VALUES)
def test_antipode_law_kernel_matches_the_unit_loop(t):
    params = Params(t=t)
    words, units, randoms = hopf_battery_elements(params)
    battery = list(words.values()) + units + randoms
    kernel = antipode_law_residuals(params, battery, WINDOW)
    reference = np.array([[reference_antipode_law(params, a, two_n) for two_n in WINDOW] for a in battery])
    np.testing.assert_allclose(kernel, reference, rtol=0, atol=TOL)


@pytest.mark.parametrize("t", T_VALUES)
@pytest.mark.parametrize("kind", ["left", "right"])
def test_modular_certificate_matches_the_pair_sweep(t, kind):
    params = Params(t=t)
    for two_n in WINDOW:
        assert abs(
            modular_certificate_residual(params, two_n, kind) - reference_modular_certificate(params, two_n, kind)
        ) <= TOL


@pytest.mark.parametrize("t", (0.3, 1.0))
def test_coproduct_of_a_matrix_unit_is_the_outer_product_of_its_columns(t):
    """The invariance kernel reads D(e_(r,s)) = V_k e_(r,s) V_k* as column r
    of V_k times the conjugate of column s; coproduct_component must give
    exactly that, on every pair the kernel reads and both leg orders."""
    params = Params(t=t)
    for two_k in range(9):
        for two_n in WINDOW:
            for two_m in index_set(two_k, two_n):
                for pair in ((two_n, two_m), (two_m, two_n)):
                    v = decompose(params, *pair).piece(two_k).v
                    for two_r in weights(two_k):
                        for two_s in weights(two_k):
                            r, s = weight_index(two_k, two_r), weight_index(two_k, two_s)
                            np.testing.assert_array_equal(
                                coproduct_component(params, matrix_unit(two_k, two_r, two_s), *pair),
                                np.outer(v[:, r], v[:, s].conj()),
                            )


PAIRS = [(two_n, two_m) for two_n in range(7) for two_m in range(7)]
S_VALUES = (0.7, -1.3, 1.9, -0.35)


def flip_kernel(params, elements, pairs):
    """The kernel of dqg/flip-coproduct, shape (len(elements), len(pairs))."""
    return symmetry_residuals(params, elements, [unitary_antipode_block], pairs, reverse=True)[:, 0]


def scaling_maps(params, s_values):
    """tau_s as a block map, one per s, as dqg/scaling-coproduct passes them."""
    return [functools.partial(scaling_block, params, s=s) for s in s_values]


def legwise(block_map, mat, two_n, two_m):
    """A block map on each leg of one operator on spin-n (x) spin-m, through
    its four-index form [p, u, q, v]: leg n reads (p, q), leg m (u, v)."""
    four = mat.reshape(two_n + 1, two_m + 1, two_n + 1, two_m + 1).transpose(1, 3, 0, 2)
    both = block_map(two_m, block_map(two_n, four).transpose(2, 3, 0, 1))
    return both.transpose(0, 2, 1, 3).reshape(mat.shape)


@pytest.mark.parametrize("t", (0.3, 1.0, 2.0))
def test_flip_residual_matches_the_kronecker_sandwich(t):
    params = Params(t=t)
    window = range(7)
    rng = np.random.default_rng(5)
    elements = [embed(params, x, window) for x in WORD_BATTERY.values()]
    elements += [_random_alg_element(rng, window) for _ in range(2)]
    reference = [[reference_flip(params, a, *pair) for pair in PAIRS] for a in elements]
    np.testing.assert_array_equal(flip_kernel(params, elements, PAIRS), np.array(reference))


@pytest.mark.parametrize("t", (0.3, 1.0, 2.0))
def test_block_reconstruction_matches_the_dense_summand_loop(t):
    """Each value cg/block-reconstruction yields, pair major and word minor
    over the pairs of its window, is the dense summand loop's residual."""
    params = Params(t=t)
    values = dict(clebsch_battery.__wrapped__(params, 4, np.random.default_rng(0)))["cg/block-reconstruction"]
    window = range(5)
    cases = [((two_n, two_m), x) for two_n in window for two_m in window for x in WORD_BATTERY.values()]
    assert len(values) == len(cases)
    for value, (pair, x) in zip(values, cases):
        reference, scale = reference_block_reconstruction(params, *pair, x)
        assert abs(value - reference) <= 1e-13 * scale, (pair, x)


@pytest.mark.parametrize("t", (0.3, 1.0, 2.0))
def test_scaling_multiplier_matches_the_product_phases(t):
    """tau_s (x) tau_s as the Kronecker product of scaling_block on each
    leg's all-ones block is the phase ratio d_i / d_j to roundoff, and the
    residual symmetry_residuals gives, tau_s taken on each leg, is the one
    of that multiplier to roundoff."""
    params = Params(t=t)
    rng = np.random.default_rng(7)
    elements = [_random_alg_element(rng, range(7)) for _ in range(2)]
    kernel = symmetry_residuals(params, elements, scaling_maps(params, S_VALUES), PAIRS)
    for j, s in enumerate(S_VALUES):
        for k, (two_n, two_m) in enumerate(PAIRS):
            legs = [scaling_block(params, two_k, np.ones((two_k + 1, two_k + 1)), s) for two_k in (two_n, two_m)]
            reference = reference_scaling_multiplier(params, two_n, two_m, s)
            assert max_abs(np.kron(*legs) - reference) <= 1e-15
            for i, a in enumerate(elements):
                block = coproduct_component(params, a, two_n, two_m)
                expected = max_abs(coproduct_component(params, scaling(params, a, s), two_n, two_m) - block * reference)
                assert abs(kernel[i, j, k] - expected) <= 1e-15 * max_abs(block)


@pytest.mark.parametrize("t", (0.3, 2.0))
def test_scaling_and_flip_kernels_match_the_per_item_forms(t):
    """The batched kernels of dqg/scaling-coproduct and dqg/flip-coproduct
    give, item by item, the residuals of the per-item forms, every map
    evaluated anew for each item: tau_s on each leg of the item's own
    D(a), and the Kronecker sandwich of R."""
    params = Params(t=t)
    words, units, randoms = hopf_battery_elements(params)
    elements = randoms + [words["ef"], units[1]]
    pairs = [(two_n, two_m) for two_n in range(4) for two_m in range(5)]
    kernel = symmetry_residuals(params, elements, scaling_maps(params, S_VALUES), pairs)
    direct = [
        [
            [
                max_abs(
                    coproduct_component(params, scaling(params, a, s), *pair)
                    - legwise(tau, coproduct_component(params, a, *pair), *pair)
                )
                for pair in pairs
            ]
            for s, tau in zip(S_VALUES, scaling_maps(params, S_VALUES))
        ]
        for a in elements
    ]
    np.testing.assert_array_equal(kernel, np.array(direct))
    reference = [[reference_flip(params, a, *pair) for pair in pairs] for a in elements]
    np.testing.assert_array_equal(flip_kernel(params, elements, pairs), np.array(reference))


def assert_same_bits(value, expected, context):
    assert value.dtype == expected.dtype and value.shape == expected.shape, context
    assert value.tobytes() == expected.tobytes(), context


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_block_maps_match_the_index_array_gather_bit_for_bit(t, lead):
    """R, S and S^-1 on single blocks and on stacks give the bits of the
    same maps with R taken as the gather through an index array."""
    params = Params(t=t)
    rng = np.random.default_rng(41)
    maps = {
        "R": (unitary_antipode_block, gathered_unitary_antipode_block),
        "S": (functools.partial(antipode_block, params), functools.partial(gathered_antipode_block, params)),
        "S^-1": (functools.partial(antipode_inv_block, params), functools.partial(gathered_antipode_inv_block, params)),
    }
    # at t = 50 the larger blocks overflow to inf and nan, whose bits must match too
    with np.errstate(all="ignore"):
        for two_n in range(17):
            shape = lead + (two_n + 1, two_n + 1)
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for name, (block_map, gathered) in maps.items():
                assert_same_bits(block_map(two_n, stack), gathered(two_n, stack), (name, two_n))


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
def test_dual_factor_tables_match_the_index_array_gather_bit_for_bit(t):
    """The entrywise factors of the five dual maps, each probed on the
    all-ones block, are those of the same block maps with R taken as the
    gather through an index array; the star reads S's table transposed."""
    params = Params(t=t)
    s, s_inv = functools.partial(gathered_antipode_block, params), functools.partial(gathered_antipode_inv_block, params)

    def delta(two_n):
        return np.diag(modular_element_block(params, two_n))

    tables = {
        "dual_antipode": (antipode_inv_block, s_inv),
        "dual_antipode_inv": (antipode_block, s),
        "dual_star": (antipode_block, s),
        "dual_modular": (dual._modular_block, lambda two_n, ones: s_inv(two_n, s_inv(two_n, ones)) * delta(two_n)),
        "dual_modular_inv": (dual._modular_inv_block, lambda two_n, ones: s(two_n, s(two_n, ones)) / delta(two_n)),
    }
    with np.errstate(all="ignore"):
        for two_n in range(17):
            ones = np.ones((two_n + 1, two_n + 1))
            for name, (block_map, gathered) in tables.items():
                assert_same_bits(dual._block_factor(params, block_map, two_n), gathered(two_n, ones), (name, two_n))


def test_an_all_zero_battery_keeps_its_leading_axis():
    """Zero elements have no blocks, so the battery's joint support is
    empty; every stacked kernel still gives one row of zero residuals per
    element."""
    params = Params(t=0.3)
    zeros = [AlgElement()] * 3
    kernels = [
        (antipode_law_residuals(params, zeros, [1, 2]), (3, 2)),
        (coassociativity_residuals(params, zeros, range(2)), (3, 2, 2, 2)),
        (symmetry_residuals(params, zeros, [unitary_antipode_block], [(1, 2), (2, 0)], reverse=True), (3, 1, 2)),
        (symmetry_residuals(params, zeros, scaling_maps(params, S_VALUES), [(1, 2), (0, 3)]), (3, len(S_VALUES), 2)),
        (invariance_residuals(params, zeros, [1, 2]), (3, 2, 2)),
    ]
    for residuals, shape in kernels:
        np.testing.assert_array_equal(residuals, np.zeros(shape), strict=True)
    assert _max_abs_each(coproduct_blocks(params, _stacked(zeros), 1, 2)).shape == (3,)


def test_kron_is_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(8)
    for shape_a, shape_b in (((1, 1), (3, 3)), ((2, 3), (4, 1)), ((5, 5), (5, 5)), ((3, 2), (0, 2))):
        for dtype in (float, complex):
            a = rng.standard_normal(shape_a).astype(dtype)
            b = rng.standard_normal(shape_b).astype(dtype)
            if dtype is complex:
                a = a + 1j * rng.standard_normal(shape_a)
                b = b + 1j * rng.standard_normal(shape_b)
            out = kron(a, b)
            assert out.dtype == np.kron(a, b).dtype
            np.testing.assert_array_equal(out, np.kron(a, b))

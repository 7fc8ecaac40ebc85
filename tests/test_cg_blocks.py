"""Clebsch-Gordan on the weight blocks against the dense references.

The references below are the forms the graded code replaced: the
per-weight loop of `decompose` that fixed each sign as it went, the
stacked SVD that read each sign off its left factor, the
one-batch padded `coproduct_component`, the definitional sum
sum_k V_k a_k V_k^T over dense pieces, the certificates computed against
the dense generator images of `tensor_rep`, and the eager scatter of the
pieces from the blocks.  The graded code must match them exactly where
it does the same arithmetic and to roundoff where it does not.
"""

import dataclasses
import re
import warnings
from itertools import groupby

import numpy as np
import pytest

from suq2 import clebsch, discrete
from suq2.clebsch import decompose, decomposition_residuals, index_set, tensor_rep
from suq2.discrete import AlgElement, coproduct_blocks, coproduct_component
from suq2.params import Params
from suq2.reps import build_rep
from suq2.util import max_abs, weights, worst

SMALL_PAIRS = [(two_n, two_m) for two_n in range(17) for two_m in range(17)]
PARAMS_03 = Params(t=0.3)


def _reference_raising(params, two_n, two_m):
    """The row map and the padded B_w stack of `decompose`, refusing a non-finite one alike."""
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    size = len(index_set(two_n, two_m))
    dim = left.dim * right.dim
    q_left = np.exp(0.5 * params.t * weights(two_n))
    q_inv_right = np.exp(-0.5 * params.t * weights(two_m))
    p, u = np.divmod(np.arange(dim), right.dim)
    weight_of = p + u
    lo = np.maximum(0, np.arange(two_n + two_m + 1) - two_m)
    count = np.minimum(two_n, np.arange(two_n + two_m + 1)) - lo + 1
    slots = weight_of * size + p - lo[weight_of]
    rows = np.full((two_n + two_m + 1) * size, dim)
    rows[slots] = np.arange(dim)
    rows = rows.reshape(-1, size)
    raising = np.zeros((two_n + two_m + 1, size, size))
    up = u >= 1
    s_up = weight_of[up]
    raising[s_up, p[up] - lo[s_up - 1], p[up] - lo[s_up]] = q_left[p[up]] * right.r[u[up] - 1]
    up = p >= 1
    s_up = weight_of[up]
    raising[s_up, p[up] - 1 - lo[s_up - 1], p[up] - lo[s_up]] = left.r[p[up] - 1] * q_inv_right[u[up]]
    finite = np.isfinite(raising).all(axis=(1, 2))
    if not finite.all():
        first = two_n + two_m - 2 * int(np.argmin(finite))
        raise ValueError(
            f"decompose: B_w of 2n = {two_n}, 2m = {two_m} at t = {params.t!r} is not "
            f"finite, first at doubled weight w = {first}"
        )
    return size, count, rows, slots, weight_of, raising


def _reference_result(blocks, singular_values, rows, slots, weight_of):
    size = blocks.shape[-1]
    coefficients = np.ascontiguousarray(blocks.reshape(-1, size)[slots].T)
    return {
        "blocks": blocks,
        "singular_values": singular_values,
        "coefficients": coefficients,
        "rows": rows,
        "weight_of": weight_of,
    }


def reference_decompose(params, two_n, two_m):
    """One SVD per weight, each column signed as soon as it is found."""
    size, count, rows, slots, weight_of, raising = _reference_raising(params, two_n, two_m)
    count = count.tolist()
    blocks = np.zeros((two_n + two_m + 1, size, size))
    singular_values = np.zeros((two_n + two_m + 1, size))
    blocks[0, 0, -1] = 1.0
    above = blocks[0, :1, -1:]
    for s in range(1, two_n + two_m + 1):
        lsv, sv, vh = np.linalg.svd(raising[s, : count[s - 1], : count[s]])
        x = vh[::-1].T
        lowered = min(count[s - 1], count[s])
        overlap = (lsv[:, lowered - 1 :: -1] * above[:, -lowered:]).sum(axis=0)
        x[:, -lowered:] *= np.sign(overlap)
        if lowered < count[s]:
            x[:, 0] *= np.sign(x[::2, 0].sum() - x[1::2, 0].sum())
        blocks[s, : count[s], size - count[s] :] = x
        singular_values[s, size - lowered :] = sv[::-1]
        above = x
    return _reference_result(blocks, singular_values, rows, slots, weight_of)


def reference_left_factor_decompose(params, two_n, two_m):
    """One stacked SVD per run of equal-shape B_w, each lowered column
    signed by the overlap of its left singular vector with the column above."""
    size, count, rows, slots, weight_of, raising = _reference_raising(params, two_n, two_m)
    blocks = np.zeros((two_n + two_m + 1, size, size))
    left_vectors = np.zeros_like(blocks)
    singular_values = np.zeros((two_n + two_m + 1, size))
    blocks[0, 0, -1] = 1.0
    stop = 1
    for (above, here), run in groupby(zip(count[:-1].tolist(), count[1:].tolist())):
        start, stop = stop, stop + len(list(run))
        lsv, sv, vh = np.linalg.svd(raising[start:stop, :above, :here])
        kept = min(above, here)
        blocks[start:stop, :here, size - here :] = np.swapaxes(vh[:, ::-1], 1, 2)
        left_vectors[start:stop, :above, size - kept :] = lsv[:, :, kept - 1 :: -1]
        singular_values[start:stop, size - kept :] = sv[:, ::-1]
    lowered = np.minimum(count[:-1], count[1:])
    overlap = (left_vectors[1:] * blocks[:-1]).sum(axis=1)
    signs = np.ones((two_n + two_m + 1, size))
    signs[1:] = np.where(np.arange(size) >= size - lowered[:, None], np.sign(overlap), 1.0)
    new = np.flatnonzero(lowered < count[1:]) + 1
    top_vectors = blocks[new, :, size - count[new]]
    signs[new, size - count[new]] = np.sign(top_vectors[:, ::2].sum(axis=1) - top_vectors[:, 1::2].sum(axis=1))
    blocks *= np.cumprod(signs, axis=0)[:, None, :]
    return _reference_result(blocks, singular_values, rows, slots, weight_of)


def reference_coproduct_component(params, a, two_n, two_m):
    """Every weight in one batched product, scattered through a padded target."""
    dim = (two_n + 1) * (two_m + 1)
    two_ks = [k for k in index_set(two_n, two_m) if k in a.blocks]
    if not two_ks:
        return np.zeros((dim, dim), dtype=complex)
    dec = decompose(params, two_n, two_m)
    base, top = abs(two_n - two_m), two_ks[-1]
    size = (top - base) // 2 + 1
    lo = (two_n + two_m - top) // 2
    weights_met = slice(lo, lo + top + 1)
    amat = np.zeros((top + 1, size, two_n + two_m + 1), dtype=complex)
    for two_k in two_ks:
        s0 = (two_n + two_m - two_k) // 2
        amat[s0 - lo : s0 - lo + two_k + 1, (two_k - base) // 2, s0 : s0 + two_k + 1] = a.blocks[two_k]
    rows_av = np.take(amat, dec.weight_of, axis=2)
    rows_av *= dec.coefficients[:size]
    out = (dec.blocks[weights_met, :, :size] @ rows_av.view(float)).view(complex)
    full = np.zeros((dim + 1, dim), dtype=complex)
    full[dec.rows[weights_met]] = out
    return full[:dim]


def definitional_coproduct_component(params, a, two_n, two_m):
    """sum_k V_k a_k V_k^T over the dense pieces, which are real: the real
    and imaginary parts of a_k are carried through apart."""
    dim = (two_n + 1) * (two_m + 1)
    out = np.zeros((2, dim, dim))
    for piece in decompose(params, two_n, two_m).pieces:
        if piece.two_k in a.blocks:
            v = piece.v.real
            va = v @ a.blocks[piece.two_k]
            out += np.stack((va.real, va.imag)) @ v.T
    return out[0] + 1j * out[1]


def reference_residuals(params, two_n, two_m):
    """The certificates as dense products with the `tensor_rep` images."""
    dec = decompose(params, two_n, two_m)
    trep = tensor_rep(build_rep(params, two_n, +1), build_rep(params, two_m, +1))
    v = np.hstack([p.v for p in dec.pieces])
    real = np.ascontiguousarray(v.real)
    ortho = worst((max_abs(real.T @ real - np.eye(trep.dim)), max_abs(v.imag)))
    completeness = max_abs(real @ real.T - np.eye(trep.dim))
    values = [max_abs(big.imag) for big in (trep.q, trep.e, trep.f)]
    gens = [np.ascontiguousarray(big.real) for big in (trep.q, trep.e, trep.f)]
    for p in dec.pieces:
        rep_k = build_rep(params, p.two_k, +1)
        v_k = np.ascontiguousarray(p.v.real)
        for big, small in zip(gens, (rep_k.q, rep_k.e, rep_k.f)):
            values += [max_abs(big @ v_k - v_k @ small.real), max_abs(small.imag)]
    return {"orthonormality": ortho, "completeness": completeness, "intertwining": worst(values)}


def reference_pieces(dec):
    """The dense V_k scattered from the blocks, as `decompose` built them eagerly."""
    dim = (dec.two_n + 1) * (dec.two_m + 1)
    pieces = []
    for i, two_k in enumerate(index_set(dec.two_n, dec.two_m)):
        col = np.arange(two_k + 1)
        s = (dec.two_n + dec.two_m - two_k) // 2 + col
        v = np.zeros((dim + 1, two_k + 1), dtype=complex)
        v[dec.rows[s], col[:, None]] = dec.blocks[s, :, i]
        pieces.append(v[:dim])
    return pieces


def _supports(two_n, two_m):
    """Full support, the top spin left out, a single block, and none at all."""
    ks = index_set(two_n, two_m)
    return {"full": ks, "partial": ks[:-1], "single": ks[len(ks) // 2 : len(ks) // 2 + 1], "empty": [two_n + two_m + 2]}


@pytest.mark.parametrize("t", (1e-8, 1e-5, 0.3, 1.0, 2.0, 50.0))
def test_decompose_matches_the_per_weight_loop(t):
    """The loop also holds the q factors as written before they moved to
    ``Params.q_diag``; where B_w overflows (t = 50) both refuse it alike."""
    params = Params(t=t)
    pairs = SMALL_PAIRS + [(two_n, two_n) for two_n in range(17, 33)] + [(24, 16), (32, 20), (48, 48)]
    try:
        for two_n, two_m in pairs:
            try:
                with np.errstate(all="ignore"):
                    expected = reference_decompose(params, two_n, two_m)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))), np.errstate(all="ignore"):
                    decompose(params, two_n, two_m)
                continue
            dec = decompose(params, two_n, two_m)
            for name, array in expected.items():
                np.testing.assert_array_equal(getattr(dec, name), array, err_msg=f"{name} at {two_n}, {two_m}")
            decompose.cache_clear()
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("t", (1e-8, 0.3, 2.0, 10.0, 30.0, 50.0))
def test_decompose_signs_by_the_raised_column_as_the_left_factor_did(t):
    """<B_w v, column above> has the sign of the left singular vector's
    overlap, so the blocks, coefficients and singular values are the left
    factor route's bit for bit, warning-free up to t = 10; where the spins
    are past what t allows both refuse alike."""
    params = Params(t=t)
    try:
        for two_n in range(25):
            for two_m in range(25):
                try:
                    with np.errstate(all="ignore"):
                        expected = reference_left_factor_decompose(params, two_n, two_m)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))), np.errstate(all="ignore"):
                        decompose(params, two_n, two_m)
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error" if t <= 10 else "ignore")
                    dec = decompose(params, two_n, two_m)
                for name in ("blocks", "coefficients", "singular_values"):
                    assert np.array_equal(getattr(dec, name), expected[name]), (name, two_n, two_m)
            decompose.cache_clear()
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("t", (0.3, 1.0, 2.0))
def test_coproduct_component_matches_the_padded_kernel_and_the_definition(t):
    params = Params(t=t)
    rng = np.random.default_rng(int(10 * t))
    try:
        for two_n, two_m in SMALL_PAIRS + [(24, 24), (24, 16), (32, 32), (32, 20), (17, 9), (48, 40)]:
            for name, support in _supports(two_n, two_m).items():
                a = AlgElement(
                    {k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1)) for k in support}
                )
                got = coproduct_component(params, a, two_n, two_m)
                np.testing.assert_array_equal(got, reference_coproduct_component(params, a, two_n, two_m))
                scale = max((max_abs(m) for m in a.blocks.values()), default=0.0)
                definition = definitional_coproduct_component(params, a, two_n, two_m)
                assert max_abs(got - definition) <= 1e-13 * scale, (two_n, two_m, name)
            decompose.cache_clear()
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("budget", (1, 1 << 12, 1 << 24))
def test_coproduct_component_does_not_depend_on_the_slab_size(monkeypatch, budget):
    # the one padded slab runs where it fits the budget, every weight on its
    # live block elsewhere: budget 1 takes the live blocks everywhere, 1 << 12
    # keeps the smallest pairs in one slab, and 1 << 24 holds up to (24, 24)
    params = Params(t=0.3)
    monkeypatch.setattr(discrete, "_SLAB_BYTES", budget)
    rng = np.random.default_rng(budget)
    for two_n, two_m in ((0, 0), (1, 2), (4, 4), (8, 5), (8, 8), (24, 24), (24, 16), (17, 9)):
        for support in _supports(two_n, two_m).values():
            a = AlgElement({k: rng.standard_normal((k + 1, k + 1)) + 0.5j for k in support})
            np.testing.assert_array_equal(
                coproduct_component(params, a, two_n, two_m), reference_coproduct_component(params, a, two_n, two_m)
            )


@pytest.mark.parametrize("two_n, two_m", ((18, 17), (21, 20)))
def test_coproduct_component_moves_only_by_roundoff_with_the_slab_size(monkeypatch, two_n, two_m):
    # at t = 0.3 these pairs change in the last bits once the one padded
    # slab takes them (budgets 1 << 24 and 1 << 30), so a new budget is a
    # roundoff move, held here to 1e-15 of the largest entry
    params = Params(t=0.3)
    rng = np.random.default_rng(two_n)
    support = index_set(two_n, two_m)
    a = AlgElement({k: rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1)) for k in support})
    default = coproduct_component(params, a, two_n, two_m)
    for budget in (1, 1 << 12, 1 << 24, 1 << 30):
        monkeypatch.setattr(discrete, "_SLAB_BYTES", budget)
        got = coproduct_component(params, a, two_n, two_m)
        assert max_abs(got - default) <= 1e-15 * max_abs(default), budget


@pytest.mark.parametrize("t", (1e-8, 0.3, 2.0, 10.0, 50.0))
def test_the_slab_and_per_weight_routes_agree_bit_for_bit_up_to_doubled_spin_8(monkeypatch, t):
    # `verify.coassociativity_residuals` lifts a battery in chunks, and a
    # shorter stack can move a call from the per-weight route to the slab;
    # its residuals stay put because on every pair with 2n, 2m <= 8, all
    # the pairs its lifts use up to cap 8, the two routes give the same
    # bits.  Past that domain they need not (the roundoff test above)
    params = Params(t=t)
    rng = np.random.default_rng(int(10 * t) + 1)
    try:
        for two_n in range(9):
            for two_m in range(9):
                for support in _supports(two_n, two_m).values():
                    blocks = {k: rng.standard_normal((3, 2, k + 1, k + 1, 2)) @ [1, 1j] for k in support}
                    routes = []
                    for budget in (0, 1 << 40):
                        monkeypatch.setattr(discrete, "_SLAB_BYTES", budget)
                        routes.append(coproduct_blocks(params, blocks, two_n, two_m))
                    assert np.array_equal(*routes, equal_nan=True), (two_n, two_m, sorted(support))
    finally:
        decompose.cache_clear()


STACK_PAIRS = [(two_n, two_m) for two_n in range(9) for two_m in range(9)] + [(12, 12), (14, 9), (20, 20)]


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
def test_coproduct_blocks_on_a_stack_is_coproduct_component_item_by_item(t):
    """Stacks of 1, 3 and 40 elements, the supports of `_supports` taken in
    turn, match `coproduct_component` on each item bit for bit.  A short
    stack on a small pair fits `_SLAB_BYTES` (one element on (4, 4) takes
    18 kB of it) and a long one does not (40 on (8, 8) take 7.9 MB), so
    both routes run; the leading shape of a stack is kept."""
    params = Params(t=t)
    rng = np.random.default_rng(int(10 * t))
    for two_n, two_m in STACK_PAIRS:
        try:
            with np.errstate(over="ignore"):
                decompose(params, two_n, two_m)
        except ValueError:
            # the spins are past what t allows: (20, 20) at t = 50
            continue
        supports = list(_supports(two_n, two_m).values())
        for count in (1, 3, 40):
            elements = [
                AlgElement({k: rng.standard_normal((k + 1, k + 1, 2)) @ [1, 1j] for k in supports[i % len(supports)]})
                for i in range(count)
            ]
            support = set().union(*(a.blocks for a in elements))
            blocks = {k: np.array([a.block(k) for a in elements]) for k in support}
            stack = coproduct_blocks(params, blocks, two_n, two_m)
            for a, item in zip(elements, stack, strict=True):
                assert np.array_equal(item, coproduct_component(params, a, two_n, two_m)), (two_n, two_m, count)
        shaped = {k: b.reshape(8, 5, k + 1, k + 1) for k, b in blocks.items()}
        assert np.array_equal(coproduct_blocks(params, shaped, two_n, two_m), stack.reshape(8, 5, *stack.shape[1:]))
    decompose.cache_clear()


def test_decomposition_residuals_match_the_dense_route():
    params = Params(t=0.3)
    try:
        for two_n, two_m in SMALL_PAIRS:
            got = decomposition_residuals(params, two_n, two_m)
            expected = reference_residuals(params, two_n, two_m)
            assert got.keys() == expected.keys()
            for key in got:
                assert got[key] <= 1e-9 and expected[key] <= 1e-9, (two_n, two_m, key)
                assert abs(got[key] - expected[key]) <= 1e-13, (two_n, two_m, key, got[key], expected[key])
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("broken_spin", (1, 2, 3))
@pytest.mark.parametrize("gen, fault", [("e", 1e-6j), ("e", 1e-6), ("q", 1e-6)])
def test_intertwining_sees_a_fault_in_any_one_factor(monkeypatch, broken_spin, gen, fault):
    """Spin-1 (x) 1/2 = 1/2 + 3/2 reads the factors of doubled spins 2 (left
    leg), 1 (right leg and a summand) and 3 (a summand).  An imaginary part
    or a real entry off the diagonal in the e of any one of them fails, and
    so does a changed eigenvalue of its q."""
    plain = clebsch.build_rep

    def build_rep_with_fault(params, two_n, sign=1):
        rep = plain(params, two_n, sign)
        if two_n != broken_spin:
            return rep
        mat = getattr(rep, gen).copy()
        mat[-1, -1 if gen == "q" else 0] += fault
        return dataclasses.replace(rep, **{gen: mat})

    decompose(PARAMS_03, 2, 1)
    monkeypatch.setattr(clebsch, "build_rep", build_rep_with_fault)
    assert decomposition_residuals(PARAMS_03, 2, 1)["intertwining"] > PARAMS_03.tol_abs


def _broken(monkeypatch, dec, blocks):
    """Serve a decomposition whose blocks are replaced, pieces rebuilt from them."""
    broken = dataclasses.replace(dec, blocks=blocks)
    monkeypatch.setattr(clebsch, "decompose", lambda *args: broken)


@pytest.mark.parametrize("two_n, two_m", [(1, 1), (3, 2), (4, 4), (6, 3)])
def test_certificates_fail_on_a_flipped_column(monkeypatch, two_n, two_m):
    params = Params(t=0.3)
    dec = decompose(params, two_n, two_m)
    # the middle weight holds every spin; flip the vector of the largest
    blocks = dec.blocks.copy()
    blocks[(two_n + two_m) // 2, :, -1] *= -1.0
    _broken(monkeypatch, dec, blocks)
    assert max(decomposition_residuals(params, two_n, two_m).values()) > params.tol_abs


@pytest.mark.parametrize("two_n, two_m", [(1, 1), (3, 2), (4, 4), (6, 3)])
def test_certificates_fail_on_a_perturbed_entry(monkeypatch, two_n, two_m):
    params = Params(t=0.3)
    dec = decompose(params, two_n, two_m)
    blocks = dec.blocks.copy()
    blocks[(two_n + two_m) // 2, 0, -1] += 1e-6
    _broken(monkeypatch, dec, blocks)
    res = decomposition_residuals(params, two_n, two_m)
    assert res["orthonormality"] >= 1e-7 and res["completeness"] >= 1e-7


@pytest.mark.parametrize("t", (0.05, 0.3))
def test_orthonormality_sees_an_entry_off_its_weight(monkeypatch, t):
    """The blocks cannot hold an entry off its weight; the row map can put
    a block row on a product vector of another weight, or on one that
    already has a row.  Either must fail by its full size, not scaled down
    by the q eigenvalue gap as in q intertwining."""
    params = Params(t=t)
    dec = decompose(params, 2, 2)
    # weight index 1 holds product vectors 1 = (0, 1) and 3 = (1, 0),
    # weight index 2 holds 2 = (0, 2), 4 = (1, 1) and 6 = (2, 0)
    swapped = dec.rows.copy()
    swapped[1, 0], swapped[2, 0] = swapped[2, 0], swapped[1, 0]
    doubled = dec.rows.copy()
    doubled[2, 1] = doubled[2, 0]
    for rows in (swapped, doubled):
        monkeypatch.setattr(clebsch, "decompose", lambda *args: dataclasses.replace(dec, rows=rows))
        assert decomposition_residuals(params, 2, 2)["orthonormality"] >= 1.0


def test_pieces_are_built_on_first_read_only():
    params = Params(t=0.3)
    rng = np.random.default_rng(5)
    try:
        for two_n, two_m in ((3, 2), (8, 8), (16, 10)):
            dec = decompose(params, two_n, two_m)
            a = AlgElement({k: rng.standard_normal((k + 1, k + 1)) for k in index_set(two_n, two_m)})
            coproduct_component(params, a, two_n, two_m)
            decomposition_residuals(params, two_n, two_m)
            assert "pieces" not in vars(dec)
            pieces = dec.pieces
            assert "basis" in vars(dec)
            assert "pieces" in vars(dec)
            assert dec.pieces is pieces
            assert dec.piece(two_n + two_m) is pieces[-1]
            expected = reference_pieces(dec)
            assert [p.two_k for p in pieces] == index_set(two_n, two_m)
            for piece, v in zip(pieces, expected):
                assert piece.v.dtype == complex and piece.v.shape == v.shape
                np.testing.assert_array_equal(piece.v, v)
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("pair", [(0, 0), (1, 1), (3, 2), (16, 10), (24, 24)])
def test_columns_slice_the_basis_into_the_pieces(pair):
    """``columns`` tiles 0..dim with one slice per spin, ascending, and each
    slice of the real ``basis`` is its piece, whose imaginary part is zero."""
    dec = decompose(PARAMS_03, *pair)
    assert list(dec.columns) == index_set(*pair)
    bounds = [(cols.start, cols.stop) for cols in dec.columns.values()]
    assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
    assert bounds[-1][1] == dec.basis.shape[1] == dec.basis.shape[0]
    assert all(cols.step is None for cols in dec.columns.values())
    for two_k, cols in dec.columns.items():
        piece = dec.piece(two_k)
        assert np.array_equal(dec.basis[:, cols], piece.v.real)
        assert not piece.v.imag.any()


def _qnum(t, x):
    return np.sinh(x * t) / np.sinh(t)


@pytest.mark.parametrize("t", (0.3, 1.0))
def test_singular_values_are_the_spin_amplitudes(t):
    """Column i of the weight-s block is row j of V_k; B_w scales it by the
    amplitude r^(k)_(j-1) = sqrt([k - j + 1] [j]) taking row j up to j - 1,
    and a new highest weight (j = 0) by zero."""
    params = Params(t=t)
    try:
        for two_n, two_m in SMALL_PAIRS:
            dec = decompose(params, two_n, two_m)
            two_ks = np.array(index_set(two_n, two_m))
            top = two_n + two_m
            j = np.arange(top + 1)[:, None] - (top - two_ks) // 2
            present = (j >= 0) & (j <= two_ks)
            expected = np.sqrt(_qnum(t, np.where(present, two_ks - j + 1, 0)) * _qnum(t, np.where(present, j, 0)))
            np.testing.assert_array_equal(dec.singular_values[~present | (j == 0)], 0.0)
            lowered = present & (j > 0)
            rel = np.abs(dec.singular_values[lowered] - expected[lowered]) / expected[lowered]
            assert rel.max(initial=0.0) <= 1e-12, (two_n, two_m, rel.max())
    finally:
        decompose.cache_clear()


def test_singular_gap_reads_the_closed_form_amplitudes():
    params = Params(t=0.3)
    assert decompose(params, 0, 4).singular_gap is None
    assert decompose(params, 3, 0).singular_gap is None
    # 1/2 (x) 1/2: the middle weight holds the singlet (0) and the triplet
    # vector raised by r^(2)_0 = sqrt([2] [1]), so the gap is the whole of it
    assert decompose(params, 1, 1).singular_gap == 1.0
    for two_n, two_m in ((2, 2), (5, 3), (8, 8), (16, 11)):
        top = two_n + two_m
        gaps = []
        for s in range(top + 1):
            # the spins at weight index s, each at row j of its V_k
            amps = sorted(
                np.sqrt(_qnum(params.t, two_k - j + 1) * _qnum(params.t, j))
                for two_k in index_set(two_n, two_m)
                for j in [s - (top - two_k) // 2]
                if 0 <= j <= two_k
            )
            if len(amps) > 1:
                gaps.append(np.min(np.diff(amps)) / amps[-1])
        assert abs(decompose(params, two_n, two_m).singular_gap - min(gaps)) <= 1e-9 * min(gaps)

"""The dual maps and product on cached factors and one compression per pair.

The reference below is the form the compressed product replaced:
`dual_mul` as a sum over the dense pieces, two complex products per spin.
The product must match it to roundoff, and the antipode, its inverse and
the star must equal the shipped block maps exactly; the modular maps are
pinned to the matrix-unit probe in `test_dual.py`.
"""

import numpy as np
import pytest

from suq2.clebsch import decompose
from suq2.discrete import antipode_block, antipode_inv_block
from suq2.dual import (
    DualElement,
    _block_factor,
    _modular_block,
    _modular_inv_block,
    dual_antipode,
    dual_antipode_inv,
    dual_mul,
    dual_star,
)
from suq2.params import Params
from suq2.util import max_abs

TS = (0.1, 0.3, 1.0, 2.0)
# float64 roundoff of sums of up to 169 products with orthonormal factors,
# with headroom; fixed before the comparison was first run
REL_TOL = 1e-13


def reference_dual_mul(params, x, y):
    """sum over (n, m) and k of V_k^T kron(y_n, x_m) conj(V_k) on the dense pieces."""
    out = {}
    for two_n in y.support:
        for two_m in x.support:
            kron = np.kron(y.blocks[two_n], x.blocks[two_m])
            for piece in decompose(params, two_n, two_m).pieces:
                contrib = piece.v.T @ kron @ piece.v.conj()
                out[piece.two_k] = out[piece.two_k] + contrib if piece.two_k in out else contrib
    return DualElement(out)


def _random_dual(rng, two_ns):
    return DualElement(
        {n: rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1)) for n in two_ns}
    )


@pytest.mark.parametrize("t", TS)
def test_dual_mul_matches_the_per_piece_reference(t):
    params = Params(t=t)
    rng = np.random.default_rng(41)
    supports = [[0], [12], [1, 12], [0, 5, 9], *(sorted(rng.choice(13, size=3, replace=False)) for _ in range(4))]
    for sx in supports:
        for sy in supports[::-1]:
            x, y = _random_dual(rng, sx), _random_dual(rng, sy)
            got, ref = dual_mul(params, x, y), reference_dual_mul(params, x, y)
            assert got.support == ref.support
            for two_k in ref.support:
                err = max_abs(got.blocks[two_k] - ref.blocks[two_k])
                assert err <= REL_TOL * max_abs(ref.blocks[two_k]), (t, sx, sy, two_k, err)


def test_dual_mul_reads_the_basis_not_the_pieces():
    params = Params(t=0.3)
    rng = np.random.default_rng(42)
    decompose.cache_clear()
    try:
        dual_mul(params, _random_dual(rng, [2, 5]), _random_dual(rng, [3]))
        for two_n, two_m in ((3, 2), (3, 5)):
            dec = decompose(params, two_n, two_m)
            assert "pieces" not in vars(dec)
            basis = dec.basis
            assert dec.basis is basis and not basis.flags.writeable
            assert max_abs(basis.T @ basis - np.eye(basis.shape[0])) < 1e-14
    finally:
        decompose.cache_clear()


MAPS = {
    "antipode": (dual_antipode, lambda p, n, m: antipode_inv_block(p, n, m)),
    "antipode_inv": (dual_antipode_inv, lambda p, n, m: antipode_block(p, n, m)),
    "star": (dual_star, lambda p, n, m: antipode_block(p, n, m).conj().T),
}


@pytest.mark.parametrize("t", TS)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_dual_maps_apply_the_shipped_block_maps(t, name):
    """S, S^-1 and the star rescale each entry by one rounded factor, as
    the block maps do, so they agree bit for bit."""
    params = Params(t=t)
    b = _random_dual(np.random.default_rng(43), range(17))
    dual_map, block_map = MAPS[name]
    got = dual_map(params, b)
    ref = b.map(lambda n, m: block_map(params, n, m))
    assert got.support == ref.support
    for two_n in ref.support:
        np.testing.assert_array_equal(got.blocks[two_n], ref.blocks[two_n])


def test_block_factors_are_cached_per_params_and_read_only():
    low, high = Params(t=0.3), Params(t=0.5)
    for block_map in (antipode_block, antipode_inv_block, _modular_block, _modular_inv_block):
        factor = _block_factor(low, block_map, 4)
        assert _block_factor(Params(t=0.3), block_map, 4) is factor
        assert not factor.flags.writeable
        assert not np.allclose(_block_factor(high, block_map, 4), factor)


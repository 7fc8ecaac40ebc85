"""The dual picture: matrix coefficients of the compact quantum SU(2).

A functional on the direct-sum algebra with finite support is stored as a
family of coefficient matrices, one per block, paired by

    <a, b> = sum_n sum_(r,s) B^(n)[r, s] * a_n[r, s]        (no conjugation).

Products, coproduct evaluations, antipode and star on this dual side are
all *transposes* of the corresponding structure maps of the direct-sum
side under the pairing:

    <a, x y>    = <D(a), y (x) x>          (y pairs against the first leg)
    <a, S(b)>   = <S^-1(a), b>
    <a, b*>     = conj(<S(a*), b>)

The block maps behind the antipode and the modular data are their own
transposes under this pairing: the unitary antipode R(a) = P^T a^T P has
transpose P b^T P^T, which is R(b) again for either parity of the spin;
the imaginary scaling tau_(is) and right multiplication by the diagonal
modular element delta are entrywise rescalings; and R commutes with
tau_(is).  On the matrix units of the direct sum,
S(e_(r,s)) = (-1)^(s-r) lam^(s-r) e_(-s,-r), and the transposes come out
block by block in closed form:

    S(b)_n        = S^-1(b_n)            S^-1(b)_n     = S(b_n)
    (b*)_n        = S(b_n)^*  (conjugate transpose)
    sigma(b)_n    = S^-2(b_n) delta      sigma^-1(b)_n = S^2(b_n) delta^-1

Each of these is a fixed entrywise factor times an index move of the
block: flip and transpose for S and S^-1, flip and conjugation for the
star, none for sigma and sigma^-1.  The factor is the block map of
`suq2.discrete` applied to the all-ones block, computed once per
(params, map, spin) and kept read-only, so every map keeps one
implementation and a dual map costs one multiply per block.

The product is the transpose of the coproduct.  For a block pair (n, m)
the V_k of `decompose` side by side form the real orthogonal change of
basis V = [V_k] of spin-n (x) spin-m (`Decomposition.basis`), and the
spin-k coefficient blocks the pair contributes are the diagonal blocks
of V^T kron(y_n, x_m) V.  `dual_mul` takes the product with V once per
pair and each diagonal block from it, in real-times-complex arithmetic;
the blocks off the diagonal are never formed.

The 2x2 family u of matrix units of the spin-1/2 block is a unitary
corepresentation whose entries alpha = u[1/2,1/2] and gamma = u[-1/2,1/2]
satisfy the defining commutation relations of the compact quantum SU(2)
with parameter 1/lam; the verification battery checks those relations,
unitarity, the Haar values and the modular data numerically.
"""

from functools import lru_cache, partial

import numpy as np

from .clebsch import decompose
from .discrete import (
    AlgElement,
    BlockSum,
    antipode_block,
    antipode_inv_block,
    modular_element_block,
)
from .params import Params
from .util import read_only, weight_index, worst


class DualElement(BlockSum):
    """Finitely supported functional, one coefficient matrix per block.

    All of its structure comes from ``BlockSum``: the product of
    functionals is ``dual_mul``, so ``*`` takes scalars only."""

    __slots__ = ()


def dual_unit() -> DualElement:
    """The unit of the dual algebra: the counit of the direct-sum side."""
    return DualElement({0: np.array([[1.0]], dtype=complex)})


def pair(a: AlgElement, b: DualElement) -> complex:
    """<a, b> = sum over shared blocks of the entrywise products."""
    total = 0.0 + 0.0j
    for two_n in a.blocks.keys() & b.blocks.keys():
        total += np.sum(b.blocks[two_n] * a.blocks[two_n])
    return complex(total)


def dual_mul(params: Params, x: DualElement, y: DualElement) -> DualElement:
    """Product of functionals: <a, x y> = <D(a), y (x) x>.

    The coefficient block of x y at spin k collects, over all pairs (n, m)
    with n in supp(y) and m in supp(x), the compression V_k^T K V_k of
    K = kron(y_n, x_m) by the real summand isometry of spin k.  Per pair,
    K^T V = (V^T K)^T is formed once with the pair's orthogonal
    `Decomposition.basis` V = [V_k], and each spin's compression is then
    (V_k^T (K^T V)_k)^T on its own columns: about half the arithmetic of
    V^T K V, and every product real times complex.
    """
    out = {}
    for two_n in y.support:
        for two_m in x.support:
            dec = decompose(params, two_n, two_m)
            # kron(y_n, x_m), C-ordered for the float view
            y_n, x_m = y.blocks[two_n], x.blocks[two_m]
            kron = np.multiply(y_n[:, None, :, None], x_m[None, :, None, :], order="C").reshape(dec.basis.shape)
            # K^T V = (V^T K)^T, C-ordered for the float view of its columns
            kv = np.ascontiguousarray((dec.basis.T @ kron.view(float)).view(complex).T)
            for two_k, cols in dec.columns.items():
                contrib = (dec.basis[:, cols].T @ kv[:, cols].view(float)).view(complex).T
                if two_k in out:
                    out[two_k] += contrib
                else:
                    out[two_k] = contrib
    return DualElement._wrap(out)


def dual_counit(b: DualElement) -> complex:
    """Pairing with the local unit over the support of b."""
    return complex(sum(np.trace(m) for m in b.blocks.values()))


def _modular_block(params: Params, two_n: int, mat: np.ndarray) -> np.ndarray:
    """S^-2(a) delta on one block."""
    lifted = antipode_inv_block(params, two_n, antipode_inv_block(params, two_n, mat))
    return lifted * np.diag(modular_element_block(params, two_n))


def _modular_inv_block(params: Params, two_n: int, mat: np.ndarray) -> np.ndarray:
    """S^2(a) delta^-1 on one block."""
    lowered = antipode_block(params, two_n, antipode_block(params, two_n, mat))
    return lowered / np.diag(modular_element_block(params, two_n))


@lru_cache(maxsize=None)
def _block_factor(params: Params, block_map, two_n: int) -> np.ndarray:
    """The entrywise factor of ``block_map`` on the spin-(two_n/2) block.

    ``block_map(params, two_n, mat)`` must be a signed rescaling of the
    entries of ``mat``, after an index move that keeps the all-ones block;
    the factor is its value there.  Memoized per (params, block_map,
    two_n), read-only.
    """
    return read_only(block_map(params, two_n, np.ones((two_n + 1, two_n + 1))))


def dual_antipode(params: Params, b: DualElement) -> DualElement:
    """S on the dual: <a, S(b)> = <S^-1(a), b>.

    Blockwise S(b)_n = S^-1(b_n), so on matrix coefficients
    S(e_(r,s)) = (-1)^(s-r) lam^(r-s) e_(-s,-r).
    """
    return DualElement._wrap(
        {n: _block_factor(params, antipode_inv_block, n) * m[::-1, ::-1].T for n, m in b.blocks.items()}
    )


def dual_antipode_inv(params: Params, b: DualElement) -> DualElement:
    """S^-1 on the dual: <a, S^-1(b)> = <S(a), b>.

    Blockwise S^-1(b)_n = S(b_n), so on matrix coefficients
    S^-1(e_(r,s)) = (-1)^(s-r) lam^(s-r) e_(-s,-r).
    """
    return DualElement._wrap(
        {n: _block_factor(params, antipode_block, n) * m[::-1, ::-1].T for n, m in b.blocks.items()}
    )


def dual_star(params: Params, b: DualElement) -> DualElement:
    """Star on the dual: <a, b*> = conj(<S(a*), b>).

    Blockwise (b*)_n = S(b_n)^* (conjugate transpose), so on matrix
    coefficients (e_(r,s))* = (-1)^(s-r) lam^(s-r) e_(-r,-s).  S has a
    real factor, so the star's is its transpose.
    """
    return DualElement._wrap(
        {n: _block_factor(params, antipode_block, n).T * m[::-1, ::-1].conj() for n, m in b.blocks.items()}
    )


def dual_haar(b: DualElement) -> complex:
    """The Haar state: pairing with the cointegral (spin-0 coefficient)."""
    return complex(b.block(0)[0, 0])


def dual_modular(params: Params, b: DualElement) -> DualElement:
    """Modular automorphism of the Haar state:
    <a, sigma(b)> = <S^-2(a) delta, b> with delta the modular element.

    Blockwise sigma(b)_n = S^-2(b_n) delta, so on matrix coefficients
    sigma(e_(r,s)) = lam^(2(r+s)) e_(r,s).
    """
    return DualElement._wrap({n: _block_factor(params, _modular_block, n) * m for n, m in b.blocks.items()})


def dual_modular_inv(params: Params, b: DualElement) -> DualElement:
    """Inverse modular automorphism:
    <a, sigma^-1(b)> = <S^2(a delta^-1), b>.

    Blockwise sigma^-1(b)_n = S^2(b_n) delta^-1, so on matrix coefficients
    sigma^-1(e_(r,s)) = lam^(-2(r+s)) e_(r,s).
    """
    return DualElement._wrap({n: _block_factor(params, _modular_inv_block, n) * m for n, m in b.blocks.items()})


# ---------------------------------------------------------------------------
# the fundamental 2x2 corepresentation
# ---------------------------------------------------------------------------

#: Doubled-weight labels of the two rows/columns, highest first.
U_LABELS = (1, -1)


def u_entry(two_i: int, two_j: int) -> DualElement:
    """Matrix coefficient u[i, j] of the spin-1/2 block: <a, u[i,j]> = a[i, j]."""
    mat = np.zeros((2, 2), dtype=complex)
    mat[weight_index(1, two_i), weight_index(1, two_j)] = 1.0
    return DualElement({1: mat})


def u_entries() -> dict:
    """All four entries keyed by doubled weights (row, column)."""
    return {(i, j): u_entry(i, j) for i in U_LABELS for j in U_LABELS}


def unitarity_residuals(params: Params) -> dict:
    """Unitarity of u via the antipode: S(u) is the inverse of u on both
    sides, entry by entry in the 2x2 matrix algebra over the dual."""
    u = u_entries()
    su = {key: dual_antipode(params, entry) for key, entry in u.items()}
    left = []
    right = []
    for i, j in u:
        target = dual_unit() if i == j else DualElement()
        left.append((sum((dual_mul(params, su[i, k], u[k, j]) for k in U_LABELS), DualElement()) - target).norm())
        right.append((sum((dual_mul(params, u[i, k], su[k, j]) for k in U_LABELS), DualElement()) - target).norm())
    return {"S(u) u = 1": worst(left), "u S(u) = 1": worst(right)}


def woronowicz_residuals(params: Params) -> dict:
    """The defining relations of the compact quantum SU(2) at 1/lam,
    expressed through alpha = u[1/2,1/2] and gamma = u[-1/2,1/2]."""
    lam = params.lam
    alpha = u_entry(1, 1)
    gamma = u_entry(-1, 1)
    alpha_s = dual_star(params, alpha)
    gamma_s = dual_star(params, gamma)
    one = dual_unit()
    mul = partial(dual_mul, params)
    return {
        "alpha gamma = gamma alpha / lam": (mul(alpha, gamma) - (1.0 / lam) * mul(gamma, alpha)).norm(),
        "alpha gamma* = gamma* alpha / lam": (mul(alpha, gamma_s) - (1.0 / lam) * mul(gamma_s, alpha)).norm(),
        "gamma gamma* = gamma* gamma": (mul(gamma, gamma_s) - mul(gamma_s, gamma)).norm(),
        "alpha* alpha + gamma* gamma = 1": (mul(alpha_s, alpha) + mul(gamma_s, gamma) - one).norm(),
        "alpha alpha* + gamma* gamma / lam^2 = 1": (
            mul(alpha, alpha_s) + (1.0 / lam**2) * mul(gamma_s, gamma) - one
        ).norm(),
    }


def span_check(params: Params, two_k_max: int) -> dict:
    """Numerical evidence that products of u-entries fill every block.

    Stacks the coefficient matrices of all products of at most
    ``two_k_max`` entries of u (the empty product is the unit) and reports,
    per block two_k <= two_k_max, ``{"rank": int, "expected": int, "gap":
    float}``: the numerical rank, the full rank (two_k + 1)^2 and the
    smallest retained singular value.  The 4^L products of length L are
    never listed: right multiplication by u is linear, so the rows s_i v_i
    of their SVD, cut at ``tol_rel``, times the four entries have the Gram
    matrix, hence the singular values, of the products of length L + 1.
    """
    entries = list(u_entries().values())
    products = [dual_unit()]
    layer = [dual_unit()]
    for _ in range(two_k_max):
        step = [dual_mul(params, p, u) for p in layer for u in entries]
        spins = sorted(set().union(*(p.blocks for p in step)))
        stack = [np.concatenate([p.block(k).ravel() for k in spins]) for p in step]
        _, sing, vh = np.linalg.svd(stack, full_matrices=False)
        cuts = np.cumsum([(k + 1) ** 2 for k in spins])[:-1]
        layer = [
            DualElement({k: b.reshape(k + 1, k + 1) for k, b in zip(spins, np.split(row, cuts))})
            for row in (sing[:, None] * vh)[sing > params.tol_rel * sing[0]]
        ]
        products.extend(layer)

    report = {}
    for two_k in range(0, two_k_max + 1):
        rows = [p.blocks[two_k].reshape(-1) for p in products if two_k in p.blocks]
        expected = (two_k + 1) ** 2
        stack = np.array(rows)
        sing = np.linalg.svd(stack, compute_uv=False)
        cutoff = params.tol_rel * float(sing[0])
        rank = int(np.sum(sing > cutoff))
        gap = float(sing[rank - 1]) if rank else 0.0
        report[two_k] = {"rank": rank, "expected": expected, "gap": gap}
    return report

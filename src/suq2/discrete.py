"""The discrete quantum group built on the dual of the representation theory.

The function algebra is the algebraic direct sum  A = (+)_n M_(2n+1)(C)
over all doubled spins, one full matrix block per irreducible.  An element
is a finite family of blocks; products, sums and the star act blockwise.
The comultiplication of an element is specified by its components

    D(a)_(n,m) = sum_k V_k a_k V_k*        (k in the index set of (n, m)),

living on the tensor product of the spin-n and spin-m blocks, where the
V_k are the summand isometries of the tensor product decomposition.  The
components are applied one weight at a time from the decomposition's
orthogonal per-weight blocks, to a whole stack of elements in one call
(`coproduct_blocks`), so no dense V_k is built for them.  On
top of this sit a counit (the spin-0 entry), a polar-decomposed antipode
S = R o tau_(-i/2) built from the unitary antipode R, a signed index
reversal and transpose on each block, and the analytic continuation of the
scaling group, a cointegral h (the unit of the spin-0 block), and
left/right invariant integrals with modular data q^4.  All of these admit
closed forms on matrix units, which is what the verification batteries
pin down.

Elements of A (``AlgElement``), families of two-leg components
(``BiElement``, keyed by (n, m)) and the dual's coefficient functionals
(``suq2.dual.DualElement``) share the storage base ``BlockSum``: a dict of
square complex blocks with exactly-zero blocks dropped, its linear
structure and blockwise maps.  ``AlgElement`` and ``BiElement`` take their
blockwise product and star from one private base, ``_MatrixBlocks``.
"""

from functools import lru_cache

import numpy as np

from .clebsch import decompose, index_set
from .params import Params
from .reps import build_rep, evaluate
from .util import max_abs, read_only, weight_index, weights, worst
from .words import AlgPoly

# bytes of the padded (items, weights, spins, product vectors) intermediate,
# the whole stack counted, up to which `coproduct_blocks` takes every weight
# in one batched product; past it each weight runs on its live block.  The
# routes can differ in the last bits, so moving it is a declared roundoff move.
# It also sizes the chunks `verify.coassociativity_residuals` lifts, which
# moves no bit up to cap 8: on every pair with 2n, 2m <= 8 the routes agree
_SLAB_BYTES = 1 << 19


class BlockSum:
    """Finite family of square complex blocks keyed by block label.

    Holds the shape check, the pruning of exactly-zero blocks, sums, scalar
    multiples, the norm and blockwise maps; subclasses add their own
    products.  ``_dim`` gives the block side for a key: a doubled spin
    two_n by default, overridden for other labels.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks=None):
        self.blocks = {}
        if blocks:
            for key, mat in blocks.items():
                key = tuple(map(int, key)) if isinstance(key, tuple) else int(key)
                mat = np.asarray(mat, dtype=complex)
                dim = self._dim(key)
                if mat.shape != (dim, dim):
                    raise ValueError(f"block {key} must be {dim} x {dim}, got {mat.shape}")
                if np.count_nonzero(mat):
                    self.blocks[key] = mat

    @classmethod
    def _wrap(cls, blocks):
        """An instance taking ownership of ``blocks``, a fresh dict the
        library built, with normalised keys and complex blocks of the right
        shape; exactly-zero blocks are pruned in place, nothing is checked."""
        for key in [key for key, mat in blocks.items() if not np.count_nonzero(mat)]:
            del blocks[key]
        out = cls.__new__(cls)
        out.blocks = blocks
        return out

    @staticmethod
    def _dim(two_n):
        return two_n + 1

    @property
    def support(self) -> list:
        return sorted(self.blocks)

    def block(self, *key) -> np.ndarray:
        """The block at ``key`` (zeros if absent)."""
        key = key if len(key) > 1 else key[0]
        if key in self.blocks:
            return self.blocks[key]
        dim = self._dim(key)
        return np.zeros((dim, dim), dtype=complex)

    def map(self, fn):
        """fn(key, block) on every block, keeping the element's type."""
        return type(self)({key: fn(key, mat) for key, mat in self.blocks.items()})

    def __add__(self, other):
        # the blocks of another kind have other keys or shapes
        if type(other) is not type(self):
            return NotImplemented
        out = {key: mat.copy() for key, mat in self.blocks.items()}
        for key, mat in other.blocks.items():
            out[key] = out[key] + mat if key in out else mat
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return self._wrap({key: scalar * mat for key, mat in self.blocks.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        return worst(max_abs(m) for m in self.blocks.values())

    def __repr__(self):
        return f"{type(self).__name__}(support={self.support})"


class _MatrixBlocks(BlockSum):
    """A *-algebra block by block: a product of two elements of one type
    multiplies matching blocks, and the star takes each block's adjoint."""

    __slots__ = ()

    def __mul__(self, other):
        if type(other) is type(self):
            shared = self.blocks.keys() & other.blocks.keys()
            return self._wrap({key: self.blocks[key] @ other.blocks[key] for key in shared})
        return super().__mul__(other)

    def star(self):
        return self.map(lambda key, m: m.conj().T)


class AlgElement(_MatrixBlocks):
    """Finitely supported element of the direct sum of matrix blocks."""

    __slots__ = ()


class BiElement(_MatrixBlocks):
    """Finitely supported element of the two-leg direct sum (+) A_n (x) A_m."""

    __slots__ = ()

    @staticmethod
    def _dim(key):
        return (key[0] + 1) * (key[1] + 1)


def matrix_unit(two_n: int, two_r: int, two_s: int) -> AlgElement:
    """The matrix unit e_(r, s) of the spin-(two_n/2) block, weight labels."""
    dim = two_n + 1
    m = np.zeros((dim, dim), dtype=complex)
    m[weight_index(two_n, two_r), weight_index(two_n, two_s)] = 1.0
    return AlgElement({two_n: m})


def one_window(window) -> AlgElement:
    """Local unit: identity on every block in the window."""
    return AlgElement({two_n: np.eye(two_n + 1, dtype=complex) for two_n in window})


def embed(params: Params, x: AlgPoly, window) -> AlgElement:
    """Evaluate a formal polynomial in every block of a finite window."""
    return AlgElement(
        {two_n: evaluate(build_rep(params, two_n, +1), x) for two_n in window}
    )


def counit(a: AlgElement) -> complex:
    """The spin-0 entry; the counit of the comultiplication below."""
    return complex(a.block(0)[0, 0])


def coproduct_component(params: Params, a: AlgElement, two_n: int, two_m: int) -> np.ndarray:
    """The (n, m) block of D(a) on the product basis, as a dense matrix."""
    return coproduct_blocks(params, a.blocks, two_n, two_m)


def coproduct_blocks(params: Params, blocks: dict, two_n: int, two_m: int) -> np.ndarray:
    """The (n, m) block of D on a stack of elements: ``blocks`` maps doubled
    spins k to stacks of one leading shape, (..., k + 1, k + 1), and the
    result is (..., dim, dim), each item with the arithmetic it has alone.

    The (w, w') block of sum_k V_k a_k V_k* is X_w A_(w,w') X_w'^T, with X_w
    the orthogonal weight blocks of the decomposition and A_(w,w') diagonal
    over the spins k, entries a_k[(k - w)/2, (k - w')/2]; only weights
    |w| <= the largest spin of a in the index set meet a.  Where the padded
    intermediate of those weights, for the whole stack, fits a fixed byte
    budget, they go through one batched real-times-complex product.  Past
    it, each weight multiplies only its live block, its product vectors by
    the spins that have the weight, and writes into its rows of the result,
    one strided run.  The dense V_k are never formed.
    """
    dim = (two_n + 1) * (two_m + 1)
    lead = next(iter(blocks.values())).shape[:-2] if blocks else ()
    two_ks = [k for k in index_set(two_n, two_m) if k in blocks]
    if not two_ks:
        return np.zeros(lead + (dim, dim), dtype=complex)
    dec = decompose(params, two_n, two_m)
    base, top = abs(two_n - two_m), two_ks[-1]
    size = (top - base) // 2 + 1
    lo = (two_n + two_m - top) // 2
    items = int(np.prod(lead))
    # amat[item, s - lo, i, s'] = a_k[j, j'] for the spin k = base + 2i,
    # whose weight indices s and s' sit at its rows j and j'
    amat = np.zeros((items, top + 1, size, two_n + two_m + 1), dtype=complex)
    for two_k in two_ks:
        s0, i = (two_n + two_m - two_k) // 2, (two_k - base) // 2
        amat[:, s0 - lo : s0 - lo + two_k + 1, i, s0 : s0 + two_k + 1] = blocks[two_k].reshape(items, two_k + 1, two_k + 1)
    coefficients = dec.coefficients[:size]
    weights_met = slice(lo, lo + top + 1)
    if 16 * items * size * dim * (top + 1) <= _SLAB_BYTES:
        # the rows of A V*, gathered by weight: columns of amat spread over
        # the product vectors of each weight, times their CG coefficients
        rows_av = np.take(amat, dec.weight_of, axis=3)
        rows_av *= coefficients
        out = (dec.blocks[weights_met, :, :size] @ rows_av.view(float)).view(complex)
        full = np.zeros((items, dim + 1, dim), dtype=complex)
        full[:, dec.rows[weights_met]] = out
        return full[:, :dim].reshape(lead + (dim, dim))
    # weight s holds count[s] product vectors and the count[s] largest
    # spins, from column first[s] on: its live block takes just the rows of
    # A V* of those spins, and its product vectors (p, s - p) are the rows
    # s + 2m p of the result, a strided run the product is written into
    count = np.count_nonzero(dec.rows[weights_met] < dim, axis=1)
    first = dec.blocks.shape[2] - count
    full = np.zeros((items, dim, dim), dtype=complex)
    step = max(two_m, 1)
    starts = dec.rows[weights_met, 0].tolist()
    for s, row, rows, col in zip(range(lo, lo + top + 1), starts, count.tolist(), first.tolist()):
        live = np.take(amat[:, s - lo, col:], dec.weight_of, axis=2)
        live *= coefficients[col:]
        run = full[:, row : row + step * (rows - 1) + 1 : step]
        np.matmul(dec.blocks[s, :rows, col:size], live.view(float), out=run.view(float))
    return full.reshape(lead + (dim, dim))


def coproduct_window(params: Params, a: AlgElement, pairs) -> BiElement:
    """D(a) restricted to a finite family of (n, m) block pairs."""
    return BiElement({(n, m): coproduct_component(params, a, n, m) for (n, m) in pairs})


# ---------------------------------------------------------------------------
# scaling group and antipode
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def conjugate_unitary(two_n: int) -> np.ndarray:
    """The signs (-1)^(2n - i), highest weight first, of the flip G: the
    conjugate-linear unitary G v = (signs * conj(v))[::-1], which sends the
    weight-j vector to (-1)^(n+j) times the weight-(-j) vector and squares
    to (-1)^(2n).  Memoized; the vector is read-only."""
    return read_only(np.array([(-1.0) ** (two_n - i) for i in range(two_n + 1)]))


def unitary_antipode_block(two_n: int, mat: np.ndarray) -> np.ndarray:
    """R(a) = G^-1 a* G on one block, or on a stack of blocks in the last
    two axes; the conjugations cancel, leaving the signed index reversal and
    transpose  R(a)[i, j] = signs[i] signs[j] a[2n - j, 2n - i],  the flip
    the dual maps apply.  The scaling maps and S, S^-1 built on it broadcast
    over stacks the same way."""
    signs = conjugate_unitary(two_n)
    return np.outer(signs, signs) * mat[..., ::-1, ::-1].swapaxes(-1, -2)


def scaling_block(params: Params, two_n: int, mat: np.ndarray, s: float) -> np.ndarray:
    """tau_s(a) = q^(-2is) a q^(2is) on one block (s real): tau_(is) at imaginary s."""
    return scaling_imag_block(params, two_n, mat, -1j * s)


def scaling_imag_block(params: Params, two_n: int, mat: np.ndarray, s: float) -> np.ndarray:
    """Analytic continuation tau_(is)(a) = q^(2s) a q^(-2s) on one block."""
    d = params.q_diag(two_n, 2 * s)
    return mat * np.outer(d, 1.0 / d)


def antipode_block(params: Params, two_n: int, mat: np.ndarray) -> np.ndarray:
    """S = R o tau_(-i/2) on one block."""
    return unitary_antipode_block(two_n, scaling_imag_block(params, two_n, mat, -0.5))


def antipode_inv_block(params: Params, two_n: int, mat: np.ndarray) -> np.ndarray:
    """S^-1 = tau_(i/2) o R on one block."""
    return scaling_imag_block(params, two_n, unitary_antipode_block(two_n, mat), +0.5)


def unitary_antipode(a: AlgElement) -> AlgElement:
    """The involutive *-antiautomorphism R; flips the comultiplication."""
    return a.map(unitary_antipode_block)


def scaling(params: Params, a: AlgElement, s: float) -> AlgElement:
    """One-parameter scaling group tau_s (s real); commutes with R."""
    return a.map(lambda n, m: scaling_block(params, n, m, s))


def scaling_imag(params: Params, a: AlgElement, s: float) -> AlgElement:
    """Entire extension tau_(is); s = -1 gives the antipode squared."""
    return a.map(lambda n, m: scaling_imag_block(params, n, m, s))


def antipode(params: Params, a: AlgElement) -> AlgElement:
    """S = R o tau_(-i/2); on matrix units S(e_(r,s)) = (-1)^(s-r) lam^(s-r) e_(-s,-r)."""
    return a.map(lambda n, m: antipode_block(params, n, m))


def antipode_inv(params: Params, a: AlgElement) -> AlgElement:
    return a.map(lambda n, m: antipode_inv_block(params, n, m))


# ---------------------------------------------------------------------------
# cointegral, integrals, modular structure
# ---------------------------------------------------------------------------


def cointegral() -> AlgElement:
    """The element h absorbing multiplication, a h = eps(a) h = h a;
    concretely the unit of the spin-0 block."""
    return AlgElement({0: np.array([[1.0]], dtype=complex)})


def _kind_sign(kind: str) -> float:
    """-1 for the left invariant integral, +1 for the right one: the power of
    q^2 its weights, and its modular automorphism, carry."""
    if kind not in ("left", "right"):
        raise ValueError(f"kind must be 'left' or 'right', got {kind!r}")
    return -1.0 if kind == "left" else 1.0


def quantum_dimension(params: Params, two_n: int) -> float:
    """sum_j lam^(2j) over the weights of the spin-(two_n/2) block."""
    return float(np.sum(params.q_diag(two_n, 2.0)))


def cointegral_coproduct(params: Params, two_n: int) -> np.ndarray:
    """The (n, n) block of D(h) in closed form:

        (1/c) sum_(r,s) (-1)^(s-r) lam^(r+s)  e_(-s,-r) (x) e_(s,r),

    with c the quantum dimension of the block.  It is the rank-1 orthogonal
    projection onto the canonical invariant vector of spin-n (x) spin-n.
    """
    dim = two_n + 1
    c = quantum_dimension(params, two_n)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for two_r in weights(two_n):
        for two_s in weights(two_n):
            row = weight_index(two_n, -two_s) * dim + weight_index(two_n, two_s)
            col = weight_index(two_n, -two_r) * dim + weight_index(two_n, two_r)
            sign = (-1.0) ** ((two_s - two_r) // 2)
            out[row, col] = sign * params.lam_pow(two_r + two_s) / c
    return out


def invariant_vector(params: Params, two_n: int) -> np.ndarray:
    """Unit vector spanning the range of the (n, n) block of D(h):

        (1/sqrt(c)) sum_k (-1)^(k+n) lam^k  xi_(-k) (x) xi_k.
    """
    dim = two_n + 1
    c = quantum_dimension(params, two_n)
    v = np.zeros(dim * dim, dtype=complex)
    for two_k in weights(two_n):
        pos = weight_index(two_n, -two_k) * dim + weight_index(two_n, two_k)
        v[pos] = (-1.0) ** ((two_k + two_n) // 2) * params.lam_pow(two_k)
    return v / np.sqrt(c)


def integral_weights(params: Params, two_n: int, kind: str) -> np.ndarray:
    """An invariant integral on the matrix units of one block, over its quantum
    dimension c, highest weight first: phi(e_(r,s)) = c d(r,s) lam^(-2r) for
    kind "left", psi(e_(r,s)) = c d(r,s) lam^(2r) for kind "right"."""
    return params.q_diag(two_n, 2 * _kind_sign(kind))


def block_integrals(params: Params, two_n: int, mats: np.ndarray, kind: str) -> np.ndarray:
    """An invariant integral of elements supported on block n, for a stack
    of blocks (the last two axes): c_n trace(a_n q^-2) for kind "left",
    c_n trace(a_n q^2) for kind "right"."""
    c = quantum_dimension(params, two_n)
    # c multiplies the sum, not the weights: folding it into exp(+-t w) rounds
    # the t = 2 modular certificates past their tolerance
    return c * np.sum(np.diagonal(mats, axis1=-2, axis2=-1) * integral_weights(params, two_n, kind), axis=-1)


def left_integral(params: Params, a: AlgElement) -> complex:
    """phi(a) = sum_n c_n trace(a_n q^-2); left invariant for D."""
    return complex(sum((block_integrals(params, two_n, mat, "left") for two_n, mat in a.blocks.items()), 0.0j))


def right_integral(params: Params, a: AlgElement) -> complex:
    """psi(a) = sum_n c_n trace(a_n q^2); right invariant for D."""
    return complex(sum((block_integrals(params, two_n, mat, "right") for two_n, mat in a.blocks.items()), 0.0j))


def modular_element_block(params: Params, two_n: int) -> np.ndarray:
    """Block of the modular element relating phi and psi; equals q^4."""
    return np.diag(params.q_diag(two_n, 4.0)).astype(complex)


def modular_automorphism(params: Params, a: AlgElement, kind: str) -> AlgElement:
    """The modular automorphism of the chosen invariant integral.

    kind "left":   sigma(a) = q^-2 a q^2   with  phi(a b) = phi(b sigma(a));
    kind "right":  sigma(a) = q^2 a q^-2   with  psi(a b) = psi(b sigma(a)).

    The two are mutually inverse: tau_(-+i), so sigma of phi is S^2.
    """
    return scaling_imag(params, a, _kind_sign(kind))


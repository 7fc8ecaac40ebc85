"""Tensor products of irreducible representations and their decomposition.

The comultiplication turns the tensor product of two irreducible
representations into a new representation with generator images

    D(q) = q (x) q,   D(e) = q (x) e + e (x) q^-1,   D(f) = q (x) f + f (x) q^-1,

on C^(dim_left * dim_right) in the lexicographic product basis (left factor
index major).  For spins n and m it decomposes as the direct sum of the
irreducibles k = |n - m|, ..., n + m, exactly as classically.  Each summand
is realized by an isometry V_k whose column j is the vector of doubled
weight two_k - 2j in the spin-k summand.

Every generator moves weights by a fixed amount, so the construction runs
one weight at a time, from the top weight down.  On the product vectors of
weight w, D(e) is a real bidiagonal matrix B_w into weight w + 2, with
positive entries lam^a r_b and r_a lam^-b.  It sends the weight-w column of
V_k to r^(k)_w times its weight-(w + 2) column, where r^(k)_w is the
spin-k amplitude: increasing in k, and zero only for k = w.  So the right
singular vectors of B_w are the weight-w columns of all V_k at once, in
the order of their singular values:

      * when w is in the index set, the zero singular value belongs to the
        highest weight vector of spin w.  Its entries alternate exactly (e
        kills it by a two-term recursion with positive coefficients), and
        it is signed so its first entry is positive;
      * every other column is signed so that its left singular vector
        overlaps positively with the weight-(w + 2) column it comes from.
        That makes it D(f) applied to that column divided by r^(k)_w: the
        lowering construction, with the same phase convention.

The multiplicities are known, so no rank cutoff is needed, and singular
vectors are orthonormal, so no normalization guard either.  The orthogonal
per-weight blocks are what `Decomposition` stores, with the singular
values beside them as a record of conditioning; the dense V_k are
scattered from them the first time they are read.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .params import Params
from .reps import Rep, build_rep
from .util import max_abs, read_only, weights, worst


@dataclass(frozen=True, eq=False)
class TensorRep:
    """Generator images on a tensor product of two irreducibles."""

    left: Rep
    right: Rep
    q: np.ndarray = field(repr=False)
    q_inv: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    two_weights: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.left.dim * self.right.dim

    @property
    def gen_matrices(self) -> dict:
        from .words import Gen

        return {Gen.Q: self.q, Gen.QINV: self.q_inv, Gen.E: self.e, Gen.F: self.f}


def tensor_rep(left: Rep, right: Rep) -> TensorRep:
    """Assemble the coproduct generator images on the product basis."""
    q = np.kron(left.q, right.q)
    q_inv = np.kron(left.q_inv, right.q_inv)
    e = np.kron(left.q, right.e) + np.kron(left.e, right.q_inv)
    f = np.kron(left.q, right.f) + np.kron(left.f, right.q_inv)
    wl = weights(left.two_n)
    wr = weights(right.two_n)
    two_weights = (wl[:, None] + wr[None, :]).reshape(-1)
    return TensorRep(left=left, right=right, q=q, q_inv=q_inv, e=e, f=f, two_weights=two_weights)


def index_set(two_n: int, two_m: int) -> list:
    """Doubled spins occurring in the spin-n (x) spin-m decomposition."""
    if two_n < 0 or two_m < 0:
        raise ValueError("doubled spins must be nonnegative")
    return list(range(abs(two_n - two_m), two_n + two_m + 1, 2))


@dataclass(frozen=True, eq=False)
class CGIsometry:
    """Isometry from the spin-k summand into spin-n (x) spin-m."""

    two_n: int
    two_m: int
    two_k: int
    v: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Complete family of summand isometries for one tensor product.

    ``blocks[s]`` is the real orthogonal change of basis on the product
    vectors of weight index s (doubled weight two_n + two_m - 2s): row r is
    the product basis vector ``rows[s, r]``, column i the spin
    |two_n - two_m| + 2i summand, zero where that spin lacks the weight.
    Rows past the subspace's dimension are zero, with ``rows`` set to the
    full dimension.  ``singular_values[s, i]`` is the singular value of B_w
    (w the weight of index s) that belongs to column i: the amplitude
    taking that vector up to weight w + 2, zero for a new highest weight
    and where the spin lacks the weight.

    The blocks are the construction.  ``coefficients[i, c]``, the entry of
    product vector c in spin column i, and ``weight_of[c]``, the weight
    index of product vector c, are read off them once.  The dense V_k are
    scattered from them only when ``pieces`` or ``piece(k)`` is first read,
    and then kept; `decomposition_residuals` scatters its own and drops
    them.  ``basis``, the V_k side by side as one real matrix, is likewise
    scattered on first read.  Every array is read-only: the object is
    shared by the cache of `decompose`.
    """

    two_n: int
    two_m: int
    blocks: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    weight_of: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)

    @cached_property
    def pieces(self) -> tuple:
        """The dense V_k as `CGIsometry`, spins ascending."""
        return self._scatter()

    @cached_property
    def basis(self) -> np.ndarray:
        """The V_k side by side, spins ascending: the real orthogonal change
        of basis of the whole tensor product, which `dual_mul` compresses
        with."""
        return read_only(np.hstack([p.v.real for p in self._scatter()]))

    def _scatter(self) -> tuple:
        """The dense V_k scattered from the blocks, anew on every call."""
        dim = (self.two_n + 1) * (self.two_m + 1)
        pieces = []
        for i, two_k in enumerate(index_set(self.two_n, self.two_m)):
            col = np.arange(two_k + 1)
            s = (self.two_n + self.two_m - two_k) // 2 + col
            v = np.zeros((dim + 1, two_k + 1), dtype=complex)
            v[self.rows[s], col[:, None]] = self.blocks[s, :, i]
            pieces.append(CGIsometry(two_n=self.two_n, two_m=self.two_m, two_k=two_k, v=read_only(v[:dim])))
        return tuple(pieces)

    def piece(self, two_k: int) -> CGIsometry:
        for p in self.pieces:
            if p.two_k == two_k:
                return p
        raise KeyError(two_k)

    @property
    def singular_gap(self):
        """Smallest relative singular gap of the construction: over the
        weights whose B_w fixes two or more vectors, the least distance
        between two of its singular values (a new highest weight's zero
        included) over its largest one.  None when no weight has two."""
        dim = (self.two_n + 1) * (self.two_m + 1)
        size = self.rows.shape[1]
        gaps = [
            np.min(np.diff(sv[size - count :])) / sv[-1]
            for sv, count in zip(self.singular_values, np.sum(self.rows < dim, axis=1))
            if count > 1
        ]
        return float(min(gaps)) if gaps else None


@lru_cache(maxsize=None)
def decompose(params: Params, two_n: int, two_m: int) -> Decomposition:
    """Decompose spin-n (x) spin-m into irreducible summands, weight by weight.

    Results are memoized per (params, two_n, two_m); the returned object is
    shared, and its arrays are read-only.  Raises ``ValueError`` when an
    entry of some B_w is not finite (t too large for the spins), before
    LAPACK would be handed it.
    """
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    size = len(index_set(two_n, two_m))
    dim = left.dim * right.dim
    q_left = np.exp(0.5 * params.t * weights(two_n))
    q_inv_right = np.exp(-0.5 * params.t * weights(two_m))

    # product vector c = (p, u), left and right index, has weight index
    # s = p + u and sits at row p - lo[s] of that weight's block, which
    # holds count[s] rows
    p, u = np.divmod(np.arange(dim), right.dim)
    weight_of = p + u
    lo = np.maximum(0, np.arange(two_n + two_m + 1) - two_m)
    count = (np.minimum(two_n, np.arange(two_n + two_m + 1)) - lo + 1).tolist()
    slots = weight_of * size + p - lo[weight_of]
    rows = np.full((two_n + two_m + 1) * size, dim)
    rows[slots] = np.arange(dim)
    rows = rows.reshape(-1, size)
    # raising[s] is B_w of weight index s, padded: D(e) sends (p, u) to
    # (p, u - 1) and (p - 1, u), both of weight index s - 1
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

    coefficients = np.ascontiguousarray(blocks.reshape(-1, size)[slots].T)
    arrays = (blocks, rows, coefficients, weight_of, singular_values)
    return Decomposition(two_n, two_m, *map(read_only, arrays))


@lru_cache(maxsize=None)
def _factor(rep: Rep) -> tuple:
    """The real diagonals of q, q^-1, e and f (offsets 0, 0, +1, -1) of a
    representation, those of e and f padded with a trailing zero to the
    dimension, and the largest entry of the four matrices off those
    diagonals or imaginary."""
    diags, stray = [], []
    for mat, offset in ((rep.q, 0), (rep.q_inv, 0), (rep.e, 1), (rep.f, -1)):
        diag = np.diagonal(mat, offset).real
        diags.append(np.append(diag, 0.0) if offset else diag)
        stray.append(max_abs(mat - np.diag(diag, offset)))
    return (*diags, worst(stray))


def decomposition_residuals(params: Params, two_n: int, two_m: int) -> dict:
    """Numerical certificates that the summand isometries are correct.

    Returns max-abs residuals for orthonormality of each V_k and mutual
    orthogonality of different summands, completeness (the V_k V_k* sum to
    the identity) and generator intertwining  D(x) V_k = V_k pi_k(x)  for
    x in {q, e, f}.

    Orthonormality and completeness are Gram products of the per-weight
    blocks the V_k are scattered from.  The dense V_k, scattered for this
    call and not kept on the decomposition, must vanish exactly off the
    entries joining vectors of equal weight; q intertwining alone would see
    such an entry only through the gap between q eigenvalues, which closes
    as t -> 0.  Intertwining takes the V_k side by side, reshaped to
    (n+1, m+1, sum of k+1), and applies D(q) = q (x) q,
    D(e) = q (x) e + e (x) q^-1 and D(f) likewise as products along its
    axes with the diagonals of the `build_rep` factors, so it stays
    independent of the blocks.  Everything runs in real arithmetic: the
    largest imaginary part of the V_k is folded into orthonormality, and
    every factor entry off its diagonal or imaginary into intertwining, so
    a nonzero one still fails.
    """
    dec = decompose(params, two_n, two_m)
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    two_ks = np.array(index_set(two_n, two_m))
    top = two_n + two_m
    pieces = dec._scatter()
    v = np.concatenate([p.v.real for p in pieces], axis=1).reshape(left.dim, right.dim, -1)

    # spin two_ks[i] has weight index s where its row j = s - (top - two_k)/2
    # is one of 0..two_k; rows of a block past its weight's subspace are padding
    j = np.arange(top + 1)[:, None] - (top - two_ks) // 2
    present = (j >= 0) & (j <= two_ks)
    valid = dec.rows < left.dim * right.dim
    eye = np.eye(two_ks.size)
    gram = np.swapaxes(dec.blocks, 1, 2) @ dec.blocks - present[:, :, None] * eye
    # weight index of each entry of the stacked V_k, by product vector and by column
    row_weight = np.add.outer(np.arange(left.dim), np.arange(right.dim))[:, :, None]
    col_weight = np.concatenate([(top - two_k) // 2 + np.arange(two_k + 1) for two_k in two_ks])
    off_weight = max_abs(np.where(row_weight == col_weight, 0.0, v))
    orthonormality = worst((max_abs(gram), off_weight, *(max_abs(p.v.imag) for p in pieces)))
    completeness = max_abs(dec.blocks @ np.swapaxes(dec.blocks, 1, 2) - valid[:, :, None] * eye)

    q_l, _, e_l, f_l, stray_l = _factor(left)
    q_r, q_inv_r, e_r, f_r, stray_r = _factor(right)
    q_k, _, e_k, f_k, stray_k = zip(*(_factor(build_rep(params, p.two_k, +1)) for p in pieces))
    res, tmp = np.empty_like(v), np.empty_like(v)
    np.subtract(np.multiply.outer(q_l, q_r)[:, :, None], np.concatenate(q_k), out=res)
    res *= v
    values = [stray_l, stray_r, *stray_k, max_abs(res)]
    # D(x) = q (x) x + x (x) q^-1 for x = e, f; pi(x) of the direct sum
    # keeps one diagonal, zero between summands
    for x_l, x_r, x_k, offset in ((e_l, e_r, e_k, 1), (f_l, f_r, f_k, -1)):
        right_leg = np.multiply.outer(q_l, x_r[:-1])[:, :, None]
        left_leg = np.multiply.outer(x_l[:-1], q_inv_r)[:, :, None]
        pi_x = np.concatenate(x_k)[:-1]
        # x moves a basis index by -offset: entry i of x v reads entry
        # i + offset, and the one entry with nothing to read is zero
        to, at = (slice(None, -1), slice(1, None))[::offset]
        res[:, -1 if offset > 0 else 0] = 0.0
        np.multiply(right_leg, v[:, at], out=res[:, to])
        res[to] += np.multiply(left_leg, v[at], out=tmp[to])
        res[:, :, at] -= np.multiply(pi_x, v[:, :, to], out=tmp[:, :, at])
        values.append(max_abs(res))
    return {"orthonormality": orthonormality, "completeness": completeness, "intertwining": worst(values)}

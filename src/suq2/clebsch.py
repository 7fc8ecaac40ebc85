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
      * every other column v is signed so that <B_w v, u> > 0, for u the
        weight-(w + 2) column it comes from.  That makes it D(f) applied to
        u divided by r^(k)_w: the lowering construction, with the same
        phase convention.

The multiplicities are known, so no rank cutoff is needed, and singular
vectors are orthonormal, so no normalization guard either.  The loop over
weights only calls LAPACK; the signs follow in one pass, since a column's
sign is its own overlap sign times that of the column above it.  The
orthogonal per-weight blocks are what `Decomposition` stores, with the
singular values beside them as a record of conditioning; the dense V_k,
which are real, are scattered from them once, side by side, when first
read, and neither `coproduct_component` nor the certificates form them.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, groupby

import numpy as np

from .params import Params
from .reps import Rep, build_rep
from .util import kron, max_abs, read_only, worst


@dataclass(frozen=True, eq=False)
class TensorRep:
    """Generator images on a tensor product of two irreducibles."""

    left: Rep
    right: Rep
    q: np.ndarray = field(repr=False)
    q_inv: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.left.dim * self.right.dim

    gen_matrices = Rep.gen_matrices


def tensor_rep(left: Rep, right: Rep) -> TensorRep:
    """Assemble the coproduct generator images on the product basis."""
    q = kron(left.q, right.q)
    q_inv = kron(left.q_inv, right.q_inv)
    e = kron(left.q, right.e) + kron(left.e, right.q_inv)
    f = kron(left.q, right.f) + kron(left.f, right.q_inv)
    return TensorRep(left=left, right=right, q=q, q_inv=q_inv, e=e, f=f)


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
    index of product vector c, are read off them once.  ``basis``, the real
    dense V_k side by side, is scattered from them once when first read;
    ``columns[k]`` is its slice of columns that is V_k, and ``pieces`` and
    ``piece(k)`` are complex copies of those slices for the public API.
    `decomposition_residuals` reads the blocks and the row map instead.
    Every array is read-only: the object is shared by the cache of `decompose`.
    """

    two_n: int
    two_m: int
    blocks: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    weight_of: np.ndarray = field(repr=False)
    singular_values: np.ndarray = field(repr=False)

    @cached_property
    def basis(self) -> np.ndarray:
        """The V_k side by side, spins ascending, scattered from the blocks:
        the real orthogonal change of basis of the whole tensor product."""
        dim = (self.two_n + 1) * (self.two_m + 1)
        basis = np.zeros((dim + 1, dim))
        for i, (two_k, cols) in enumerate(self.columns.items()):
            s = (self.two_n + self.two_m - two_k) // 2 + np.arange(two_k + 1)
            basis[self.rows[s], np.arange(cols.start, cols.stop)[:, None]] = self.blocks[s, :, i]
        return read_only(basis[:dim])

    @cached_property
    def columns(self) -> dict:
        """Each spin k, ascending, to the slice of `basis` that is V_k."""
        two_ks = index_set(self.two_n, self.two_m)
        return {two_k: slice(stop - two_k - 1, stop) for two_k, stop in zip(two_ks, accumulate(k + 1 for k in two_ks))}

    @cached_property
    def pieces(self) -> tuple:
        """The V_k as `CGIsometry`, spins ascending: complex copies of their
        columns of `basis`, for the public API."""
        return tuple(
            CGIsometry(self.two_n, self.two_m, two_k, read_only(self.basis[:, cols].astype(complex)))
            for two_k, cols in self.columns.items()
        )

    def piece(self, two_k: int) -> CGIsometry:
        for p in self.pieces:
            if p.two_k == two_k:
                return p
        raise KeyError(two_k)

    @property
    def singular_gap(self):
        """Smallest normwise singular gap of the construction: over the
        weights whose B_w fixes two or more vectors, the least distance
        between two of its singular values (a new highest weight's zero
        included) over its largest one, not the relative gap
        |s_i - s_j| / (s_i + s_j) of a pair.  None when no weight has two."""
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

    One stacked SVD per run of equal-shape B_w (a single B_w, except on
    the plateau of weights when n != m), then the sign convention in one
    vectorized pass over the unsigned factors.  Results are memoized per
    (params, two_n, two_m); the returned object is shared, and its arrays
    are read-only.  Raises ``ValueError`` when an entry of some B_w is not
    finite (t too large for the spins), before LAPACK would be handed it.
    """
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    size = len(index_set(two_n, two_m))
    dim = left.dim * right.dim
    q_left = params.q_diag(two_n)
    q_inv_right = params.q_diag(two_m, -1.0)

    # product vector c = (p, u), left and right index, has weight index
    # s = p + u and sits at row p - lo[s] of that weight's block, which
    # holds count[s] rows
    p, u = np.divmod(np.arange(dim), right.dim)
    weight_of = p + u
    lo = np.maximum(0, np.arange(two_n + two_m + 1) - two_m)
    count = np.minimum(two_n, np.arange(two_n + two_m + 1)) - lo + 1
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

    # unsigned factors: right singular vectors as columns, ascending
    blocks = np.zeros((two_n + two_m + 1, size, size))
    singular_values = np.zeros((two_n + two_m + 1, size))
    blocks[0, 0, -1] = 1.0
    stop = 1
    for (above, here), run in groupby(zip(count[:-1].tolist(), count[1:].tolist())):
        start, stop = stop, stop + len(list(run))
        _, sv, vh = np.linalg.svd(raising[start:stop, :above, :here])
        kept = min(above, here)
        blocks[start:stop, :here, size - here :] = np.swapaxes(vh[:, ::-1], 1, 2)
        singular_values[start:stop, size - kept :] = sv[:, ::-1]

    # a lowered column v's sign is that of <B_w v, unsigned column above>,
    # times the sign above: a product down the weights.  A new highest
    # weight vector takes the sign of its alternating sum, which makes its
    # first entry positive.
    lowered = np.minimum(count[:-1], count[1:])
    overlap = ((raising[1:] @ blocks[1:]) * blocks[:-1]).sum(axis=1)
    signs = np.ones((two_n + two_m + 1, size))
    signs[1:] = np.where(np.arange(size) >= size - lowered[:, None], np.sign(overlap), 1.0)
    new = np.flatnonzero(lowered < count[1:]) + 1
    top_vectors = blocks[new, :, size - count[new]]
    signs[new, size - count[new]] = np.sign(top_vectors[:, ::2].sum(axis=1) - top_vectors[:, 1::2].sum(axis=1))
    blocks *= np.cumprod(signs, axis=0)[:, None, :]

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
    x in {q, e, f}.  All three read the per-weight blocks; no dense V_k is
    formed.

    Orthonormality and completeness are Gram products of the blocks.  A
    block holds no entry off its weight, so in place of that check the row
    map must put every product vector on exactly one row, of a block of its
    own weight, and ``weight_of`` must agree; a fault counts in
    orthonormality by its size in rows or weight indices, at any t, where
    q intertwining would see it only through the gap between q eigenvalues.
    Intertwining lays the blocks out on the product grid, (p, u) by spin,
    applies D(x) there as shifted diagonal products and compares with
    pi_k(x), one diagonal entry per spin and weight.  Every coefficient
    comes from the `build_rep` factors, not from the B_w of the
    construction.  Everything runs in real arithmetic: the largest
    imaginary part of the blocks is folded into orthonormality, and every
    factor entry off its diagonal or imaginary into intertwining, so a
    nonzero one still fails.
    """
    dec = decompose(params, two_n, two_m)
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    two_ks = np.array(index_set(two_n, two_m))
    top = two_n + two_m
    dim = left.dim * right.dim
    blocks = dec.blocks.real

    # spin two_ks[i] has weight index s where its row j = s - (top - two_k)/2
    # is one of 0..two_k; rows of a block past its weight's subspace are padding
    j = np.arange(top + 1)[:, None] - (top - two_ks) // 2
    present = (j >= 0) & (j <= two_ks)
    valid = (dec.rows >= 0) & (dec.rows < dim)
    eye = np.eye(two_ks.size)
    gram = np.swapaxes(blocks, 1, 2) @ blocks - present[:, :, None] * eye
    completeness = max_abs(blocks @ np.swapaxes(blocks, 1, 2) - valid[:, :, None] * eye)
    # product vector (p, u) has weight index p + u
    weight = np.add.outer(np.arange(left.dim), np.arange(right.dim))
    placed = dec.rows[valid]
    row_map = (
        np.bincount(placed, minlength=dim) - 1,
        weight.reshape(-1)[placed] - np.nonzero(valid)[0],
        dec.weight_of - weight.reshape(-1),
    )
    orthonormality = worst((max_abs(gram), *map(max_abs, row_map), max_abs(dec.blocks.imag)))

    # v[p, u, i]: the entry of product vector (p, u) in spin column i
    v = np.zeros((dim + 1, two_ks.size))
    v[np.where(valid, dec.rows, dim)] = blocks
    v = v[:dim].reshape(left.dim, right.dim, -1)
    q_l, _, e_l, f_l, stray_l = _factor(left)
    q_r, q_inv_r, e_r, f_r, stray_r = _factor(right)
    q_k, _, e_k, f_k, stray_k = zip(*(_factor(build_rep(params, two_k, +1)) for two_k in two_ks.tolist()))
    # entry j of the diagonals of spin two_ks[i], all spins side by side
    flat = np.where(present, np.cumsum(two_ks + 1) - two_ks - 1 + j, 0)

    def pi(diags, shift):
        """The factor pi_k(x) puts on the column arriving at row j of spin
        i, for j its row at weight p + u: entry j - shift of its diagonal."""
        return np.where(present & (j >= shift), np.concatenate(diags)[flat - shift], 0.0)[weight]

    res, tmp = np.empty_like(v), np.empty_like(v)
    np.subtract(np.multiply.outer(q_l, q_r)[:, :, None], pi(q_k, 0), out=res)
    res *= v
    values = [stray_l, stray_r, *stray_k, max_abs(res)]
    # D(x) = q (x) x + x (x) q^-1 for x = e, f; pi_k(e) takes row j + 1 to
    # j, pi_k(f) row j - 1 to j
    for x_l, x_r, x_k, offset in ((e_l, e_r, e_k, 1), (f_l, f_r, f_k, -1)):
        right_leg = np.multiply.outer(q_l, x_r[:-1])[:, :, None]
        left_leg = np.multiply.outer(x_l[:-1], q_inv_r)[:, :, None]
        # x moves a basis index by -offset: entry i of x v reads entry
        # i + offset, and the one entry with nothing to read is zero
        to, at = (slice(None, -1), slice(1, None))[::offset]
        res[:, -1 if offset > 0 else 0] = 0.0
        np.multiply(right_leg, v[:, at], out=res[:, to])
        res[to] += np.multiply(left_leg, v[at], out=tmp[to])
        res -= np.multiply(pi(x_k, 0 if offset > 0 else 1), v, out=tmp)
        values.append(max_abs(res))
    return {"orthonormality": orthonormality, "completeness": completeness, "intertwining": worst(values)}

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
per-weight blocks are what `Decomposition` stores; the dense V_k are
scattered from them once.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import Params
from .reps import Rep, build_rep
from .util import max_abs, weights, worst


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
    full dimension.  The blocks are the construction; the rest is read off
    them once: ``pieces`` holds the dense V_k, ``coefficients[i, c]`` the
    entry of product vector c in spin column i, and ``weight_of[c]`` the
    weight index of product vector c.
    """

    two_n: int
    two_m: int
    pieces: tuple
    blocks: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    weight_of: np.ndarray = field(repr=False)

    def piece(self, two_k: int) -> CGIsometry:
        for p in self.pieces:
            if p.two_k == two_k:
                return p
        raise KeyError(two_k)


@lru_cache(maxsize=None)
def decompose(params: Params, two_n: int, two_m: int) -> Decomposition:
    """Decompose spin-n (x) spin-m into irreducible summands, weight by weight.

    Results are memoized per (params, two_n, two_m); the returned object is
    shared, so callers must treat it as read-only.
    """
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    two_ks = index_set(two_n, two_m)
    size = len(two_ks)
    dim = left.dim * right.dim
    q_left = np.exp(0.5 * params.t * weights(two_n))
    q_inv_right = np.exp(-0.5 * params.t * weights(two_m))

    blocks = np.zeros((two_n + two_m + 1, size, size))
    rows = np.full((two_n + two_m + 1, size), dim)
    above = np.ones((1, 1))
    for s in range(two_n + two_m + 1):
        # product vectors (p, u) = (left index, right index) with p + u = s
        p = np.arange(max(0, s - two_m), min(two_n, s) + 1)
        u = s - p
        rows[s, : p.size] = p * right.dim + u
        if s == 0:
            blocks[0, 0, -1] = 1.0
            continue
        # B_w: D(e) sends (p, u) to (p, u - 1) and (p - 1, u); the target
        # vectors start at left index p_up
        p_up = max(0, s - 1 - two_m)
        raising = np.zeros((above.shape[0], p.size))
        col = np.arange(p.size)
        up = u >= 1
        raising[p[up] - p_up, col[up]] = q_left[p[up]] * right.r[u[up] - 1]
        up = p >= 1
        raising[p[up] - 1 - p_up, col[up]] = left.r[p[up] - 1] * q_inv_right[u[up]]
        lsv, _, vh = np.linalg.svd(raising)
        x = vh[::-1].T
        lowered = min(raising.shape)
        overlap = np.sum(lsv[:, lowered - 1 :: -1] * above[:, -lowered:], axis=0)
        x[:, -lowered:] *= np.sign(overlap)
        if lowered < p.size:
            x[:, 0] *= np.sign(np.sum(x[::2, 0]) - np.sum(x[1::2, 0]))
        blocks[s, : p.size, size - p.size :] = x
        above = x

    # position of every product vector in the flattened (weight, row) layout
    slots = np.argsort(rows.ravel(), kind="stable")[:dim]
    coefficients = np.ascontiguousarray(blocks.reshape(-1, size)[slots].T)
    pieces = []
    for i, two_k in enumerate(two_ks):
        col = np.arange(two_k + 1)
        s = (two_n + two_m - two_k) // 2 + col
        v = np.zeros((dim + 1, two_k + 1), dtype=complex)
        v[rows[s], col[:, None]] = blocks[s, :, i]
        pieces.append(CGIsometry(two_n=two_n, two_m=two_m, two_k=two_k, v=v[:dim]))
    return Decomposition(
        two_n=two_n, two_m=two_m, pieces=tuple(pieces), blocks=blocks, rows=rows,
        coefficients=coefficients, weight_of=slots // size,
    )


def decomposition_residuals(params: Params, two_n: int, two_m: int) -> dict:
    """Numerical certificates that the summand isometries are correct.

    Returns max-abs residuals for orthonormality of each V_k, mutual
    orthogonality of different summands, completeness (the V_k V_k* sum to
    the identity) and generator intertwining  V_k pi_k(x) = D(x) V_k  for
    x in {q, e, f}, against the dense generator images of `tensor_rep`.
    Everything here is real by construction, so the products run in real
    arithmetic; the largest imaginary part of the pieces is folded into
    orthonormality and that of the generator images into intertwining, so
    a nonzero one still fails.
    """
    dec = decompose(params, two_n, two_m)
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    trep = tensor_rep(left, right)

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
    intertwine = worst(values)
    return {
        "orthonormality": ortho,
        "completeness": completeness,
        "intertwining": intertwine,
    }

"""Finite dimensional irreducible *-representations.

For every doubled spin ``two_n >= 0`` there are exactly two irreducible
*-representations of the deformed enveloping algebra on C^(two_n + 1), one
for each sign.  In the weight basis xi_j, ordered j = n down to -n,

    q  xi_j = sign * lam^j xi_j
    e  xi_j = r_j   xi_(j+1)        (r_n = 0)
    f  xi_j = r_(j-1) xi_(j-1)

with positive amplitudes in closed form

    r_(j-1)^2 = [n + j] [n - j + 1],    [x] = sinh(x t) / sinh(t),

the solution of r_(j-1)^2 - r_j^2 = c (lam^(2j) - lam^(-2j)) with
c = (lam - lam^-1)^-1 and r_n = 0.  The amplitudes are symmetric,
r_(-j-1) = r_j, and vanish at both ends, r_n = r_(-n-1) = 0.  The sign
only enters through q; both signs share the same e and f matrices and the
same Casimir value.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import Params
from .util import max_abs, read_only
from .words import AlgPoly, Gen


@dataclass(frozen=True, eq=False)
class Rep:
    """One irreducible representation in its weight basis (highest first)."""

    two_n: int
    sign: int
    t: float
    r: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    q_inv: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.two_n + 1

    @property
    def gen_matrices(self) -> dict:
        return {Gen.Q: self.q, Gen.QINV: self.q_inv, Gen.E: self.e, Gen.F: self.f}


@lru_cache(maxsize=None)
def build_rep(params: Params, two_n: int, sign: int = 1) -> Rep:
    """Construct the irreducible representation of doubled spin ``two_n``.

    Parameters
    ----------
    params : Params
        Deformation context.
    two_n : int
        Doubled spin, a nonnegative integer; the dimension is two_n + 1.
    sign : int
        +1 or -1; the sign of the highest q-eigenvalue.

    Results are memoized and shared, so their arrays are read-only.
    """
    if not isinstance(two_n, (int, np.integer)) or two_n < 0:
        raise ValueError(f"doubled spin must be a nonnegative integer, got {two_n!r}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")

    dim = two_n + 1

    # r[i] joins basis vectors i + 1 and i: r[i]^2 = [two_n - i] [i + 1]
    qnum = params.qnum(np.arange(1, dim))
    r = np.sqrt(qnum[::-1] * qnum)

    e = np.zeros((dim, dim), dtype=complex)
    if dim > 1:
        e[np.arange(dim - 1), np.arange(1, dim)] = r
    f = e.T.copy()

    q_diag = sign * params.q_diag(two_n)
    q = np.diag(q_diag.astype(complex))
    q_inv = np.diag((1.0 / q_diag).astype(complex))

    r, q, q_inv, e, f = map(read_only, (r, q, q_inv, e, f))
    return Rep(two_n=int(two_n), sign=int(sign), t=params.t, r=r, q=q, q_inv=q_inv, e=e, f=f)


def evaluate_in(gen_matrices: dict, x: AlgPoly, dim: int) -> np.ndarray:
    """Evaluate a formal polynomial given images of the four generators."""
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in x.terms.items():
        m = np.eye(dim, dtype=complex)
        for g in word:
            m = m @ gen_matrices[g]
        out += coeff * m
    return out


def evaluate(rep: Rep, x: AlgPoly) -> np.ndarray:
    """Evaluate a formal polynomial in one irreducible representation."""
    return evaluate_in(rep.gen_matrices, x, rep.dim)


def relation_residuals(params: Params, q, q_inv, e, f) -> dict:
    """Max-abs residuals of the defining relations for candidate matrices.

    Works for any family (irreducible or not), so it doubles as the check
    that tensor product generators again satisfy the relations.
    """
    lam = params.lam
    c = params.c
    eye = np.eye(q.shape[0], dtype=complex)
    return {
        "q q^-1 = 1": max_abs(q @ q_inv - eye),
        "q e = lam e q": max_abs(q @ e - lam * (e @ q)),
        "q f = lam^-1 f q": max_abs(q @ f - (f @ q) / lam),
        "ef - fe = c (q^2 - q^-2)": max_abs(e @ f - f @ e - c * (q @ q - q_inv @ q_inv)),
        "e* = f": max_abs(e.conj().T - f),
        "q* = q": max_abs(q.conj().T - q),
    }


def casimir_matrix(params: Params, rep: Rep) -> np.ndarray:
    """(lam + lam^-1)(q^2 + q^-2) + (lam - lam^-1)^2 (ef + fe)."""
    lam = params.lam
    q2 = rep.q @ rep.q
    q2i = rep.q_inv @ rep.q_inv
    mixed = rep.e @ rep.f + rep.f @ rep.e
    return (lam + 1.0 / lam) * (q2 + q2i) + (lam - 1.0 / lam) ** 2 * mixed


def casimir_scalar(params: Params, two_n: int) -> float:
    """The Casimir acts as 2 (lam^(2n+1) + lam^-(2n+1)) on the spin-n module."""
    return 2.0 * (params.lam_pow(2 * (two_n + 1)) + params.lam_pow(-2 * (two_n + 1)))


def ladder_poly_coeffs(params: Params, k: int) -> tuple:
    """Coefficients (a, b) of the Laurent polynomial a q^2 + b q^-2 with

        e f^k - f^k e = f^(k-1) (a q^2 + b q^-2),   k >= 1.

    For k = 1 this reduces to (c, -c), the defining commutation relation.
    """
    if k < 1:
        raise ValueError("the ladder identity needs k >= 1")
    lam = params.lam
    c = params.c
    a = c * (lam - lam ** (-2 * k + 1)) / (lam - 1.0 / lam)
    b = -c * (1.0 / lam - lam ** (2 * k - 1)) / (1.0 / lam - lam)
    return a, b


def ladder_poly_matrix(params: Params, rep: Rep, k: int) -> np.ndarray:
    """The ladder polynomial a q^2 + b q^-2 evaluated in a representation."""
    a, b = ladder_poly_coeffs(params, k)
    return a * (rep.q @ rep.q) + b * (rep.q_inv @ rep.q_inv)


def classify_by_highest_weight(params: Params, q, e, f) -> tuple:
    """Identify an irreducible *-representation from its generator matrices.

    Reads ker e first, from one SVD of e: the right singular vectors with
    singular value at most tol_abs + tol_rel * max(1, max|e|).  The
    eigenvalue of largest modulus of q's Hermitian part on that kernel is
    a = sign * lam^n, and ``(two_n, sign)`` is returned.  The input may be
    given in any orthonormal basis (the weight basis is not assumed).

    Raises
    ------
    ValueError
        If no vector is annihilated by e, if |a| does not sit on the
        half-integer grid lam^(Z/2), or if the dimension is inconsistent
        with the recovered spin.
    """
    q = np.asarray(q, dtype=complex)
    dim = q.shape[0]
    _, s, vh = np.linalg.svd(e)
    kernel = vh[s <= params.tol_abs + params.tol_rel * max(1.0, max_abs(e))].conj().T
    if kernel.shape[1] == 0:
        raise ValueError("no vector is annihilated by e; not an irreducible *-representation")
    vals = np.linalg.eigvalsh(kernel.conj().T @ (0.5 * (q + q.conj().T)) @ kernel)
    a = float(vals[np.argmax(np.abs(vals))])
    if abs(a) <= 0.0:
        raise ValueError("highest weight eigenvalue is zero; q must be invertible")

    grid = 2.0 * np.log(abs(a)) / params.t
    two_n = int(round(grid))
    if abs(grid - two_n) > 1e-6 or two_n < 0:
        raise ValueError(
            f"|a| = {abs(a):.6g} is not lam^(n) for a half-integer n (grid position {grid:.6g})"
        )
    if dim != two_n + 1:
        raise ValueError(
            f"dimension {dim} inconsistent with recovered doubled spin {two_n}"
        )
    sign = +1 if a > 0 else -1
    return two_n, sign

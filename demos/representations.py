"""
Irreducible representations of the deformed enveloping algebra
==============================================================

Every irreducible *-representation is labelled by a spin n in {0, 1/2, 1, ...}
and a sign.  This script builds a few of them, checks the defining relations
numerically, evaluates the Casimir element, and shows that a representation
handed to us in a scrambled basis is recognised again by its highest weight.

Spins are passed around doubled (two_n = 2n), so half-integers stay integers.
"""

import numpy as np

from suq2 import (
    Params,
    build_rep,
    casimir_matrix,
    casimir_scalar,
    classify_by_highest_weight,
    ladder_poly_matrix,
    relation_residuals,
)
from suq2.util import worst

np.set_printoptions(precision=4, suppress=True, linewidth=100)

params = Params(t=0.3)
print(f"deformation parameter t = {params.t},  lam = exp(t) = {params.lam:.6f}")
print(f"structure constant      c = 1/(lam - 1/lam) = {params.c:.6f}")

# ---------------------------------------------------------------------------
# The spin-1/2 representation: 2x2 matrices.
# q is diagonal in the weight basis (weights descend left to right), e is the
# raising operator on the superdiagonal, and f = e* lowers.
# ---------------------------------------------------------------------------
rep = build_rep(params, two_n=1)
print("\nspin 1/2   (dim 2, weights +1/2, -1/2 doubled to +1, -1)")
print("q =\n", rep.q.real)
print("e =\n", rep.e.real)
print("f =\n", rep.f.real)

# ---------------------------------------------------------------------------
# Defining relations, checked for a range of spins and both signs.
# The residuals are max-abs deviations; everything lands at rounding level.
# ---------------------------------------------------------------------------
print("\nworst relation residual per spin (both signs):")
for two_n in range(0, 7):
    reps_n = [build_rep(params, two_n, sign) for sign in (+1, -1)]
    residual = worst(v for r in reps_n for v in relation_residuals(params, r.q, r.q_inv, r.e, r.f).values())
    print(f"  2n = {two_n}:  {residual:.3e}")

# ---------------------------------------------------------------------------
# The Casimir element acts as the scalar 2 (lam^(2n+1) + lam^(-2n-1)), which
# is 4 cosh(t (2n+1)) -- independent of the sign of the representation.
# ---------------------------------------------------------------------------
print("\nCasimir scalars:")
for two_n in range(0, 5):
    rep_n = build_rep(params, two_n)
    value = casimir_scalar(params, two_n)
    residual = np.max(np.abs(casimir_matrix(params, rep_n) - value * np.eye(rep_n.dim)))
    cosh_form = 4.0 * np.cosh(params.t * (two_n + 1))
    print(f"  2n = {two_n}:  {value:.8f} = 4 cosh(t(2n+1)) = {cosh_form:.8f}   (residual {residual:.1e})")

# ---------------------------------------------------------------------------
# The ladder identity: commuting e past f^k costs a polynomial in q,
#   e f^k - f^k e = f^(k-1) (a_k q^2 + b_k q^-2).
# We verify it on the 5-dimensional representation for several k.
# ---------------------------------------------------------------------------
rep4 = build_rep(params, 4)
print("\nladder identity on spin 2:")
f_pow = np.eye(rep4.dim, dtype=complex)
for k in range(1, 5):
    f_prev = f_pow
    f_pow = f_pow @ rep4.f
    lhs = rep4.e @ f_pow - f_pow @ rep4.e
    rhs = f_prev @ ladder_poly_matrix(params, rep4, k)
    print(f"  k = {k}:  |e f^k - f^k e - f^(k-1) p_k(q)| = {np.max(np.abs(lhs - rhs)):.3e}")

# ---------------------------------------------------------------------------
# Classification: scramble a representation by a random unitary change of
# basis, then recover (2n, sign) from the spectrum of q and the highest
# weight vector alone.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(7)
print("\nclassification after a random change of basis:")
for two_n, sign in [(3, +1), (4, -1), (6, +1)]:
    rep_n = build_rep(params, two_n, sign)
    z = rng.standard_normal((rep_n.dim, rep_n.dim)) + 1j * rng.standard_normal((rep_n.dim, rep_n.dim))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    found = classify_by_highest_weight(params, u @ rep_n.q @ u.conj().T,
                                       u @ rep_n.e @ u.conj().T,
                                       u @ rep_n.f @ u.conj().T)
    print(f"  hid (2n, sign) = ({two_n}, {sign:+d})  ->  recovered {found}")

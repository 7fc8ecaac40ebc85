"""
The discrete quantum group: a multiplier Hopf *-algebra
=======================================================

The direct sum of all matrix blocks M_(2n+1) carries a comultiplication built
from the tensor-product isometries, a counit, an antipode, and a cointegral.
Integrals exist on both sides and are related by a modular element.  This
script walks through each structure map on small blocks and prints the
residuals of the laws they satisfy.
"""

import numpy as np

from suq2 import (
    Params,
    cointegral,
    cointegral_coproduct,
    coproduct_component,
    counit,
    embed,
    invariant_vector,
    left_integral,
    matrix_unit,
    modular_automorphism,
    modular_element_block,
    quantum_dimension,
    right_integral,
    weights,
)
from suq2.discrete import unitary_antipode_block
from suq2.util import max_abs, worst
from suq2.verify import (
    WORD_BATTERY,
    antipode_law_residuals,
    coassociativity_residuals,
    invariance_residuals,
    symmetry_residuals,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

params = Params(t=0.3)
window = [0, 1, 2, 3]

# ---------------------------------------------------------------------------
# Elements are block-diagonal matrices; the generators embed as multipliers.
# The coproduct of a block algebra element lands in a tensor product of
# blocks, computed through the Clebsch-Gordan isometries.
# ---------------------------------------------------------------------------
a = embed(params, WORD_BATTERY["ef"], window)
print("embedded e f, block 2n = 1:")
print(a.block(1).real)
print("\ncoproduct block (2n, 2m) = (1, 1) of e f, a 4x4 matrix:")
print(coproduct_component(params, a, 1, 1).real)

# ---------------------------------------------------------------------------
# Hopf laws on a small battery: counit law, antipode convolution law, and
# coassociativity compared block by block.
# ---------------------------------------------------------------------------
battery = [a, matrix_unit(2, 2, 0), matrix_unit(1, -1, -1)]
# D(x)_(0,m) and D(x)_(m,0) are the block x_m itself
worst_counit = worst(
    max_abs(coproduct_component(params, x, *pair) - x.block(two_m))
    for x in battery
    for two_m in window
    for pair in ((0, two_m), (two_m, 0))
)
worst_antipode = antipode_law_residuals(params, battery, window).max()
worst_coassoc = coassociativity_residuals(params, battery, window[:3]).max()
# R reverses D: D(R(a)) on (m, n) against R on each leg of D(a) on (n, m), legs swapped
pairs = [(n, m) for n in window for m in window]
worst_flip = symmetry_residuals(params, battery, [unitary_antipode_block], pairs, reverse=True).max()
print("\nHopf laws on the battery:")
print(f"  counit law          {worst_counit:.3e}")
print(f"  antipode law        {worst_antipode:.3e}")
print(f"  coassociativity     {worst_coassoc:.3e}")
print(f"  unitary flip law    {worst_flip:.3e}")

# ---------------------------------------------------------------------------
# The cointegral h is the unit of the one-dimensional block.  Its coproduct
# block (n, n) is the rank-one projection onto a canonical invariant vector.
# ---------------------------------------------------------------------------
h = cointegral()
print("\ncointegral: eps(h) =", counit(h).real)
block = cointegral_coproduct(params, 2)
vec = invariant_vector(params, 2)
print("coproduct block (2n, 2m) = (2, 2) of h:")
print(block.real)
print("rank-one residual:", f"{np.max(np.abs(block - np.outer(vec, vec.conj()))):.3e}")

# ---------------------------------------------------------------------------
# Left and right integrals weight each diagonal matrix unit by the quantum
# dimension times lam^(-2r) (left) or lam^(+2r) (right); they are invariant
# under the coproduct and tied together by the modular element q^4.
# ---------------------------------------------------------------------------
print("\nintegral weights on block 2n = 2 (weights r = 1, 0, -1):")
c_n = quantum_dimension(params, 2)
for two_r in weights(2):
    unit = matrix_unit(2, two_r, two_r)
    print(f"  r = {two_r / 2:+.0f}:  phi = {left_integral(params, unit):.6f}"
          f"   psi = {right_integral(params, unit):.6f}"
          f"   (c_n = {c_n:.6f})")

x = matrix_unit(2, 2, 0) + 0.5 * matrix_unit(1, 1, 1)
left_res, right_res = invariance_residuals(params, [x], [2])[0, 0]
print(f"\ninvariance residuals on a mixed element:  left {left_res:.3e},  right {right_res:.3e}")

print("\nmodular element block 2n = 1 (this is q^4 restricted to the block):")
print(modular_element_block(params, 1).real)

sig = modular_automorphism(params, matrix_unit(1, 1, -1), "left")
ab = matrix_unit(1, 1, -1) * matrix_unit(1, -1, 1)
ba = matrix_unit(1, -1, 1) * sig
print("modular certificate phi(ab) = phi(b sigma(a)):",
      f"{abs(left_integral(params, ab) - left_integral(params, ba)):.3e}")

"""Tensor product decompositions: index sets, isometries, reconstruction."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from suq2 import clebsch
from suq2.clebsch import (
    decompose,
    decomposition_residuals,
    index_set,
    tensor_rep,
)
from suq2.params import Params
from suq2.reps import build_rep, evaluate, evaluate_in
from suq2.util import max_abs
from suq2.words import E, F, Gen, Q, QINV, formal_coproduct, AlgPoly

PARAMS = Params(t=0.3)
LAM = PARAMS.lam

WORDS = [Q, QINV, E, F, E * F, Q * E * F]


def test_index_set_examples():
    assert index_set(0, 0) == [0]
    assert index_set(1, 1) == [0, 2]
    assert index_set(2, 3) == [1, 3, 5]
    assert index_set(0, 4) == [4]
    assert index_set(4, 4) == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("two_n", range(0, 7))
@pytest.mark.parametrize("two_m", range(0, 7))
def test_dimension_identity_is_exact(two_n, two_m):
    total = sum(two_k + 1 for two_k in index_set(two_n, two_m))
    assert total == (two_n + 1) * (two_m + 1)


@pytest.mark.parametrize("two_n", range(0, 7))
@pytest.mark.parametrize("two_m", range(0, 7))
def test_decomposition_residuals(two_n, two_m):
    res = decomposition_residuals(PARAMS, two_n, two_m)
    assert res["orthonormality"] < 1e-9
    assert res["completeness"] < 1e-9
    assert res["intertwining"] < 1e-9


def test_decomposition_residuals_see_an_imaginary_part(monkeypatch):
    """The certificates multiply in real arithmetic; an imaginary part of
    the blocks or of a generator image must still fail them."""
    dec = decompose(PARAMS, 2, 1)
    monkeypatch.setattr(clebsch, "decompose", lambda *args: dataclasses.replace(dec, blocks=dec.blocks + 1e-6j))
    assert decomposition_residuals(PARAMS, 2, 1)["orthonormality"] >= 1e-6
    monkeypatch.undo()

    plain = clebsch.build_rep
    monkeypatch.setattr(clebsch, "build_rep", lambda *args: dataclasses.replace(plain(*args), e=plain(*args).e + 1e-6j))
    assert decomposition_residuals(PARAMS, 2, 1)["intertwining"] >= 1e-6


def test_worked_half_half_example():
    dec = decompose(PARAMS, 1, 1)
    root = np.sqrt(LAM + 1.0 / LAM)

    singlet = dec.piece(0).v[:, 0]
    expected = np.array([0.0, LAM**-0.5, -(LAM**0.5), 0.0]) / root
    assert max_abs(singlet - expected) < 1e-12

    triplet = dec.piece(2).v
    assert max_abs(triplet[:, 0] - np.array([1.0, 0, 0, 0])) < 1e-12
    middle = np.array([0.0, LAM**0.5, LAM**-0.5, 0.0]) / root
    assert max_abs(triplet[:, 1] - middle) < 1e-12
    assert max_abs(triplet[:, 2] - np.array([0.0, 0, 0, 1.0])) < 1e-12


def test_half_half_lowering_identity():
    # D(f) applied to the top product vector splits with the quantum weights
    left = build_rep(PARAMS, 1)
    trep = tensor_rep(left, left)
    top = np.array([1.0, 0.0, 0.0, 0.0])
    lowered = trep.f @ top
    expected = np.array([0.0, LAM**0.5, LAM**-0.5, 0.0])
    assert max_abs(lowered - expected) < 1e-13


def test_tensor_rep_gen_matrices_are_its_own_fields():
    trep = tensor_rep(build_rep(PARAMS, 1), build_rep(PARAMS, 2))
    gens = trep.gen_matrices
    assert list(gens) == [Gen.Q, Gen.QINV, Gen.E, Gen.F]
    assert all(gens[g] is getattr(trep, name) for g, name in zip(gens, ("q", "q_inv", "e", "f")))


def test_tensor_with_trivial_is_identity():
    for two_m in range(0, 5):
        assert max_abs(decompose(PARAMS, 0, two_m).piece(two_m).v - np.eye(two_m + 1)) < 1e-12
        assert max_abs(decompose(PARAMS, two_m, 0).piece(two_m).v - np.eye(two_m + 1)) < 1e-12


@pytest.mark.parametrize("two_n", range(0, 5))
@pytest.mark.parametrize("two_m", range(0, 5))
def test_block_reconstruction_on_word_battery(two_n, two_m):
    left = build_rep(PARAMS, two_n)
    right = build_rep(PARAMS, two_m)
    trep = tensor_rep(left, right)
    dec = decompose(PARAMS, two_n, two_m)
    for x in WORDS:
        direct = evaluate_in(trep.gen_matrices, x, trep.dim)
        assembled = np.zeros_like(direct)
        for piece in dec.pieces:
            rep_k = build_rep(PARAMS, piece.two_k)
            assembled += piece.v @ evaluate(rep_k, x) @ piece.v.conj().T
        assert max_abs(assembled - direct) < 1e-9


@pytest.mark.parametrize("two_n", range(0, 4))
@pytest.mark.parametrize("two_m", range(0, 4))
def test_tensor_generators_match_symbolic_coproduct(two_n, two_m):
    # independent route: expand D(x) symbolically, evaluate legs, kron, sum
    left = build_rep(PARAMS, two_n)
    right = build_rep(PARAMS, two_m)
    trep = tensor_rep(left, right)
    for x in WORDS:
        direct = evaluate_in(trep.gen_matrices, x, trep.dim)
        symbolic = np.zeros_like(direct)
        for (w1, w2), coeff in formal_coproduct(x).terms.items():
            m1 = evaluate(left, AlgPoly({w1: 1.0}))
            m2 = evaluate(right, AlgPoly({w2: 1.0}))
            symbolic += coeff * np.kron(m1, m2)
        assert max_abs(symbolic - direct) < 1e-10


def test_highest_weight_vector_is_annihilated_and_normalized():
    left = build_rep(PARAMS, 3)
    right = build_rep(PARAMS, 2)
    trep = tensor_rep(left, right)
    dec = decompose(PARAMS, 3, 2)
    for two_k in index_set(3, 2):
        v = dec.piece(two_k).v[:, 0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(trep.e @ v) < 1e-10
        # weight of the vector is k
        weighted = trep.q @ v
        assert max_abs(weighted - PARAMS.lam_pow(two_k) * v) < 1e-10


def test_highest_weight_vector_phase_is_deterministic():
    v1 = decompose(PARAMS, 2, 2).piece(2).v[:, 0].copy()
    decompose.cache_clear()
    v2 = decompose(PARAMS, 2, 2).piece(2).v[:, 0]
    assert np.array_equal(v1, v2)
    first = v1[np.flatnonzero(np.abs(v1) > 1e-9)[0]]
    assert abs(first.imag) < 1e-12 and first.real > 0


def test_highest_weight_rejects_foreign_spin():
    dec = decompose(PARAMS, 1, 1)
    with pytest.raises(KeyError):
        dec.piece(4)
    with pytest.raises(KeyError):
        dec.piece(1)


def test_decompose_results_are_memoized():
    a = decompose(PARAMS, 2, 2)
    b = decompose(PARAMS, 2, 2)
    assert a is b


def test_decompose_rejects_a_non_finite_raising_matrix():
    """At t = 100 the spin-4 amplitudes overflow, and LAPACK does not
    return on a B_w holding an inf: decompose must raise first.  It runs in
    a child with a timeout, so a regression fails instead of hanging."""
    code = "from suq2 import Params, decompose; decompose(Params(t=100), 2, 8)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("ValueError: decompose: B_w of 2n = 2, 2m = 8 at t = 100")
    assert last.endswith("first at doubled weight w = 8")


def test_decomposition_piece_lookup():
    dec = decompose(PARAMS, 1, 2)
    assert dec.piece(1).v.shape == (6, 2)
    assert dec.piece(3).v.shape == (6, 4)
    with pytest.raises(KeyError):
        dec.piece(5)


def test_residuals_hold_at_other_deformations():
    for t in (0.1, 0.5, 1.0):
        params = Params(t=t)
        res = decomposition_residuals(params, 3, 3)
        assert max(res.values()) < 1e-9, (t, res)


def _oracle_isometries(t: float, two_n: int, two_m: int) -> dict:
    """Every V_k of spin-n (x) spin-m to 50 digits, by the lowering route.

    The highest weight vector of spin k comes from the two-term recursion
    that e kills it, normalized with its first entry positive; D(f) then
    lowers it column by column, divided by the exact spin-k amplitudes
    r[i]^2 = [two_k - i] [i + 1], [x] = sinh(x t) / sinh(t).  Vectors are
    dicts over product labels (p, u), left and right basis indices.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t = mpmath.mpf(t)

        def amplitudes(two_j):
            qnum = [mpmath.sinh(x * t) / mpmath.sinh(t) for x in range(two_j + 1)]
            return [mpmath.sqrt(qnum[two_j - i] * qnum[i + 1]) for i in range(two_j)]

        r_left, r_right = amplitudes(two_n), amplitudes(two_m)
        q_left = [mpmath.exp(t * (two_n - 2 * p) / 2) for p in range(two_n + 1)]
        q_inv_right = [mpmath.exp(-t * (two_m - 2 * u) / 2) for u in range(two_m + 1)]

        out = {}
        for two_k in index_set(two_n, two_m):
            s = (two_n + two_m - two_k) // 2
            top = {}
            coeff = mpmath.mpf(1)
            for p in range(max(0, s - two_m), min(two_n, s) + 1):
                top[(p, s - p)] = coeff
                # the (p, u - 1) entry of D(e) top vanishes
                u = s - p
                if p < two_n and u >= 1:
                    coeff = -coeff * q_left[p] * r_right[u - 1] / (r_left[p] * q_inv_right[u - 1])
            norm = mpmath.sqrt(sum(c * c for c in top.values()))
            columns = [{key: c / norm for key, c in top.items()}]
            r_k = amplitudes(two_k)
            for j in range(two_k):
                lowered = {}
                for (p, u), c in columns[-1].items():
                    if u < two_m:
                        lowered[(p, u + 1)] = lowered.get((p, u + 1), 0) + c * q_left[p] * r_right[u]
                    if p < two_n:
                        lowered[(p + 1, u)] = lowered.get((p + 1, u), 0) + c * r_left[p] * q_inv_right[u]
                columns.append({key: c / r_k[j] for key, c in lowered.items()})
            v = np.zeros(((two_n + 1) * (two_m + 1), two_k + 1))
            for j, column in enumerate(columns):
                for (p, u), c in column.items():
                    v[p * (two_m + 1) + u, j] = float(c)
            out[two_k] = v
    return out


@pytest.mark.parametrize("t, two_n, two_m", [(0.3, 16, 16), (2.0, 8, 8), (1.0, 12, 12), (0.3, 5, 12)])
def test_isometries_match_the_high_precision_oracle(t, two_n, two_m):
    dec = decompose(Params(t=t), two_n, two_m)
    for two_k, expected in _oracle_isometries(t, two_n, two_m).items():
        assert max_abs(dec.piece(two_k).v - expected) < 1e-12, two_k


@pytest.mark.parametrize("two_n", range(8, 25))
def test_residuals_hold_across_the_large_spin_range(two_n):
    # every (2n, 2m) with 2n - 8 <= 2m <= 2n at t = 0.3
    params = Params(t=0.3)
    try:
        for two_m in range(two_n - 8, two_n + 1):
            res = decomposition_residuals(params, two_n, two_m)
            assert max(res.values()) <= 1e-9, (two_m, res)
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("t, two_n", [(0.3, 28), (0.3, 32)] + [(1.0, two_n) for two_n in range(13)])
def test_residuals_hold_at_large_spin_and_deformation(t, two_n):
    try:
        res = decomposition_residuals(Params(t=t), two_n, two_n)
        assert max(res.values()) <= 1e-9, res
    finally:
        decompose.cache_clear()

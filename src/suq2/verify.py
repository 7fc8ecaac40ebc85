"""Verification batteries and machine readable reports.

Every mathematical guarantee of the package is expressed here as a named
check with a residual and a tolerance.  The batteries are grouped into
three suites:

    hopf   -- structural identities of the formal word layer,
    dqg    -- representations, tensor decompositions and the Hopf
              structure of the direct-sum algebra,
    dual   -- the compact dual: products, antipode, star, Haar state,
              modular data and spanning evidence.

Every check is declared once, as a `Row` of the table `CHECKS`: its id,
its law, the battery that yields it and its spin cap, with any window
inside the check as a function of that cap.  Each battery is a generator
of ``(id, value)`` items that reads its windows from its rows; `_battery`
collects them into `Check`s with the law of the row, and refuses an id
outside the battery's rows, an id yielded twice or a row left out.  The
value is a bool, a residual, or an iterable of residuals that `_check`
folds with `util.worst`, so a NaN anywhere in it fails the check.

The certificates that run over a whole battery of elements share one
kernel rule: apply each shipped map once per stack and contract the
battery in stacked products.  D goes once per block pair through
`discrete.coproduct_blocks`, and the block maps of `discrete` (R, S, tau)
once per block, on the battery's stack or a block's stack of matrix units
(`antipode_law_residuals`, `coassociativity_residuals`, which takes D
once per block pair and outer spin, and whose leg lifts are D calls too,
on chunks of the battery sized by D's own byte budget,
`symmetry_residuals`, the one law D theta = (theta (x) theta) D of each
tau_s and, legs swapped, of R, with theta (x) theta as theta on each leg,
and `invariance_residuals`, which contracts a leg with real `basis`
columns).  No check takes D of its elements inside a loop over them: the
counit, multiplicative, star and block-reconstruction laws stack their
batteries the same way, and only the cointegral's two routes and its
modular element, one fixed element each, call `coproduct_component`.

Intermediates that several checks share are built once per process: each
word's coproduct (`words.formal_coproduct`) and each leg word's matrix in a
representation (`_leg_matrix`).  Each is a module-level ``lru_cache`` keyed
on its inputs (the shared `Rep` objects of `build_rep` included), so
clearing the caches makes a run cold again, and a cached array is
read-only, so no check can change what a later one reads.  A battery that
reads one value in several rows, such as the dual maps of the u-entries,
computes it once as a local table.

Reports carry no timestamps or environment data, so two runs with the
same configuration produce byte-identical serializations.
"""

import functools
import itertools
import json
import math
import numbers
import random
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from . import discrete, words
from .clebsch import decompose, decomposition_residuals, index_set, tensor_rep
from .discrete import (
    AlgElement,
    antipode,
    antipode_inv,
    antipode_block,
    block_integrals,
    coproduct_blocks,
    coproduct_component,
    cointegral,
    cointegral_coproduct,
    conjugate_unitary,
    counit,
    embed,
    integral_weights,
    invariant_vector,
    left_integral,
    matrix_unit,
    modular_automorphism,
    modular_element_block,
    one_window,
    quantum_dimension,
    right_integral,
    scaling,
    scaling_block,
    scaling_imag,
    unitary_antipode,
    unitary_antipode_block,
)
from .dual import (
    DualElement,
    dual_antipode,
    dual_antipode_inv,
    dual_counit,
    dual_haar,
    dual_modular,
    dual_modular_inv,
    dual_mul,
    dual_star,
    dual_unit,
    pair,
    span_check,
    u_entry,
    u_entries,
    unitarity_residuals,
    woronowicz_residuals,
    U_LABELS,
)
from .params import Params
from .reps import (
    build_rep,
    casimir_matrix,
    casimir_scalar,
    classify_by_highest_weight,
    evaluate,
    evaluate_in,
    ladder_poly_matrix,
    relation_residuals,
)
from .util import kron, max_abs, read_only, weights, worst
from .words import AlgPoly, Gen, formal_antipode, formal_coproduct, formal_counit


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by the command line and the batteries."""

    t: float = Params.t
    nmax2: int = 4
    tol_abs: float = Params.tol_abs
    tol_rel: float = Params.tol_rel
    seed: int = 0

    def __post_init__(self):
        for name in ("nmax2", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")

    def params(self) -> Params:
        return Params(t=self.t, tol_abs=self.tol_abs, tol_rel=self.tol_rel)


@dataclass(frozen=True)
class Check:
    """One verified identity: a residual against a tolerance."""

    id: str
    law: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class Report:
    suite: str
    config: RunConfig
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number in report: {x!r}")
    return format(float(x), ".17g")


def _residual(x: float):
    """A finite residual as itself; a non-finite one, which is a failed
    check and not a reporting error, as the token "nan", "inf" or "-inf"."""
    return x if np.isfinite(x) else str(float(x))


def _csv_str(s: str) -> str:
    """A quoted csv field, inner quotes doubled."""
    return '"' + s.replace('"', '""') + '"'


def dump_json(obj) -> str:
    """Minimal JSON serializer with pinned float formatting.

    Floats are rendered with 17 significant digits so serialized reports
    round-trip bit-faithfully; the stdlib encoder does not expose that
    knob, hence this tiny emitter.  Output is compact and key order is
    the insertion order of the dicts handed in.
    """
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return "[" + _format_float(obj.real) + "," + _format_float(obj.imag) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}[{i}]")
    elif doc is None or isinstance(doc, (int, float, np.integer, np.floating)):
        yield prefix, dump_json(doc)
    elif isinstance(doc, (complex, np.complexfloating)):
        yield prefix + ".re", _format_float(doc.real)
        yield prefix + ".im", _format_float(doc.imag)
    elif isinstance(doc, str):
        yield prefix, _csv_str(doc)
    else:
        raise TypeError(f"cannot flatten {type(doc)!r}")


def doc_csv(doc) -> str:
    """Any report document as flat ``key,value`` csv rows; a key that holds
    a comma or a double quote is quoted, and every other is written bare."""
    lines = ["key,value"]
    for key, value in _flatten(doc):
        if "," in key or '"' in key:
            key = _csv_str(key)
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def report_doc(report: Report) -> dict:
    return {
        "schema": 2,
        "kind": "verify",
        "suite": report.suite,
        "config": asdict(report.config),
        "checks": [
            {
                "id": c.id,
                "law": c.law,
                "residual": _residual(c.residual),
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "summary": {
            "total": len(report.checks),
            "passed": sum(1 for c in report.checks if c.passed),
            "failed": sum(1 for c in report.checks if not c.passed),
        },
    }


def report_csv(report: Report) -> str:
    lines = ["id,law,residual,tolerance,pass"]
    for c in report.checks:
        residual = _residual(c.residual)
        if not isinstance(residual, str):
            residual = _format_float(residual)
        lines.append(f"{c.id},{_csv_str(c.law)},{residual},{_format_float(c.tolerance)},{str(c.passed).lower()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the declared checks
# ---------------------------------------------------------------------------


def _spins(nmax2: int, cap: int = None) -> range:
    """The doubled spins 0..nmax2 a check runs over, cut at its cap."""
    return range(0, (nmax2 if cap is None else min(nmax2, cap)) + 1)


# the cap of a check whose spins do not follow nmax2
FIXED = "fixed"


@dataclass(frozen=True)
class Row:
    """One declared check.  Its cap is None (doubled spins 0..nmax2), an
    int (0..min(nmax2, cap)) or FIXED; `inner`, where a check has a window
    inside it, maps (nmax2, cap) to that window."""

    id: str
    law: str
    battery: str
    cap: object = None
    inner: object = None


def _half_cap(nmax2: int, cap: int) -> range:
    """Matrix units up to half the cap."""
    return _spins(nmax2, cap // 2)


CHECKS = (
    Row("words/coproduct-ef", "D(ef) = qq(x)ef + qf(x)e q^-1 + eq(x)q^-1 f + ef(x)q^-2", "formal", FIXED),
    Row("words/counit-values", "eps kills e, f and sends q, q^-1 to 1", "formal", FIXED),
    Row("words/antipode-ef", "S(ef) = fe", "formal", FIXED),
    Row("words/star-examples", "(qe)* = fq and (ef)* = ef", "formal", FIXED),
    Row("words/coassociativity", "(D(x)id)D = (id(x)D)D, words to length 3", "formal", FIXED),
    Row("words/counit-laws", "(eps(x)id)D = id = (id(x)eps)D, words to length 3", "formal", FIXED),
    Row("words/coproduct-homomorphism", "D(xy) = D(x) D(y)", "formal", FIXED),
    Row("words/antipode-antihomomorphism", "S(xy) = S(y) S(x)", "formal", FIXED),
    Row("words/antipode-star-involution", "S(S(x)*)* = x", "formal", FIXED),
    Row("words/counit-antipode", "eps(S(x)) = eps(x)", "formal", FIXED),
    # the six relations are the keys of reps.relation_residuals
    Row("reps/relation-qq-1", "q q^-1 = 1", "rep"),
    Row("reps/relation-qe", "q e = lam e q", "rep"),
    Row("reps/relation-qf", "q f = lam^-1 f q", "rep"),
    Row("reps/relation-ef-fe", "ef - fe = c (q^2 - q^-2)", "rep"),
    Row("reps/relation-estar", "e* = f", "rep"),
    Row("reps/relation-qstar", "q* = q", "rep"),
    Row("reps/adjointness", "e* = f entrywise", "rep"),
    Row("reps/amplitude-symmetry", "r_(-j-1) = r_j", "rep"),
    Row("reps/amplitude-closure", "r_(-n-1) = 0", "rep"),
    Row("reps/casimir", "Casimir = 2(lam^(2n+1) + lam^-(2n+1)) 1", "rep"),
    Row("reps/ladder-identity", "e f^k - f^k e = f^(k-1)(a q^2 + b q^-2)", "rep", 6),
    Row("reps/closed-forms", "spin 0, 1/2, 1 matrices and amplitudes", "rep", FIXED),
    Row("reps/classification", "highest weight recovers (n, sign)", "rep", 6),
    Row("reps/classification-conjugated", "classification is basis independent", "rep", 6),
    Row("reps/rescaling", "e -> sqrt(c) e, f -> sqrt(c) f maps the c = 1 relations to the c relations", "rep", 4),
    Row("reps/phase-twist", "e -> z e, f -> conj(z) f is a *-automorphism (|z| = 1)", "rep", 4),
    Row("cg/index-set", "summands are |n-m|, ..., n+m", "clebsch", FIXED),
    Row("cg/dimension-identity", "sum of (2k+1) = (2n+1)(2m+1), exact", "clebsch"),
    # the next three are the keys of clebsch.decomposition_residuals
    Row("cg/orthonormality", "V_k* V_l = delta(k,l) 1", "clebsch"),
    Row("cg/completeness", "sum V_k V_k* = 1", "clebsch"),
    Row("cg/intertwining", "D(x) V_k = V_k pi_k(x)", "clebsch"),
    Row("cg/worked-half-half", "(1/2, 1/2) summand vectors match their closed forms", "clebsch", FIXED),
    Row("cg/trivial-factor", "tensoring with spin 0 is the identity map", "clebsch"),
    Row("cg/block-reconstruction", "sum V_k pi_k(x) V_k* = D(x) on a word battery", "clebsch", 4),
    Row("cg/formal-route", "generator-matrix route equals the symbolic coproduct route", "clebsch", 4),
    # one pair of spins: the cap and one above it
    Row(
        "cg/tensor-relations",
        "coproduct generators satisfy the defining relations",
        "clebsch",
        2,
        inner=lambda nmax2, cap: (min(nmax2, cap), min(nmax2, cap + 1)),
    ),
    Row("dqg/counit-laws", "(eps(x)id)D = id = (id(x)eps)D", "hopf", 4, inner=_half_cap),
    Row("dqg/antipode-laws", "m(S(x)id)D(a) = eps(a)1 = m(id(x)S)D(a)", "hopf", 4, inner=_half_cap),
    Row("dqg/coassociativity", "(D(x)id)D = (id(x)D)D", "hopf", 4),
    Row("dqg/coproduct-multiplicative", "D(ab) = D(a) D(b)", "hopf", 4, inner=_half_cap),
    Row("dqg/coproduct-star", "D(a*) = D(a)*", "hopf", 4),
    Row("dqg/flip-closed-form", "R(e_(r,s)) = (-1)^(s-r) e_(-s,-r)", "hopf", 3),
    Row("dqg/flip-unitary", "G^2 = (-1)^(2n), conjugate linear", "hopf", 3),
    Row("dqg/flip-antiautomorphism", "R is an involutive *-antiautomorphism with R(q) = q^-1, R(e) = -e", "hopf", 4),
    Row("dqg/flip-coproduct", "D(R(a)) = flip (R(x)R) D(a)", "hopf", 4),
    Row(
        "dqg/antipode-closed-form",
        "S matches the symbolic antipode and S(e_(r,s)) = (-1)^(s-r) lam^(s-r) e_(-s,-r)",
        "hopf",
        3,
    ),
    Row("dqg/antipode-squared", "S^-1 S = id and S^2 = tau_(-i)", "hopf", 4),
    Row("dqg/scaling-coproduct", "D tau_s = (tau_s (x) tau_s) D", "hopf", 3),
    Row("dqg/scaling-group", "tau is a one-parameter *-automorphism group commuting with R", "hopf", 4),
    Row("coint/two-routes", "closed form of D(h) equals the summand route", "cointegral", 6),
    Row("coint/idempotent", "D(h)_(n,n)^2 = D(h)_(n,n)", "cointegral", 6),
    Row("coint/self-adjoint", "D(h)_(n,n)* = D(h)_(n,n)", "cointegral", 6),
    Row("coint/rank-one", "D(h)_(n,n) is a rank 1 projection", "cointegral", 6),
    Row("coint/invariant-vector", "range spanned by the canonical invariant vector", "cointegral", 6),
    Row("coint/left-integral", "(id (x) phi) D(h) = 1", "cointegral", 6),
    Row("coint/right-integral", "(psi (x) id) D(h) = 1", "cointegral", 6),
    Row("coint/modular-element", "(phi (x) id) D(h) = q^4", "cointegral", 6),
    Row("coint/trace-contraction", "(trace (x) id) D(h) = q^2 / c", "cointegral", 6),
    Row("coint/absorbing", "a h = eps(a) h = h a", "cointegral", FIXED),
    Row("coint/counit", "eps(h) = 1", "cointegral", FIXED),
    Row(
        "coint/integral-values", "phi(e_(r,r)) = c lam^(-2r), psi(e_(r,r)) = c lam^(2r), phi(h) = 1", "cointegral", 4
    ),
    Row("coint/left-invariance", "(id (x) phi) D(a) = phi(a) 1", "cointegral", 4),
    Row("coint/right-invariance", "(psi (x) id) D(a) = psi(a) 1", "cointegral", 4),
    # the (n, m) coproduct block draws on summands up to spin n + m, so the
    # embedded multiplier covers twice the pair window
    Row(
        "coint/modular-grouplike",
        "delta = q^4 with D(delta) = delta (x) delta",
        "cointegral",
        4,
        inner=lambda nmax2, cap: _spins(2 * nmax2, 2 * cap),
    ),
    Row("modular/left-certificate", "phi(a b) = phi(b sigma_phi(a)) over all matrix-unit pairs", "modular", 4),
    Row("modular/right-certificate", "psi(a b) = psi(b sigma_psi(a)) over all matrix-unit pairs", "modular", 4),
    Row("modular/inverse-pair", "sigma_psi sigma_phi = id and phi sigma_phi = phi", "modular", 4),
    Row("dual/pairing-table", "<pi(q), u>, <pi(e), u>, <pi(f), u> closed forms", "dual", FIXED),
    Row("dual/unit", "1 b = b = b 1 in the dual", "dual", FIXED),
    Row("dual/counit-values", "eps(u[i,j]) = delta(i,j), eps(1) = 1", "dual", FIXED),
    Row("dual/coproduct-battery", "<a a', u[i,j]> = sum_k <a, u[i,k]><a', u[k,j]>", "dual", FIXED),
    Row("dual/associativity", "(x y) z = x (y z)", "dual", FIXED),
    Row(
        "dual/antipode-table",
        "S(u[r,s]) = (-1)^(r-s) lam^(r-s) u[-s,-r]; S(u11) = u22, S(u12) = -lam u12",
        "dual",
        FIXED,
    ),
    Row("dual/antipode-squared", "S^2(u[r,j]) = lam^(2r-2j) u[r,j]", "dual", FIXED),
    Row("dual/star-structure", "u[i,j]* = S(u[j,i]); u22 = u11*, u12 = -gamma*/lam; ** = id", "dual", FIXED),
    # the laws of the next seven rows are the keys of dual.unitarity_residuals
    # and dual.woronowicz_residuals
    Row("dual/unitarity-left", "S(u) u = 1", "dual", FIXED),
    Row("dual/unitarity-right", "u S(u) = 1", "dual", FIXED),
    Row("dual/relation-alpha-gamma", "alpha gamma = gamma alpha / lam", "dual", FIXED),
    Row("dual/relation-alpha-gamma-star", "alpha gamma* = gamma* alpha / lam", "dual", FIXED),
    Row("dual/relation-gamma-normal", "gamma gamma* = gamma* gamma", "dual", FIXED),
    Row("dual/relation-isometry", "alpha* alpha + gamma* gamma = 1", "dual", FIXED),
    Row("dual/relation-coisometry", "alpha alpha* + gamma* gamma / lam^2 = 1", "dual", FIXED),
    Row("dual/haar-unit", "haar(1) = 1 and haar(u[i,j]) = 0", "dual", FIXED),
    Row(
        "dual/haar-quadratic", "haar(u[k,l] u[i,j]) = d(i,-k) d(j,-l) (-1)^(k-l) lam^(k+l)/(lam + 1/lam)", "dual", FIXED
    ),
    Row("dual/haar-antipode", "haar(S(b)) = haar(b)", "dual", FIXED),
    Row("dual/haar-left-invariance", "(id (x) haar) D(b) = haar(b) 1 on quadratics", "dual", FIXED),
    Row(
        "dual/modular-automorphism",
        "sigma(u[p,q]) = lam^(2p+2q) u[p,q]; sigma(b*) = sigma^-1(b)*; haar sigma = haar",
        "dual",
        FIXED,
    ),
    Row(
        "dual/modular-coproduct", "D sigma = (S^2 (x) sigma) D, tested legwise through the pairing", "dual", FIXED
    ),
    Row("dual/span-rank", "u-entry products have full rank on every block", "dual", 2),
    Row("dual/span-gap", "smallest retained singular value >= 1e-6", "dual", 2),
)

ROWS = {row.id: row for row in CHECKS}
_ID_OF_LAW = {row.law: row.id for row in CHECKS}


def _window(check_id: str, nmax2: int) -> range:
    """The doubled spins a check runs over, from its row's cap."""
    return _spins(nmax2, ROWS[check_id].cap)


def _inner(check_id: str, nmax2: int):
    """The window inside a check, from its row's cap."""
    row = ROWS[check_id]
    return row.inner(nmax2, row.cap)


def _matrix_units(two_ks):
    """Every matrix unit of the blocks two_ks as ((k, r, s), e_(r,s)), block by block."""
    for two_k in two_ks:
        for two_r in weights(two_k):
            for two_s in weights(two_k):
                yield (two_k, two_r, two_s), matrix_unit(two_k, two_r, two_s)


# ---------------------------------------------------------------------------
# residual kernels (also consumed by the tests and demos)
# ---------------------------------------------------------------------------


WORD_BATTERY = {
    "q": words.Q,
    "q^-1": words.QINV,
    "e": words.E,
    "f": words.F,
    "ef": words.E * words.F,
    "qef": words.Q * words.E * words.F,
}


@functools.lru_cache(maxsize=None)
def _leg_matrix(rep, word) -> np.ndarray:
    """One word evaluated in one representation; memoized, read-only."""
    return read_only(evaluate(rep, AlgPoly({word: 1.0})))


def tensor_evaluate_formal(params: Params, two_n: int, two_m: int, x: AlgPoly) -> np.ndarray:
    """Evaluate D(x) on spin-n (x) spin-m through the formal coproduct.

    Independent route used against the generator-matrix route: expand the
    comultiplication symbolically, then evaluate each leg separately.
    """
    left = build_rep(params, two_n, +1)
    right = build_rep(params, two_m, +1)
    out = np.zeros((left.dim * right.dim,) * 2, dtype=complex)
    for (w1, w2), coeff in formal_coproduct(x).terms.items():
        out += coeff * kron(_leg_matrix(left, w1), _leg_matrix(right, w2))
    return out


def _ladder_residuals(params: Params, rep):
    """e f^k - f^k e  against  f^(k-1)(a q^2 + b q^-2), one value per k = 1 .. n+2."""
    f_pow = np.eye(rep.dim, dtype=complex)
    for k in range(1, rep.two_n + 3):
        f_prev = f_pow
        f_pow = f_pow @ rep.f
        lhs = rep.e @ f_pow - f_pow @ rep.e
        rhs = f_prev @ ladder_poly_matrix(params, rep, k)
        yield max_abs(lhs - rhs)


def worked_half_half_residual(params: Params) -> float:
    """Deviation of the (1/2, 1/2) decomposition from its closed form.

    The spin-0 summand is spanned by
        (lam^(-1/2) xi_+ (x) xi_-  -  lam^(1/2) xi_- (x) xi_+) / sqrt(lam + 1/lam)
    and the spin-1 middle column is
        (lam^(1/2) xi_+ (x) xi_-  +  lam^(-1/2) xi_- (x) xi_+) / sqrt(lam + 1/lam),
    flanked by xi_+ (x) xi_+ and xi_- (x) xi_-.
    """
    lam = params.lam
    root = np.sqrt(lam + 1.0 / lam)
    dec = decompose(params, 1, 1)

    v0 = np.array([0.0, lam ** -0.5, -(lam ** 0.5), 0.0], dtype=complex) / root
    v1 = np.zeros((4, 3), dtype=complex)
    v1[:, 0] = [1.0, 0.0, 0.0, 0.0]
    v1[:, 1] = np.array([0.0, lam ** 0.5, lam ** -0.5, 0.0]) / root
    v1[:, 2] = [0.0, 0.0, 0.0, 1.0]

    return worst((max_abs(dec.basis[:, 0] - v0), max_abs(dec.basis[:, 1:] - v1)))


def _stacked(elements) -> dict:
    """One zero-padded stack (len(elements), k + 1, k + 1) per spin k of a battery's joint
    support; with no support, a spin-0 zero stack keeps the leading axis."""
    support = sorted(set().union(*(a.blocks for a in elements))) or [0]
    return {two_k: np.array([a.block(two_k) for a in elements]).reshape(-1, two_k + 1, two_k + 1) for two_k in support}


def antipode_law_residuals(params: Params, elements, two_ns) -> np.ndarray:
    """Convolution laws  m(S (x) id) D(a) = eps(a) 1 = m(id (x) S) D(a)
    read off on the (n, n) block, for every element on every block n, shape
    (len(elements), len(two_ns)).  S is applied once to the stack of the
    matrix units e_(p,p') of block n, D(a)_(n,n) once for the battery; both
    convolutions are one stacked product with its slices, summed over (p, p')."""
    counits = np.array([counit(a) for a in elements])
    blocks = _stacked(elements)
    out = np.empty((len(elements), len(two_ns)))
    for j, two_n in enumerate(two_ns):
        dim = two_n + 1
        s_units = antipode_block(params, two_n, np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim))
        m = coproduct_blocks(params, blocks, two_n, two_n).reshape(-1, dim, dim, dim, dim)
        # S(e_(p,p')) D(a)[p, :, p', :]  and  D(a)[:, p, :, p'] S(e_(p,p')), (p, p') flattened
        lhs = np.sum(s_units @ m.transpose(0, 1, 3, 2, 4).reshape(-1, dim * dim, dim, dim), axis=1)
        rhs = np.sum(m.transpose(0, 2, 4, 1, 3).reshape(-1, dim * dim, dim, dim) @ s_units, axis=1)
        target = counits[:, None, None] * np.eye(dim)
        out[:, j] = np.maximum(_max_abs_each(lhs - target), _max_abs_each(rhs - target))
    return out


def coassociativity_residuals(params: Params, elements, window) -> np.ndarray:
    """(D (x) id) D(a) versus (id (x) D) D(a) for every element on every
    block triple (n, m, l) of the window, shape (len(elements), w, w, w),
    axes (n, m, l), w = len(window).

    On (n, m, l), `_lift` takes D(a)_(k,l), k in the index set of (n, m),
    onto (n, m) on the first leg, and D(a)_(n,k) onto (m, l) on the second.
    D(a) of the whole battery is kept while its loop reads it: D(a)_(n,k)
    in the loop body of n, D(a)_(k,l) in that of l.  The lifts take the
    battery in chunks, the most elements whose two lifts fit
    `discrete._SLAB_BYTES`, and drop a chunk's lifts before the next's.
    """
    blocks = _stacked(elements)
    out = np.empty((len(elements),) + (len(window),) * 3)
    for at_n, two_n in enumerate(window):
        second_leg = functools.cache(lambda two_k: coproduct_blocks(params, blocks, two_n, two_k))
        for at_l, two_l in enumerate(window):
            first_leg = functools.cache(lambda two_k: coproduct_blocks(params, blocks, two_k, two_l))
            for at_m, two_m in enumerate(window):
                size = (two_n + 1) * (two_m + 1) * (two_l + 1)
                chunk = max(1, discrete._SLAB_BYTES // (32 * size * size))
                for start in range(0, len(elements), chunk):
                    part = slice(start, start + chunk)
                    first = {k: first_leg(k)[part] for k in index_set(two_n, two_m)}
                    second = {k: second_leg(k)[part] for k in index_set(two_m, two_l)}
                    lhs = _lift(params, first, (two_n, two_m), two_l, leg=0)
                    rhs = _lift(params, second, (two_m, two_l), two_n, leg=1)
                    # lhs read in the layout of rhs, D's own output, which the difference overwrites
                    np.subtract(lhs.transpose(0, 3, 5, 4, 1, 6, 2), rhs, out=rhs)
                    out[part, at_n, at_m, at_l] = _max_abs_each(rhs)
                    del lhs, rhs
    return out


def _lift(params: Params, components: dict, pair, two_o: int, leg: int) -> np.ndarray:
    """sum_k L_k M_k L_k*, with L_k = V_k (x) 1 (leg 0) or 1 (x) V_k (leg 1)
    for the summands V_k of ``pair`` = (n, m), and ``components`` mapping k
    to a stack of operators M_k on spin-k (x) spin-o, resp. spin-o (x)
    spin-k.  That is D on one leg: the (k, k) slices of M_k over each index
    pair of the spin-o leg form one stack for `coproduct_blocks`.  Returns
    its fresh stack, axes (len, o, o', n, m, n', m'): row (n, m, o), column
    (n', m', o') of an item on leg 0, row (o, n, m), column (o', n', m') on
    leg 1."""
    other = two_o + 1
    # the spin-o index pair leads and the spin-k one trails
    order = (0, 2, 4, 1, 3) if leg == 0 else (0, 1, 3, 2, 4)
    slices = {}
    for two_k, stack in components.items():
        legs = (two_k + 1, other) if leg == 0 else (other, two_k + 1)
        slices[two_k] = stack.reshape((len(stack),) + legs + legs).transpose(order)
    dims = (pair[0] + 1, pair[1] + 1)
    return coproduct_blocks(params, slices, *pair).reshape((-1, other, other) + dims + dims)


def _max_abs_each(stack: np.ndarray) -> np.ndarray:
    """`max_abs` of every operator in a stack; a NaN anywhere in one is its value."""
    return np.max(np.abs(stack), axis=tuple(range(1, stack.ndim)), initial=0.0)


def symmetry_residuals(params: Params, elements, block_maps, pairs, reverse=False) -> np.ndarray:
    """D(theta(a))_(n,m) = (theta (x) theta) D(a)_(n,m) for linear block maps
    theta, or with `reverse` D(theta(a))_(m,n) = flip (theta (x) theta)
    D(a)_(n,m), the law of R; shape (len(elements), len(block_maps),
    len(pairs)).  The images of all maps share one stack, so D goes twice
    per pair, and theta (x) theta is theta on each leg of D(a)'s four-index
    form.  The star is conjugate linear, so it is no such map."""
    blocks = _stacked(elements)
    images = {k: np.stack([theta(k, b) for theta in block_maps], axis=1) for k, b in blocks.items()}
    # from [item, map, p, q, u, v] back to [p, u, q, v], or with the legs swapped to [u, p, v, q]
    order = (0, 1, 4, 2, 5, 3) if reverse else (0, 1, 2, 4, 3, 5)
    out = np.empty((len(elements), len(block_maps), len(pairs)))
    for j, (two_n, two_m) in enumerate(pairs):
        stack = coproduct_blocks(params, blocks, two_n, two_m)
        # [item, p, u, q, v]: leg n reads (p, q), leg m (u, v), each moved to the last two axes in turn
        four = stack.reshape(-1, two_n + 1, two_m + 1, two_n + 1, two_m + 1).transpose(0, 2, 4, 1, 3)
        legs = np.stack([theta(two_m, theta(two_n, four).transpose(0, 3, 4, 1, 2)) for theta in block_maps], axis=1)
        image = coproduct_blocks(params, images, *((two_m, two_n) if reverse else (two_n, two_m)))
        out[..., j] = np.max(np.abs(image - legs.transpose(order).reshape(image.shape)), axis=(2, 3), initial=0.0)
    return out


def invariance_residuals(params: Params, elements, two_ns) -> np.ndarray:
    """Left and right invariance of the integrals on block n,

        sum_m (id (x) phi) D(a)_(n,m) = phi(a) 1_n
        sum_m (psi (x) id) D(a)_(m,n) = psi(a) 1_n,

    for every element on every block n, shape (len(elements), len(two_ns), 2).

    On (n, m, k) one contraction gives (id (x) phi) D(e_(r,s))_(n,m) for
    every matrix unit of block k at once, and (psi (x) id) D(e_(r,s))_(m,n)
    likewise; each element's terms are their combination with its
    coefficients.  The contraction collapses a whole leg, so it reads the
    real `basis` columns of each V_k, that leg scaled by the integral's
    values c_m `integral_weights` on its diagonal matrix units
    (`_unit_contractions`): through `coproduct_blocks` it took twice as long
    warm at window 0..4 and ten times as long at window 0..8 (0.2 against
    1.9-2.5 s).
    """
    coefficients = {two_k: stack.reshape(len(elements), (two_k + 1) ** 2) for two_k, stack in _stacked(elements).items()}
    support = list(coefficients)
    targets = np.array([[left_integral(params, a), right_integral(params, a)] for a in elements]).reshape(-1, 2)
    out = np.empty((len(elements), len(two_ns), 2))
    for j, two_n in enumerate(two_ns):
        eye = np.eye(two_n + 1).ravel()
        # every block k reaches the m-blocks in its own index set
        m_window = sorted({two_m for two_k in support for two_m in index_set(two_k, two_n)})
        for side, kind in enumerate(("left", "right")):
            total = np.zeros((len(elements), eye.size), dtype=complex)
            # integral weights grow like lam^(2n); compare at the scale of the
            # largest term entering the cancellation, never below 1
            scale = np.ones(len(elements))
            for two_m in m_window:
                term = np.zeros_like(total)
                for two_k in support:
                    if two_k in index_set(two_n, two_m):
                        term += coefficients[two_k] @ _unit_contractions(params, two_n, two_m, two_k, kind)
                total += term
                scale = np.maximum(scale, _max_abs_each(term))
            out[:, j, side] = _max_abs_each(total - targets[:, side, None] * eye) / scale
    return out


def _unit_contractions(params: Params, two_n: int, two_m: int, two_k: int, kind: str) -> np.ndarray:
    """(id (x) phi) D(e_(r,s))_(n,m) for kind "left", (psi (x) id) D(e_(r,s))_(m,n)
    for kind "right", one row per matrix unit e_(r,s) of block k (r major),
    flattened blocks n.  D(e_(r,s)) = V_k e_(r,s) V_k^T is column r of the
    real V_k times column s, so the integral's leg is contracted with the
    real `basis` columns of V_k once for all units."""
    dec = decompose(params, *((two_n, two_m) if kind == "left" else (two_m, two_n)))
    v = dec.basis[:, dec.columns[two_k]].reshape(dec.two_n + 1, dec.two_m + 1, two_k + 1)
    if kind == "left":
        v = v.transpose(1, 0, 2)
    # v[u, p, r]: leg u meets the integral, leg p stays, r is the unit's row;
    # the integral scales leg u by its values on e_(u,u), and the terms stay real
    weighted = v * (quantum_dimension(params, two_m) * integral_weights(params, two_m, kind))[:, None, None]
    terms = np.tensordot(v, weighted, axes=(0, 0))
    return terms.transpose(1, 3, 0, 2).reshape((two_k + 1) ** 2, (two_n + 1) ** 2)


def modular_certificate_residual(params: Params, two_n: int, kind: str) -> float:
    """integral(a b) = integral(b sigma(a)) over all matrix-unit pairs of one
    block: sigma evaluated once per unit, the products of all pairs stacked,
    and the integral taken on the whole stack at once."""
    units = [a for _, a in _matrix_units([two_n])]
    blocks = np.array([a.block(two_n) for a in units])
    sigmas = np.array([modular_automorphism(params, a, kind).block(two_n) for a in units])
    # [i, j] is the pair (a, b) = (unit i, unit j)
    ab = blocks[:, None] @ blocks[None, :]
    b_sigma_a = blocks[None, :] @ sigmas[:, None]
    return max_abs(block_integrals(params, two_n, ab, kind) - block_integrals(params, two_n, b_sigma_a, kind))


def _pairing_law_residuals(x: dict, y: dict, z: dict) -> list:
    """|<a a', x[i,j]> - sum_k <a, y[i,k]> <a', z[k,j]>| for the u-keyed
    tables x, y, z: every key (i, j) of x, every pair (a, a') of matrix
    units of the spin-1/2 block."""
    units = [a for _, a in _matrix_units([1])]
    return [
        abs(pair(a * a2, x[i, j]) - sum(pair(a, y[i, k]) * pair(a2, z[k, j]) for k in U_LABELS))
        for i, j in x
        for a in units
        for a2 in units
    ]


def dual_coproduct_residual(params: Params) -> float:
    """Matrix coefficient law of u through the pairing:
    <a a', u[i,j]> = sum_k <a, u[i,k]> <a', u[k,j]>."""
    u = u_entries()
    return worst(_pairing_law_residuals(u, u, u))


def dual_haar_quadratic_expected(params: Params, two_k: int, two_l: int, two_i: int, two_j: int) -> complex:
    """Closed form of the Haar state on quadratics:
    haar(u[k,l] u[i,j]) = d(i,-k) d(j,-l) (-1)^(k-l) lam^(k+l) / (lam + 1/lam)."""
    lam = params.lam
    if two_i != -two_k or two_j != -two_l:
        return 0.0 + 0.0j
    sign = (-1.0) ** ((two_k - two_l) // 2)
    return complex(sign * params.lam_pow(two_k + two_l) / (lam + 1.0 / lam))


def dual_antipode_expected(params: Params, two_r: int, two_s: int) -> tuple:
    """S(u[r,s]) = (-1)^(r-s) lam^(r-s) u[-s,-r]; returns (factor, (-s, -r))."""
    sign = (-1.0) ** ((two_r - two_s) // 2)
    return sign * params.lam_pow(two_r - two_s), (-two_s, -two_r)


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


def _check(tol_abs: float, check_id: str, law: str, value, tolerance: float = None) -> Check:
    """A bool value is pass/fail (residual 0 or 1, tolerance 0).  A number,
    or an iterable of numbers folded by `util.worst`, is a residual held
    against tolerance, tol_abs by default; a NaN residual fails."""
    if isinstance(value, (bool, np.bool_)):
        return Check(id=check_id, law=law, residual=0.0 if value else 1.0, tolerance=0.0, passed=bool(value))
    residual = worst(value) if isinstance(value, Iterable) else float(value)
    tolerance = float(tol_abs if tolerance is None else tolerance)
    return Check(id=check_id, law=law, residual=residual, tolerance=tolerance, passed=residual <= tolerance)


def _battery(name: str):
    """Collect a generator of (id, value[, tolerance]) items into a battery
    returning one Check per row of battery `name`, with the row's law; the
    name and signature are kept.  An id outside those rows, an id yielded
    twice or a row never yielded raises ValueError.  Each item is checked,
    its value folded, before the generator resumes, so a lazy value draws
    from the battery's rng in yield order."""
    rows = {row.id: row for row in CHECKS if row.battery == name}

    def decorate(gen):
        @functools.wraps(gen)
        def battery(params: Params, *args, **kwargs) -> list:
            checks = {}
            for check_id, *item in gen(params, *args, **kwargs):
                if check_id not in rows or check_id in checks:
                    fault = "yielded twice" if check_id in checks else "is not one of its rows"
                    raise ValueError(f"{name} battery: check {check_id!r} {fault}")
                checks[check_id] = _check(params.tol_abs, check_id, rows[check_id].law, *item)
            missing = sorted(rows.keys() - checks.keys())
            if missing:
                raise ValueError(f"{name} battery: no check yielded for rows {missing}")
            return list(checks.values())

        return battery

    return decorate


def _all_words(max_len: int):
    return [w for k in range(max_len + 1) for w in itertools.product(Gen, repeat=k)]


@_battery("formal")
def formal_battery(params: Params, nmax2: int, rng):
    lam = params.lam

    expected = words.TensorPoly(
        {
            (((Gen.Q, Gen.Q), (Gen.E, Gen.F))): 1.0,
            (((Gen.Q, Gen.F), (Gen.E, Gen.QINV))): 1.0,
            (((Gen.E, Gen.Q), (Gen.QINV, Gen.F))): 1.0,
            (((Gen.E, Gen.F), (Gen.QINV, Gen.QINV))): 1.0,
        }
    )
    yield "words/coproduct-ef", (formal_coproduct(words.E * words.F) - expected).max_abs_coeff()

    counit_ok = (
        formal_counit(words.Q) == 1.0
        and formal_counit(words.QINV) == 1.0
        and formal_counit(words.E) == 0.0
        and formal_counit(words.F) == 0.0
        and formal_counit(words.Q * words.QINV) == 1.0
        and formal_counit(words.Q * words.E) == 0.0
    )
    yield "words/counit-values", counit_ok

    s_ef = formal_antipode(words.E * words.F, lam)
    yield "words/antipode-ef", (s_ef - words.F * words.E).max_abs_coeff()
    yield (
        "words/star-examples",
        (words.Q * words.E).star() == words.F * words.Q and (words.E * words.F).star() == words.E * words.F,
    )

    battery = [AlgPoly({w: 1.0}) for w in _all_words(3)]
    coproducts = [formal_coproduct(x) for x in battery]

    yield "words/coassociativity", (
        (words.coproduct_leg(tp, 0) - words.coproduct_leg(tp, 1)).max_abs_coeff()
        for tp in coproducts
    )

    eps = lambda word: formal_counit(AlgPoly({word: 1.0}))
    yield "words/counit-laws", (
        (leg - x).max_abs_coeff()
        for x, tp in zip(battery, coproducts)
        for leg in (
            AlgPoly({w2: c * eps(w1) for (w1, w2), c in tp.terms.items()}),
            AlgPoly({w1: c * eps(w2) for (w1, w2), c in tp.terms.items()}),
        )
    )

    pairs = [(x, formal_coproduct(x), formal_antipode(x, lam)) for x in (AlgPoly({w: 1.0}) for w in _all_words(2))]
    yield "words/coproduct-homomorphism", (
        (formal_coproduct(x * y) - dx * dy).max_abs_coeff() for x, dx, _ in pairs for y, dy, _ in pairs
    )
    yield "words/antipode-antihomomorphism", (
        (formal_antipode(x * y, lam) - sy * sx).max_abs_coeff() for x, _, sx in pairs for y, _, sy in pairs
    )
    yield "words/antipode-star-involution", (
        (formal_antipode(formal_antipode(x, lam).star(), lam).star() - x).max_abs_coeff() for x in battery
    )
    yield "words/counit-antipode", (abs(formal_counit(formal_antipode(x, lam)) - formal_counit(x)) for x in battery)


@_battery("rep")
def rep_battery(params: Params, nmax2: int, rng):
    lam = params.lam

    # the relation, adjointness, symmetry and Casimir checks share these
    reps = [build_rep(params, two_n, sign) for two_n in _window("reps/adjointness", nmax2) for sign in (+1, -1)]
    relations = [relation_residuals(params, rep.q, rep.q_inv, rep.e, rep.f) for rep in reps]
    for law in relations[0]:
        yield _ID_OF_LAW[law], [res[law] for res in relations]
    # the law of reps/relation-estar on the same reps, kept under its own id
    yield "reps/adjointness", [res["e* = f"] for res in relations]
    yield "reps/amplitude-symmetry", (max_abs(rep.r - rep.r[::-1]) for rep in reps if rep.sign == +1)
    yield "reps/amplitude-closure", (
        abs(float(params.c * np.sum(params.q_diag(two_n, 2.0) - params.q_diag(two_n, -2.0))))
        for two_n in _window("reps/amplitude-closure", nmax2)
    )
    yield "reps/casimir", (
        max_abs(casimir_matrix(params, rep) - casimir_scalar(params, rep.two_n) * np.eye(rep.dim))
        / max(1.0, abs(casimir_scalar(params, rep.two_n)))
        for rep in reps
    )

    yield "reps/ladder-identity", (
        value
        for two_n in _window("reps/ladder-identity", nmax2)
        for value in _ladder_residuals(params, build_rep(params, two_n, +1))
    )

    trivial = build_rep(params, 0, +1)
    half = build_rep(params, 1, +1)
    one = build_rep(params, 2, +1)
    v = lam + 1.0 / lam
    yield "reps/closed-forms", (
        max_abs(trivial.q - np.eye(1)),
        max_abs(trivial.e),
        max_abs(half.q - np.diag([lam**0.5, lam**-0.5])),
        abs(half.r[0] - 1.0),
        abs(one.r[0] ** 2 - v),
        abs(one.r[1] ** 2 - v),
        max_abs(evaluate(half, words.Q * words.E) - np.array([[0.0, lam**0.5], [0.0, 0.0]])),
    )

    # one Haar unitary per rep conjugates the second row's generators; a
    # refusal of the classifier is a miss for that rep
    for check_id, conjugated in (("reps/classification", False), ("reps/classification-conjugated", True)):
        ok = True
        for two_n in _window(check_id, nmax2):
            for sign in (+1, -1):
                rep = build_rep(params, two_n, sign)
                mats = (rep.q, rep.e, rep.f)
                if conjugated:
                    u = _haar_unitary(rng, rep.dim)
                    mats = [u @ m @ u.conj().T for m in mats]
                try:
                    ok = ok and classify_by_highest_weight(params, *mats) == (two_n, sign)
                except ValueError:
                    ok = False
        yield check_id, ok

    c = params.c
    rescaling = []
    # the rescaling and phase-twist checks share these
    low_reps = [build_rep(params, two_n, +1) for two_n in _window("reps/rescaling", nmax2)]
    for rep in low_reps:
        e1 = rep.e / np.sqrt(c)
        f1 = rep.f / np.sqrt(c)
        q2 = rep.q @ rep.q - rep.q_inv @ rep.q_inv
        rescaling.append(max_abs(e1 @ f1 - f1 @ e1 - q2))
        rescaling.append(
            max_abs((np.sqrt(c) * e1) @ (np.sqrt(c) * f1) - (np.sqrt(c) * f1) @ (np.sqrt(c) * e1) - c * q2)
        )
    yield "reps/rescaling", rescaling

    yield "reps/phase-twist", (
        value
        for z in (np.exp(1j * theta) for theta in rng.uniform(0.0, 2.0 * np.pi, size=3))
        for rep in low_reps
        for value in relation_residuals(params, rep.q, rep.q_inv, z * rep.e, np.conj(z) * rep.f).values()
    )


@_battery("clebsch")
def clebsch_battery(params: Params, nmax2: int, rng):
    yield "cg/index-set", index_set(1, 1) == [0, 2] and index_set(2, 3) == [1, 3, 5] and index_set(0, 4) == [4]
    dims_ok = True
    for two_n in _window("cg/dimension-identity", nmax2):
        for two_m in _window("cg/dimension-identity", nmax2):
            ks = index_set(two_n, two_m)
            dims_ok = dims_ok and sum(k + 1 for k in ks) == (two_n + 1) * (two_m + 1)
    yield "cg/dimension-identity", dims_ok

    window = _window("cg/orthonormality", nmax2)
    residuals = [decomposition_residuals(params, two_n, two_m) for two_n in window for two_m in window]
    for key in residuals[0]:
        yield f"cg/{key}", [res[key] for res in residuals]

    yield "cg/worked-half-half", worked_half_half_residual(params)

    yield "cg/trivial-factor", (
        max_abs(decompose(params, two_n, two_m).basis - np.eye(two_k + 1))
        for two_k in _window("cg/trivial-factor", nmax2)
        for two_n, two_m in ((0, two_k), (two_k, 0))
    )

    # the block-reconstruction and formal-route checks share the generator
    # route's images of the words; the words embed over every summand
    window = _window("cg/block-reconstruction", nmax2)
    polys = list(WORD_BATTERY.values())
    words_stacked = _stacked([embed(params, x, _spins(2 * window[-1])) for x in polys])
    images = {}
    for pair in itertools.product(window, repeat=2):
        trep = tensor_rep(*(build_rep(params, two_k, +1) for two_k in pair))
        images[pair] = np.array([evaluate_in(trep.gen_matrices, x, trep.dim) for x in polys])
    yield "cg/block-reconstruction", np.array(
        [_max_abs_each(coproduct_blocks(params, words_stacked, *pair) - image) for pair, image in images.items()]
    ).ravel()
    yield "cg/formal-route", np.array(
        [
            _max_abs_each(image - np.array([tensor_evaluate_formal(params, *pair, x) for x in polys]))
            for pair, image in images.items()
        ]
    ).ravel()

    two_n, two_m = _inner("cg/tensor-relations", nmax2)
    trep = tensor_rep(build_rep(params, two_n, +1), build_rep(params, two_m, +1))
    yield "cg/tensor-relations", relation_residuals(params, trep.q, trep.q_inv, trep.e, trep.f).values()


def _haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def _random_alg_element(rng, two_ns) -> AlgElement:
    return AlgElement(
        {
            two_n: rng.standard_normal((two_n + 1, two_n + 1))
            + 1j * rng.standard_normal((two_n + 1, two_n + 1))
            for two_n in two_ns
        }
    )


# the hopf rows that build their own elements; every other one reads the
# battery's shared word and random elements
OWN_ELEMENT_ROWS = ("dqg/flip-closed-form", "dqg/flip-unitary")


@_battery("hopf")
def hopf_battery(params: Params, nmax2: int, rng):
    # the shared elements cover the widest window of the rows that read
    # them; each check's matrix units and loops follow its own row
    window = _spins(nmax2, max(r.cap for r in ROWS.values() if r.battery == "hopf" and r.id not in OWN_ELEMENT_ROWS))
    word_elements = {name: embed(params, x, window) for name, x in WORD_BATTERY.items()}
    units = lambda check_id: [a for _, a in _matrix_units(_inner(check_id, nmax2))]
    random_elements = [_random_alg_element(rng, window) for _ in range(2)]
    battery = lambda check_id: list(word_elements.values()) + units(check_id) + random_elements

    coproduct = lambda blocks, pair: coproduct_blocks(params, blocks, *pair)
    blocks = _stacked(battery("dqg/counit-laws"))
    spins = _window("dqg/counit-laws", nmax2)
    # D(a)_(0,m) and D(a)_(m,0) are a_m itself
    yield "dqg/counit-laws", np.array(
        [_max_abs_each(coproduct(blocks, pair) - blocks.get(m, 0.0)) for m in spins for pair in ((0, m), (m, 0))]
    ).ravel()
    yield "dqg/antipode-laws", antipode_law_residuals(
        params, battery("dqg/antipode-laws"), _window("dqg/antipode-laws", nmax2)
    ).ravel()

    coassoc_battery = [word_elements["e"], word_elements["ef"]] + random_elements
    yield "dqg/coassociativity", coassociativity_residuals(
        params, coassoc_battery, _window("dqg/coassociativity", nmax2)
    ).ravel()

    unit_elements = units("dqg/coproduct-multiplicative")
    hom_pairs = [
        (word_elements["q"], word_elements["e"]),
        (word_elements["e"], word_elements["f"]),
        (random_elements[0], random_elements[1]),
        (unit_elements[1], unit_elements[2]) if len(unit_elements) > 2 else (random_elements[0], random_elements[0]),
    ]
    lefts, rights, products = (_stacked(factors) for factors in zip(*((a, b, a * b) for a, b in hom_pairs)))
    pairs = list(itertools.product(_window("dqg/coproduct-multiplicative", nmax2), repeat=2))
    yield "dqg/coproduct-multiplicative", np.array(
        [_max_abs_each(coproduct(products, p) - coproduct(lefts, p) @ coproduct(rights, p)) for p in pairs]
    ).ravel()
    star_battery = random_elements + [word_elements["qef"]]
    blocks, stars = _stacked(star_battery), _stacked([a.star() for a in star_battery])
    pairs = list(itertools.product(_window("dqg/coproduct-star", nmax2), repeat=2))
    yield "dqg/coproduct-star", np.array(
        [_max_abs_each(coproduct(stars, p) - coproduct(blocks, p).conj().swapaxes(1, 2)) for p in pairs]
    ).ravel()

    # unitary antipode: closed form on matrix units, involution, *-antihomomorphism
    yield "dqg/flip-closed-form", (
        (unitary_antipode(unit) - (-1.0) ** ((two_s - two_r) // 2) * matrix_unit(two_k, -two_s, -two_r)).norm()
        for (two_k, two_r, two_s), unit in _matrix_units(_window("dqg/flip-closed-form", nmax2))
    )

    # the flip G v = (signs * conj(v))[::-1] squares to (-1)^(2n) and is conjugate linear
    yield "dqg/flip-unitary", all(
        max_abs(g(g(v)) - (-1.0) ** two_k * v) < 1e-14 and max_abs(g(1j * v) + 1j * g(v)) < 1e-14
        for two_k in _window("dqg/flip-unitary", nmax2)
        for g in [lambda v, signs=conjugate_unitary(two_k): (signs * np.conj(v))[::-1]]
        for v in np.eye(two_k + 1, dtype=complex)
    )

    flip = unitary_antipode
    r0, r1 = random_elements
    diffs = [d for a in random_elements for d in (flip(flip(a)) - a, flip(a.star()) - flip(a).star())]
    diffs += [
        flip(r0 * r1) - flip(r1) * flip(r0),
        flip(word_elements["q"]) - word_elements["q^-1"],
        flip(word_elements["e"]) + word_elements["e"],
        flip(word_elements["f"]) + word_elements["f"],
    ]
    yield "dqg/flip-antiautomorphism", (d.norm() for d in diffs)

    spins = _window("dqg/flip-coproduct", nmax2)
    pairs = [(two_n, two_m) for two_n in spins for two_m in spins]
    flips = symmetry_residuals(params, random_elements, [unitary_antipode_block], pairs, reverse=True)
    yield "dqg/flip-coproduct", flips.ravel()

    # antipode against the symbolic layer and closed forms
    diffs = [
        antipode(params, word_elements[name]) - embed(params, formal_antipode(x, params.lam), window)
        for name, x in WORD_BATTERY.items()
    ]
    diffs += [
        antipode(params, unit)
        - (-1.0) ** ((two_s - two_r) // 2) * params.lam_pow(two_s - two_r) * matrix_unit(two_k, -two_s, -two_r)
        for (two_k, two_r, two_s), unit in _matrix_units(_window("dqg/antipode-closed-form", nmax2))
    ]
    yield "dqg/antipode-closed-form", (d.norm() for d in diffs)

    yield "dqg/antipode-squared", (
        d.norm()
        for a in random_elements
        for d in (
            antipode_inv(params, antipode(params, a)) - a,
            antipode(params, antipode(params, a)) - scaling_imag(params, a, -1.0),
        )
    )

    s_values = [0.7, -1.3] + list(rng.uniform(-2.0, 2.0, size=2))
    spins = _window("dqg/scaling-coproduct", nmax2)
    pairs = [(two_n, two_m) for two_n in spins for two_m in spins]
    taus = [functools.partial(scaling_block, params, s=s) for s in s_values]
    yield "dqg/scaling-coproduct", symmetry_residuals(params, random_elements, taus, pairs).ravel()

    s1, s2 = 0.9, -0.4
    yield "dqg/scaling-group", (
        d.norm()
        for a in random_elements
        for d in (
            scaling(params, scaling(params, a, s1), s2) - scaling(params, a, s1 + s2),
            scaling(params, a.star(), s1) - scaling(params, a, s1).star(),
            flip(scaling(params, a, s1)) - scaling(params, flip(a), s1),
        )
    )


def _cointegral_block(params: Params, two_n: int) -> dict:
    """The nine residuals of the (n, n) block of D(h), keyed by the names of
    their `coint/*` checks; they share its closed form."""
    dim = two_n + 1
    closed = cointegral_coproduct(params, two_n)
    sing = np.linalg.svd(closed, compute_uv=False)
    vec = invariant_vector(params, two_n)
    eye = np.eye(dim, dtype=complex)
    # D(h) as [p, u, q, v]: an integral on one leg reads that leg's diagonal,
    # which np.diagonal puts on the last axis
    four = closed.reshape(dim, dim, dim, dim)
    first, second = np.diagonal(four, axis1=0, axis2=2), np.diagonal(four, axis1=1, axis2=3)
    c_n = quantum_dimension(params, two_n)
    phi, psi = (c_n * integral_weights(params, two_n, kind) for kind in ("left", "right"))
    return {
        "two-routes": max_abs(closed - coproduct_component(params, cointegral(), two_n, two_n)),
        "idempotent": max_abs(closed @ closed - closed),
        "self-adjoint": max_abs(closed - closed.conj().T),
        "rank-one": worst([abs(float(sing[0]) - 1.0), *sing[1:2]]),
        "invariant-vector": max_abs(closed - np.outer(vec, vec.conj())),
        "left-integral": max_abs(np.sum(second * phi, axis=-1) - eye),
        "right-integral": max_abs(np.sum(first * psi, axis=-1) - eye),
        "modular-element": max_abs(np.sum(first * phi, axis=-1) - modular_element_block(params, two_n)),
        "trace-contraction": max_abs(np.sum(first, axis=-1) - np.diag(params.q_diag(two_n, 2.0)) / c_n),
    }


@_battery("cointegral")
def cointegral_battery(params: Params, nmax2: int, rng):
    h = cointegral()

    blocks = [_cointegral_block(params, two_n) for two_n in _window("coint/two-routes", nmax2)]
    for name in blocks[0]:
        yield f"coint/{name}", [block[name] for block in blocks]

    yield "coint/absorbing", (
        (x - counit(a) * h).norm()
        for a in [matrix_unit(0, 0, 0), matrix_unit(2, 2, 0), one_window([0, 1, 2])]
        for x in (a * h, h * a)
    )
    yield "coint/counit", abs(counit(h) - 1.0) < 1e-15

    values = [abs(left_integral(params, h) - 1.0), abs(right_integral(params, h) - 1.0)]
    for two_n in _window("coint/integral-values", nmax2):
        c_n = quantum_dimension(params, two_n)
        for two_r in weights(two_n):
            unit = matrix_unit(two_n, two_r, two_r)
            values.append(abs(left_integral(params, unit) - c_n * params.lam_pow(-2 * two_r)))
            values.append(abs(right_integral(params, unit) - c_n * params.lam_pow(2 * two_r)))
        if two_n:
            off = matrix_unit(two_n, two_n, -two_n)
            values += [abs(left_integral(params, off)), abs(right_integral(params, off))]
    yield "coint/integral-values", values

    # one kernel run gives both invariance checks
    window = _window("coint/left-invariance", nmax2)
    invariance = invariance_residuals(params, [a for _, a in _matrix_units(window)], window)
    yield "coint/left-invariance", invariance[..., 0].ravel()
    yield "coint/right-invariance", invariance[..., 1].ravel()

    q4 = words.Q * words.Q * words.Q * words.Q
    window = _window("coint/modular-grouplike", nmax2)
    delta = embed(params, q4, _inner("coint/modular-grouplike", nmax2))
    values = [max_abs(delta.block(two_n) - modular_element_block(params, two_n)) for two_n in window]
    for two_n in window:
        for two_m in window:
            grouplike = kron(modular_element_block(params, two_n), modular_element_block(params, two_m))
            diff = max_abs(coproduct_component(params, delta, two_n, two_m) - grouplike)
            values.append(diff / max(1.0, max_abs(grouplike)))
    yield "coint/modular-grouplike", values


@_battery("modular")
def modular_battery(params: Params, nmax2: int, rng):
    for kind in ("left", "right"):
        check_id = f"modular/{kind}-certificate"
        yield check_id, [modular_certificate_residual(params, two_n, kind) for two_n in _window(check_id, nmax2)]

    values = []
    for _, a in _matrix_units(_window("modular/inverse-pair", nmax2)):
        sigma_a = modular_automorphism(params, a, "left")
        values.append((modular_automorphism(params, sigma_a, "right") - a).norm())
        values.append(abs(left_integral(params, sigma_a) - left_integral(params, a)))
    yield "modular/inverse-pair", values


@_battery("dual")
def dual_battery(params: Params, nmax2: int, rng):
    lam = params.lam

    half = build_rep(params, 1, +1)
    yield "dual/pairing-table", (
        max_abs(np.array([[pair(AlgElement({1: m}), u_entry(i, j)) for j in U_LABELS] for i in U_LABELS]) - target)
        for m, target in (
            (half.q, np.diag([lam**0.5, lam**-0.5])),
            (half.e, np.array([[0.0, 1.0], [0.0, 0.0]])),
            (half.f, np.array([[0.0, 0.0], [1.0, 0.0]])),
        )
    )

    one = dual_unit()
    u_table = u_entries()
    yield "dual/unit", (
        (prod - u).norm() for u in u_table.values() for prod in (dual_mul(params, one, u), dual_mul(params, u, one))
    )

    yield "dual/counit-values", abs(dual_counit(one) - 1.0) < 1e-15 and all(
        abs(dual_counit(u) - float(i == j)) < 1e-15 for (i, j), u in u_table.items()
    )

    yield "dual/coproduct-battery", dual_coproduct_residual(params)

    entries = list(u_table.values())
    coeffs = rng.standard_normal(len(entries)) + 1j * rng.standard_normal(len(entries))
    x = sum((cf * u for cf, u in zip(coeffs, entries)), DualElement())
    y = dual_mul(params, entries[0], entries[3]) + entries[1]
    z = entries[2]
    xy_z, x_yz = dual_mul(params, dual_mul(params, x, y), z), dual_mul(params, x, dual_mul(params, y, z))
    yield "dual/associativity", (xy_z - x_yz).norm()

    # S, S^2, * and sigma of each u-entry, once for every row that reads them
    s_table = {key: dual_antipode(params, u) for key, u in u_table.items()}
    s2_table = {key: dual_antipode(params, b) for key, b in s_table.items()}
    star_table = {key: dual_star(params, u) for key, u in u_table.items()}
    sigma_table = {key: dual_modular(params, u) for key, u in u_table.items()}

    diffs = [dual_antipode(params, one) - one]
    for (i, j), b in s_table.items():
        factor, target = dual_antipode_expected(params, i, j)
        diffs.append(b - factor * u_table[target])
    yield "dual/antipode-table", (d.norm() for d in diffs)

    yield "dual/antipode-squared", (
        d.norm()
        for (i, j), u in u_table.items()
        for d in (dual_antipode_inv(params, s_table[i, j]) - u, s2_table[i, j] - params.lam_pow(2 * (i - j)) * u)
    )

    alpha, gamma = u_table[1, 1], u_table[-1, 1]
    diffs = [star_table[i, j] - s_table[j, i] for i, j in u_table]
    diffs += [
        star_table[1, 1] - u_table[-1, -1],
        u_table[1, -1] + (1.0 / lam) * star_table[-1, 1],
        dual_star(params, dual_star(params, alpha + 1j * gamma)) - (alpha + 1j * gamma),
    ]
    yield "dual/star-structure", (d.norm() for d in diffs)

    for law, value in [*unitarity_residuals(params).items(), *woronowicz_residuals(params).items()]:
        yield _ID_OF_LAW[law], value

    yield "dual/haar-unit", abs(dual_haar(one) - 1.0) < 1e-15 and all(
        abs(dual_haar(u)) < 1e-15 for u in u_table.values()
    )

    # u[k,l] u[i,j] keyed by (k, l, i, j)
    quadratics = {
        (k, l, i, j): dual_mul(params, u_kl, u_ij)
        for (k, l), u_kl in u_table.items()
        for (i, j), u_ij in u_table.items()
    }
    yield "dual/haar-quadratic", (
        abs(dual_haar(b) - dual_haar_quadratic_expected(params, *key)) for key, b in quadratics.items()
    )
    yield "dual/haar-antipode", (abs(dual_haar(dual_antipode(params, b)) - dual_haar(b)) for b in quadratics.values())

    values = []
    for (i, j, k, l), b in quadratics.items():
        acc = DualElement()
        for r in U_LABELS:
            for s in U_LABELS:
                haar_val = dual_haar(quadratics[r, j, s, l])
                if haar_val != 0:
                    acc = acc + haar_val * quadratics[i, r, k, s]
        values.append((acc - dual_haar(b) * one).norm())
    yield "dual/haar-left-invariance", values

    diffs = [
        d
        for (i, j), u in u_table.items()
        for d in (
            sigma_table[i, j] - params.lam_pow(2 * (i + j)) * u,
            dual_modular_inv(params, sigma_table[i, j]) - u,
            dual_modular(params, star_table[i, j]) - dual_star(params, dual_modular_inv(params, u)),
        )
    ]
    yield "dual/modular-automorphism", [
        *(d.norm() for d in diffs),
        *(abs(dual_haar(dual_modular(params, b)) - dual_haar(b)) for b in list(quadratics.values())[:6]),
    ]
    yield "dual/modular-coproduct", _pairing_law_residuals(sigma_table, s2_table, sigma_table)

    # the span rank and gap share one span check
    span = span_check(params, _window("dual/span-rank", nmax2)[-1])
    ok = all(entry["rank"] == entry["expected"] for entry in span.values())
    gap = min(entry["gap"] for entry in span.values())
    yield "dual/span-rank", ok
    yield "dual/span-gap", 1e-6 - min(gap, 1e-6), 0.0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# the batteries each suite runs
SUITE_BATTERIES = {
    "hopf": ("formal",),
    "dqg": ("rep", "clebsch", "hopf", "cointegral", "modular"),
    "dual": ("dual",),
}
SUITES = (*SUITE_BATTERIES, "all")
# the seed offset of a suite's rng stream, 0 where not listed
_SEED_OFFSETS = {"dual": 1}


class _Draws:
    """A suite's seeded stream: the uniforms of Python's `random.Random`,
    whose stream for a seed Python keeps across versions, as numpy arrays.
    It serves the two calls the batteries make of their ``rng``, which may
    also be a numpy ``Generator``."""

    def __init__(self, seed):
        self._random = random.Random(seed).random

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return low + (high - low) * np.array([self._random() for _ in range(size)])

    def standard_normal(self, shape) -> np.ndarray:
        """Box-Muller on successive pairs of uniforms, cosine then sine;
        log1p(-u) keeps u = 0 finite, and an odd count drops the last sine."""
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        values = []
        while len(values) < count:
            radius = math.sqrt(-2.0 * math.log1p(-self._random()))
            angle = 2.0 * math.pi * self._random()
            values += (radius * math.cos(angle), radius * math.sin(angle))
        return np.reshape(values[:count], shape)


def run_suite(config: RunConfig, suite: str) -> Report:
    """Run one named suite, or all, and return its report.  Each battery is
    looked up by name as it runs, so a wrapped one runs, and is called with
    (params, nmax2, rng); a suite's batteries share one `_Draws` stream as
    their rng.  An `ArithmeticError` out of a battery is raised again, of
    its own type, naming the battery and t."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    params = config.params()
    checks = []
    for name in SUITE_BATTERIES if suite == "all" else (suite,):
        rng = _Draws(int(config.seed) + _SEED_OFFSETS.get(name, 0))
        for b in SUITE_BATTERIES[name]:
            try:
                checks.extend(globals()[f"{b}_battery"](params, config.nmax2, rng))
            except ArithmeticError as exc:
                raise type(exc)(f"{b} battery at t = {params.t}: {exc}") from exc
    return Report(suite=suite, config=config, checks=tuple(sorted(checks, key=lambda c: c.id)))

"""The check batteries: pinned ids per suite, results and tolerances."""

import json
import math
import sys

import numpy as np
import pytest

from suq2.clebsch import decompose, tensor_rep
from suq2.discrete import conjugate_unitary
from suq2.params import Params
from suq2.reps import build_rep
from suq2.verify import SUITES, RunConfig, _leg_matrix, doc_csv, dump_json, report_csv, report_doc, run_suite
from suq2.words import Gen

HOPF_IDS = [
    "words/antipode-antihomomorphism",
    "words/antipode-ef",
    "words/antipode-star-involution",
    "words/coassociativity",
    "words/coproduct-ef",
    "words/coproduct-homomorphism",
    "words/counit-antipode",
    "words/counit-laws",
    "words/counit-values",
    "words/star-examples",
]

DQG_IDS = [
    "cg/block-reconstruction",
    "cg/completeness",
    "cg/dimension-identity",
    "cg/formal-route",
    "cg/index-set",
    "cg/intertwining",
    "cg/orthonormality",
    "cg/tensor-relations",
    "cg/trivial-factor",
    "cg/worked-half-half",
    "coint/absorbing",
    "coint/counit",
    "coint/idempotent",
    "coint/integral-values",
    "coint/invariant-vector",
    "coint/left-integral",
    "coint/left-invariance",
    "coint/modular-element",
    "coint/modular-grouplike",
    "coint/rank-one",
    "coint/right-integral",
    "coint/right-invariance",
    "coint/self-adjoint",
    "coint/trace-contraction",
    "coint/two-routes",
    "dqg/antipode-closed-form",
    "dqg/antipode-laws",
    "dqg/antipode-squared",
    "dqg/coassociativity",
    "dqg/coproduct-multiplicative",
    "dqg/coproduct-star",
    "dqg/counit-laws",
    "dqg/flip-antiautomorphism",
    "dqg/flip-closed-form",
    "dqg/flip-coproduct",
    "dqg/flip-unitary",
    "dqg/scaling-coproduct",
    "dqg/scaling-group",
    "modular/inverse-pair",
    "modular/left-certificate",
    "modular/right-certificate",
    "reps/adjointness",
    "reps/amplitude-closure",
    "reps/amplitude-symmetry",
    "reps/casimir",
    "reps/classification",
    "reps/classification-conjugated",
    "reps/closed-forms",
    "reps/ladder-identity",
    "reps/phase-twist",
    "reps/relation-ef-fe",
    "reps/relation-estar",
    "reps/relation-qe",
    "reps/relation-qf",
    "reps/relation-qq-1",
    "reps/relation-qstar",
    "reps/rescaling",
]

DUAL_IDS = [
    "dual/antipode-squared",
    "dual/antipode-table",
    "dual/associativity",
    "dual/coproduct-battery",
    "dual/counit-values",
    "dual/haar-antipode",
    "dual/haar-left-invariance",
    "dual/haar-quadratic",
    "dual/haar-unit",
    "dual/modular-automorphism",
    "dual/modular-coproduct",
    "dual/pairing-table",
    "dual/relation-alpha-gamma",
    "dual/relation-alpha-gamma-star",
    "dual/relation-coisometry",
    "dual/relation-gamma-normal",
    "dual/relation-isometry",
    "dual/span-gap",
    "dual/span-rank",
    "dual/star-structure",
    "dual/unit",
    "dual/unitarity-left",
    "dual/unitarity-right",
]

EXPECTED_IDS = {"hopf": HOPF_IDS, "dqg": DQG_IDS, "dual": DUAL_IDS}

# checks whose value is a yes/no answer: residual 0 or 1 against tolerance 0
PASS_FAIL_IDS = {
    "cg/dimension-identity",
    "cg/index-set",
    "coint/counit",
    "dqg/flip-unitary",
    "dual/counit-values",
    "dual/haar-unit",
    "dual/span-rank",
    "reps/classification",
    "reps/classification-conjugated",
    "words/counit-values",
    "words/star-examples",
}


@pytest.fixture(scope="module")
def reports():
    config = RunConfig()
    return {suite: run_suite(config, suite) for suite in SUITES}


@pytest.mark.parametrize("suite, count", [("hopf", 10), ("dqg", 57), ("dual", 23)])
def test_check_ids_per_suite(reports, suite, count):
    assert len(EXPECTED_IDS[suite]) == count
    assert [c.id for c in reports[suite].checks] == EXPECTED_IDS[suite]


def test_all_suite_is_the_union(reports):
    union = sorted(HOPF_IDS + DQG_IDS + DUAL_IDS)
    assert len(union) == 90
    assert [c.id for c in reports["all"].checks] == union


def clear_caches():
    """Empty every cache bound in a suq2 module, so the next run is cold."""
    for name, module in list(sys.modules.items()):
        if name == "suq2" or name.startswith("suq2."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_each_suite_matches_its_all_rows_in_either_order():
    """The memoized intermediates make no check depend on what ran before:
    each suite, run before and after ``all`` from cold caches, serializes
    to the rows ``all`` gives for its ids, byte for byte.  Before ``all``
    the suites run in reverse, so ``dqg`` fills the shared caches first."""
    config = RunConfig(seed=7)
    parts = ("hopf", "dqg", "dual")
    rows = lambda report: {c["id"]: dump_json(c) for c in report_doc(report)["checks"]}
    clear_caches()
    before = {suite: rows(run_suite(config, suite)) for suite in reversed(parts)}
    all_after = rows(run_suite(config, "all"))
    clear_caches()
    all_before = rows(run_suite(config, "all"))
    after = {suite: rows(run_suite(config, suite)) for suite in parts}
    assert all_before == all_after
    for suite in parts:
        assert list(before[suite]) == EXPECTED_IDS[suite]
        for checks in (before[suite], after[suite]):
            assert checks == {check_id: all_before[check_id] for check_id in checks}, suite


def test_every_check_passes_at_the_default_config(reports):
    assert [c.id for c in reports["all"].failures] == []


def test_tolerances_are_zero_only_for_pass_fail_and_span_gap(reports):
    assert len(PASS_FAIL_IDS) == 11
    tol_abs = RunConfig().tol_abs
    for check in reports["all"].checks:
        if check.id in PASS_FAIL_IDS or check.id == "dual/span-gap":
            assert check.tolerance == 0.0, check.id
        else:
            assert check.tolerance == tol_abs, check.id
    for check in reports["all"].checks:
        if check.id in PASS_FAIL_IDS:
            assert check.residual in (0.0, 1.0), check.id


def test_pass_fail_checks_ignore_the_absolute_tolerance():
    report = run_suite(RunConfig(tol_abs=1e-30), "all")
    results = {c.id: c for c in report.checks}
    for check_id in PASS_FAIL_IDS:
        assert results[check_id].passed, check_id
        assert results[check_id].tolerance == 0.0, check_id
    # the tight tolerance does reach the residual checks
    assert report.failures


# At t = 50 the embedded q^4 and the integral weights overflow; these three
# residuals fold a NaN from one of their items, wherever it sits.
NAN_AT_T50 = {"coint/left-invariance", "coint/modular-grouplike", "coint/right-invariance"}

# Every check that fails at t = 50, as the one-element residual helpers
# found it before the batched kernels; the kernels must keep this set.
FAILED_AT_T50 = NAN_AT_T50 | {
    "cg/block-reconstruction",
    "cg/formal-route",
    "cg/intertwining",
    "cg/tensor-relations",
    "coint/modular-element",
    "dqg/antipode-closed-form",
    "dqg/antipode-laws",
    "dqg/antipode-squared",
    "dqg/coassociativity",
    "dqg/coproduct-multiplicative",
    "dqg/flip-antiautomorphism",
    "dual/antipode-squared",
    "dual/antipode-table",
    "dual/modular-automorphism",
    "dual/modular-coproduct",
    "modular/inverse-pair",
    "modular/left-certificate",
    "modular/right-certificate",
    "reps/closed-forms",
    "reps/ladder-identity",
    "reps/phase-twist",
    "reps/relation-ef-fe",
    "reps/relation-qe",
    "reps/relation-qf",
    "reps/rescaling",
    "words/antipode-antihomomorphism",
}


@pytest.fixture(scope="module")
def report_t50():
    with np.errstate(all="ignore"):
        return run_suite(RunConfig(t=50), "all")


def test_failed_ids_at_large_t_are_pinned(report_t50):
    assert {c.id for c in report_t50.failures} == FAILED_AT_T50
    assert {c.id for c in report_t50.checks if math.isnan(c.residual)} == NAN_AT_T50


def test_non_finite_residuals_are_named_failures_at_large_t(report_t50):
    report = report_t50
    checks = {c.id: c for c in report.checks}
    assert len(checks) == 90
    for check_id in NAN_AT_T50:
        assert math.isnan(checks[check_id].residual), check_id
        assert not checks[check_id].passed, check_id
    non_finite = {c.id for c in report.checks if not math.isfinite(c.residual)}
    assert non_finite == NAN_AT_T50
    assert len(report.failures) == 29

    doc = json.loads(dump_json(report_doc(report)))
    assert doc["schema"] == 2
    assert doc["summary"] == {"total": 90, "passed": 61, "failed": 29}
    residuals = {c["id"]: c["residual"] for c in doc["checks"]}
    assert {i for i, r in residuals.items() if isinstance(r, str)} == NAN_AT_T50
    assert all(residuals[i] == "nan" for i in NAN_AT_T50)

    rows = {line.split(",")[0]: line for line in report_csv(report).splitlines()[1:]}
    assert all(rows[i].endswith(",nan,1.0000000000000001e-09,false") for i in NAN_AT_T50)


def test_cached_arrays_are_read_only():
    """An in-place edit of an array a cache hands out raises instead of
    corrupting every later result in the process."""
    with pytest.raises(ValueError):
        build_rep(Params(), 2, 1).e[0, 1] += 1.0
    rep = build_rep(Params(), 3, -1)
    dec = decompose(Params(), 3, 2)
    flip = conjugate_unitary(3)
    arrays = [rep.r, rep.q, rep.q_inv, rep.e, rep.f, flip.perm, flip.signs, dec.basis]
    arrays += [dec.blocks, dec.rows, dec.coefficients, dec.weight_of, dec.singular_values]
    arrays += [piece.v for piece in dec.pieces]
    trep = tensor_rep(rep, build_rep(Params(), 2, 1))
    assert tensor_rep(rep, build_rep(Params(), 2, 1)) is trep
    arrays += [trep.q, trep.q_inv, trep.e, trep.f, trep.two_weights]
    arrays += [_leg_matrix(rep, ()), _leg_matrix(rep, (Gen.Q, Gen.E, Gen.F))]
    assert not any(a.flags.writeable for a in arrays)
    report = run_suite(RunConfig(), "dqg")
    assert not [c.id for c in report.checks if not c.passed]


def test_csv_cells_render_scalars_like_json():
    doc = {
        "flag": True,
        "none": None,
        "ints": [3, np.int64(-2)],
        "floats": [0.1, np.float32(0.5), np.float64(1e-300)],
        "z": 1 + 2j,
        "s": 'a "b"',
    }
    rows = doc_csv(doc).splitlines()[1:]
    assert rows == [
        "flag,true",
        "none,null",
        "ints[0],3",
        "ints[1],-2",
        "floats[0]," + dump_json(0.1),
        "floats[1],0.5",
        "floats[2]," + dump_json(1e-300),
        "z.re,1",
        "z.im,2",
        's,"a ""b"""',
    ]
    # an array cannot end up in one cell
    with pytest.raises(TypeError):
        doc_csv({"m": np.zeros(2)})

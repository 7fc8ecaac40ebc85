"""The check batteries: the declared table, ids per suite, results and tolerances."""

import dataclasses
import functools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from suq2 import verify
from suq2.clebsch import Decomposition, decompose, decomposition_residuals
from suq2.discrete import (
    conjugate_unitary,
    coproduct_blocks,
    coproduct_component,
    embed,
    scaling_block,
    unitary_antipode,
    unitary_antipode_block,
)
from suq2.dual import unitarity_residuals, woronowicz_residuals
from suq2.params import Params
from suq2.reps import build_rep, relation_residuals
from suq2.util import max_abs
from suq2.verify import (
    CHECKS,
    FIXED,
    OWN_ELEMENT_ROWS,
    ROWS,
    SUITE_BATTERIES,
    SUITES,
    WORD_BATTERY,
    RunConfig,
    _battery,
    _Draws,
    _leg_matrix,
    _matrix_units,
    _max_abs_each,
    _random_alg_element,
    _stacked,
    clebsch_battery,
    doc_csv,
    dump_json,
    hopf_battery,
    report_csv,
    report_doc,
    run_suite,
)
from suq2.words import Gen

ROOT = Path(__file__).resolve().parents[1]

# the ids the benchmark pins, independent of the table
PINNED_IDS = sorted(json.loads((ROOT / "bench" / "check_ids.json").read_text()))

EXPECTED_IDS = {
    suite: sorted(row.id for row in CHECKS if suite == "all" or row.battery in SUITE_BATTERIES[suite])
    for suite in SUITES
}

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


def test_the_table_declares_each_pinned_check_once():
    assert len(CHECKS) == len(ROWS) == 90
    assert len({row.law for row in CHECKS}) == 90
    assert {row.battery for row in CHECKS} == {b for batteries in SUITE_BATTERIES.values() for b in batteries}


@pytest.mark.parametrize("suite, count", [("hopf", 10), ("dqg", 57), ("dual", 23)])
def test_check_ids_per_suite(reports, suite, count):
    assert len(EXPECTED_IDS[suite]) == count
    assert [c.id for c in reports[suite].checks] == EXPECTED_IDS[suite]
    assert [c.law for c in reports[suite].checks] == [ROWS[i].law for i in EXPECTED_IDS[suite]]


def test_all_suite_is_the_union(reports):
    union = sorted(EXPECTED_IDS["hopf"] + EXPECTED_IDS["dqg"] + EXPECTED_IDS["dual"])
    assert union == EXPECTED_IDS["all"] == PINNED_IDS
    assert [c.id for c in reports["all"].checks] == union


def test_laws_keyed_in_other_modules_are_the_table_laws():
    """The residual dicts of reps and dual key by law, and
    decomposition_residuals by the cg id's name; the table must agree."""
    params = Params()
    rep = build_rep(params, 2, +1)
    keyed = {
        "reps/relation-": relation_residuals(params, rep.q, rep.q_inv, rep.e, rep.f),
        "dual/unitarity-": unitarity_residuals(params),
        "dual/relation-": woronowicz_residuals(params),
    }
    for prefix, residuals in keyed.items():
        assert set(residuals) == {row.law for row in CHECKS if row.id.startswith(prefix)}, prefix
    assert {f"cg/{key}" for key in decomposition_residuals(params, 1, 1)} <= set(ROWS)


def _stub(ids):
    """A formal battery that yields a zero residual for each of ids."""

    @_battery("formal")
    def formal_battery(params):
        for check_id in ids:
            yield check_id, 0.0

    return formal_battery


def test_a_battery_refuses_an_unknown_a_repeated_or_a_missing_id():
    ids = [row.id for row in CHECKS if row.battery == "formal"]
    checks = _stub(ids)(Params())
    assert [(c.id, c.law, c.passed) for c in checks] == [(i, ROWS[i].law, True) for i in ids]
    with pytest.raises(ValueError, match="'words/no-such-law' is not one of its rows"):
        _stub(ids + ["words/no-such-law"])(Params())
    with pytest.raises(ValueError, match="'dual/unit' is not one of its rows"):
        _stub(ids + ["dual/unit"])(Params())
    with pytest.raises(ValueError, match=f"'{ids[0]}' yielded twice"):
        _stub(ids + ids[:1])(Params())
    with pytest.raises(ValueError, match=re.escape(f"no check yielded for rows {[ids[-1]]}")):
        _stub(ids[:-1])(Params())


def test_readme_lists_each_check_under_its_cap():
    section = (ROOT / "README.md").read_text().split("| cap | checks |\n| --- | --- |\n")[1].split("\n\n")[0]
    listed = {}
    for line in section.splitlines():
        cap, cell = (part.strip() for part in line.strip("|").split("|"))
        listed.update((check_id, cap) for check_id in re.findall(r"`([^`]+)`", cell))
    assert listed == {row.id: {None: "none", FIXED: "fixed spins"}.get(row.cap, str(row.cap)) for row in CHECKS}


@pytest.mark.parametrize(
    "field, value",
    [("nmax2", -1), ("nmax2", 2.5), ("nmax2", True), ("nmax2", "4"), ("seed", -1), ("seed", 1.0), ("seed", False)],
)
def test_run_config_refuses_a_count_that_is_not_a_non_negative_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got {re.escape(repr(value))}$"):
        RunConfig(**{field: value})


def test_run_config_takes_numpy_integers():
    report = run_suite(RunConfig(nmax2=np.int64(2), seed=np.uint8(3)), "dual")
    assert dump_json(report_doc(report)) == dump_json(report_doc(run_suite(RunConfig(nmax2=2, seed=3), "dual")))
    # the dual suite's offset seed is taken in Python integers, so it does not wrap
    report = run_suite(RunConfig(nmax2=np.int64(2), seed=np.uint8(255)), "dual")
    assert dump_json(report_doc(report)) == dump_json(report_doc(run_suite(RunConfig(nmax2=2, seed=255), "dual")))


@pytest.mark.parametrize(
    "code",
    [
        "from suq2.cli import main\nmain(['verify', '--suite', 'all', '--out', os.devnull])",
        "from suq2.verify import RunConfig, run_suite\nrun_suite(RunConfig(), 'all')",
    ],
    ids=["cli", "run_suite"],
)
def test_a_run_never_loads_numpy_random(code):
    """The batteries draw from Python's `random`, so a fresh interpreter
    that runs every suite never imports numpy's random module."""
    probe = f"import os, sys\n{code}\nprint('numpy.random' in sys.modules, 'numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_draws_pin_their_first_values():
    # the uniforms are Python's Mersenne Twister stream for the seed, exactly
    assert _Draws(0).uniform(0.0, 1.0, 3).tolist() == [0.8444218515250481, 0.7579544029403025, 0.420571580830845]
    assert _Draws(0).uniform(-2.0, 2.0, 1).tolist() == [-2.0 + 4.0 * 0.8444218515250481]
    # the normals go through libm's log1p, cos and sin
    np.testing.assert_allclose(
        _Draws(0).standard_normal(4),
        [0.09637157846515239, -1.9266361205465297, -0.05850007947614822, 1.0430743174790902],
        rtol=1e-14,
    )


def test_draws_continue_one_stream_across_calls():
    draws, whole = _Draws(7), _Draws(7)
    parts = [draws.uniform(0.0, 1.0, 2), draws.uniform(0.0, 1.0, 3)]
    assert np.array_equal(np.concatenate(parts), whole.uniform(0.0, 1.0, 5))
    parts = [draws.standard_normal(4), draws.standard_normal(2)]
    assert np.array_equal(np.concatenate(parts), whole.standard_normal(6))
    assert not np.array_equal(draws.standard_normal(4), _Draws(7).standard_normal(4))


def test_draws_are_standard_normal_in_the_mean_and_variance():
    values = _Draws(11).standard_normal(20_000)
    assert np.all(np.isfinite(values))
    assert abs(values.mean()) <= 0.03
    assert abs(values.var() - 1.0) <= 0.05


def test_draws_take_an_int_or_a_tuple_shape():
    assert _Draws(1).standard_normal(5).shape == (5,)
    assert _Draws(1).standard_normal((3, 3)).shape == (3, 3)
    assert _Draws(1).standard_normal((2, 3)).ravel().tolist() == _Draws(1).standard_normal(6).tolist()
    assert _Draws(1).uniform(0.0, 2.0 * np.pi, 3).shape == (3,)


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


def test_run_suite_runs_each_battery_looked_up_by_name(monkeypatch):
    """run_suite calls the battery a module attribute holds when it runs, so
    a wrapped one (the benchmark's tracer wraps them) is the one that runs,
    in the order of SUITE_BATTERIES and with the same report.  Each gets
    exactly (params, nmax2, rng), positionally, and the batteries of one
    suite share one `_Draws` stream."""
    config = RunConfig(seed=7, nmax2=3)
    expected = dump_json(report_doc(run_suite(config, "all")))
    calls = []

    def wrapped(name, plain):
        @functools.wraps(plain)
        def battery(*args, **kwargs):
            calls.append((name, args, kwargs))
            return plain(*args, **kwargs)

        return battery

    for name in (b for batteries in SUITE_BATTERIES.values() for b in batteries):
        monkeypatch.setattr(verify, f"{name}_battery", wrapped(name, getattr(verify, f"{name}_battery")))
    assert dump_json(report_doc(run_suite(config, "all"))) == expected
    assert [name for name, *_ in calls] == [b for batteries in SUITE_BATTERIES.values() for b in batteries]
    streams = {}
    for name, args, kwargs in calls:
        params, nmax2, rng = args
        assert params == config.params() and nmax2 == 3 and isinstance(rng, verify._Draws) and not kwargs, name
        suite = next(suite for suite, batteries in SUITE_BATTERIES.items() if name in batteries)
        assert streams.setdefault(suite, rng) is rng, name
    assert len({id(rng) for rng in streams.values()}) == len(SUITE_BATTERIES)


def test_hopf_battery_reads_no_dense_isometry():
    params = Params(t=0.3)
    decompose.cache_clear()
    try:
        hopf_battery(params, 4, np.random.default_rng(0))
        for two_n in range(9):
            for two_m in range(9):
                assert "pieces" not in vars(decompose(params, two_n, two_m)), (two_n, two_m)
    finally:
        decompose.cache_clear()


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
def test_stacked_hopf_laws_yield_the_per_element_values(t):
    """The counit, multiplicative and star laws take D of their stacked
    elements once per block pair; each value they yield, block pair major,
    is the per-element coproduct_component residual exactly."""
    params = Params(t=t)
    window = range(5)
    pairs = [(two_n, two_m) for two_n in window for two_m in window]
    d = lambda a, pair: coproduct_component(params, a, *pair)
    with np.errstate(all="ignore"):
        got = {check_id: value for check_id, value, *_ in hopf_battery.__wrapped__(params, 4, np.random.default_rng(0))}
        # the battery's elements: its words, the matrix units to spin 1, and
        # the two random elements it draws first
        rng = np.random.default_rng(0)
        words = {name: embed(params, x, window) for name, x in WORD_BATTERY.items()}
        units = [a for _, a in _matrix_units(range(3))]
        randoms = [_random_alg_element(rng, window) for _ in range(2)]
        counit = [
            max_abs(d(a, pair) - a.block(two_m))
            for two_m in window
            for pair in ((0, two_m), (two_m, 0))
            for a in [*words.values(), *units, *randoms]
        ]
        hom = [(words["q"], words["e"]), (words["e"], words["f"]), tuple(randoms), (units[1], units[2])]
        multiplicative = [max_abs(d(a * b, p) - d(a, p) @ d(b, p)) for p in pairs for a, b in hom]
        star = [max_abs(d(a.star(), p) - d(a, p).conj().T) for p in pairs for a in [*randoms, words["qef"]]]
    np.testing.assert_array_equal(got["dqg/counit-laws"], counit)
    np.testing.assert_array_equal(got["dqg/coproduct-multiplicative"], multiplicative)
    np.testing.assert_array_equal(got["dqg/coproduct-star"], star)


def test_hopf_and_clebsch_batteries_take_d_on_stacks(monkeypatch):
    """Neither battery takes D one element at a time: no coproduct_component
    call, and cg/block-reconstruction takes D of its word stack once per
    pair of its window."""
    calls = dict.fromkeys(("coproduct_component", "coproduct_blocks"), 0)

    def counted(name, plain):
        def call(*args):
            calls[name] += 1
            return plain(*args)

        return call

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    hopf_battery(Params(), 4, np.random.default_rng(0))
    assert calls["coproduct_component"] == 0 and calls["coproduct_blocks"] > 0
    calls["coproduct_blocks"] = 0
    clebsch_battery(Params(), 4, np.random.default_rng(0))
    assert calls == {"coproduct_component": 0, "coproduct_blocks": 25}


def test_dual_battery_maps_each_u_entry_once(monkeypatch):
    """S, S^2, * and sigma of the four u-entries are tables every row reads:
    at the default config the battery makes 25 antipode calls (8 for the
    tables, one on the unit, 16 on the quadratics), 10 star and 14 modular
    calls."""
    calls = dict.fromkeys(("dual_antipode", "dual_star", "dual_modular"), 0)

    def counted(name, plain):
        def call(*args):
            calls[name] += 1
            return plain(*args)

        return call

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    verify.dual_battery(Params(), RunConfig().nmax2, np.random.default_rng(1))
    assert calls == {"dual_antipode": 25, "dual_star": 10, "dual_modular": 14}


def test_a_classifier_refusal_at_tiny_t_is_a_failed_check():
    """At t = 1e-10 the highest-weight classifier refuses some reps; each
    refusal counts as a miss, so the run still gives every check."""
    report = run_suite(RunConfig(t=1e-10), "all")
    assert len(report.checks) == len(CHECKS) == 90
    assert "reps/classification-conjugated" in [c.id for c in report.failures]


def reference_flip_residuals(params, elements, two_n, two_m):
    """flip (R (x) R) D(a)_(n,m) against D(R(a))_(m,n) with R (x) R written
    out on the product basis: the Kronecker product of the legs' signs, an
    index reversal and a transpose, then the leg swap of the four-index
    form; R(a) taken one element at a time."""
    stack = coproduct_blocks(params, _stacked(elements), two_n, two_m)
    signs = np.kron(conjugate_unitary(two_n), conjugate_unitary(two_m))
    dims = (two_n + 1, two_m + 1)
    r_tensor = np.outer(signs, signs) * stack[:, ::-1, ::-1].transpose(0, 2, 1)
    flipped = r_tensor.reshape((-1,) + dims + dims).transpose(0, 2, 1, 4, 3).reshape(stack.shape)
    flip_blocks = _stacked([unitary_antipode(a) for a in elements])
    return _max_abs_each(coproduct_blocks(params, flip_blocks, two_m, two_n) - flipped)


@pytest.mark.parametrize("t", (0.3, 2.0, 50.0))
def test_flip_residuals_apply_r_on_each_leg_like_the_written_out_form(t):
    params = Params(t=t)
    rng = np.random.default_rng(31)
    elements = [_random_alg_element(rng, range(5)) for _ in range(3)] + [embed(params, WORD_BATTERY["ef"], range(5))]
    pairs = [(two_n, two_m) for two_n in range(5) for two_m in range(5)]
    reference = np.stack([reference_flip_residuals(params, elements, *pair) for pair in pairs], axis=1)
    kernel = verify.symmetry_residuals(params, elements, [unitary_antipode_block], pairs, reverse=True)
    assert np.array_equal(kernel[:, 0], reference)


@pytest.mark.parametrize("t", (0.3, 2.0))
def test_symmetry_residuals_fail_on_a_wrong_leg_order_or_leg_map(t):
    """The kernel separates the laws it states: R holds with the legs
    swapped and fails without; tau_s holds on each leg, and a map that takes
    tau_s on the battery's stack but tau_(-s) on the legs of D(a) fails."""
    params = Params(t=t)
    rng = np.random.default_rng(0)
    elements = [_random_alg_element(rng, range(4)) for _ in range(2)]
    pairs = [(two_n, two_m) for two_n in range(4) for two_m in range(4)]
    r = [unitary_antipode_block]
    assert verify.symmetry_residuals(params, elements, r, pairs, reverse=True).max() <= 1e-9
    assert verify.symmetry_residuals(params, elements, r, pairs).max() > 0.5
    tau = functools.partial(scaling_block, params, s=0.7)
    # the battery's stack is (items, k + 1, k + 1); D(a)'s legs come with more axes
    mixed = lambda two_k, mat: scaling_block(params, two_k, mat, 0.7 if mat.ndim == 3 else -0.7)
    assert verify.symmetry_residuals(params, elements, [tau], pairs).max() <= 1e-9
    assert verify.symmetry_residuals(params, elements, [mixed], pairs).max() > 0.5


def test_antipode_law_applies_s_once_per_block(monkeypatch):
    """S acts on the whole stack of a block's matrix units in one call."""
    spins = []
    plain = verify.antipode_block

    def spy(params, two_n, mat):
        spins.append(two_n)
        return plain(params, two_n, mat)

    monkeypatch.setattr(verify, "antipode_block", spy)
    rng = np.random.default_rng(0)
    battery = [_random_alg_element(rng, range(3)) for _ in range(2)]
    verify.antipode_law_residuals(Params(), battery, range(3))
    assert spins == [0, 1, 2]


@pytest.mark.parametrize(
    "kernel, window, shape",
    [
        ("symmetry_residuals", [(1, 2), (2, 0)], (0, 2, 2)),
        ("antipode_law_residuals", [0, 1, 2], (0, 3)),
        ("coassociativity_residuals", range(2), (0, 2, 2, 2)),
        ("invariance_residuals", [1, 2], (0, 2, 2)),
    ],
)
def test_stacked_kernels_take_an_empty_battery(kernel, window, shape):
    """No element: every kernel returns an empty array of its documented
    shape; symmetry_residuals takes R and tau_0.7 as its two maps."""
    maps = [unitary_antipode_block, functools.partial(scaling_block, Params(), s=0.7)]
    args = (maps,) if kernel == "symmetry_residuals" else ()
    np.testing.assert_array_equal(getattr(verify, kernel)(Params(), [], *args, window), np.zeros(shape), strict=True)


def test_hopf_elements_cover_the_widest_row_that_reads_them(monkeypatch):
    """The shared elements of the hopf battery (the random ones are watched;
    the words are embedded on the same window) span the widest window of
    the hopf rows outside OWN_ELEMENT_ROWS, computed here from the table;
    raising the cap of one such row widens them."""
    hopf_ids = {row.id for row in CHECKS if row.battery == "hopf"}
    assert set(OWN_ELEMENT_ROWS) < hopf_ids
    drawn = []
    plain = verify._random_alg_element
    spy = lambda rng, two_ns: drawn.append(list(two_ns)) or plain(rng, two_ns)
    monkeypatch.setattr(verify, "_random_alg_element", spy)
    for raised in (None, "dqg/scaling-coproduct"):
        if raised:
            monkeypatch.setitem(verify.ROWS, raised, dataclasses.replace(ROWS[raised], cap=6))
        cap = max(verify.ROWS[check_id].cap for check_id in hopf_ids - set(OWN_ELEMENT_ROWS))
        assert cap == (6 if raised else 4)
        drawn.clear()
        hopf_battery(Params(), 8, np.random.default_rng(0))
        assert drawn == [list(range(cap + 1))] * 2


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


@pytest.mark.parametrize("nmax2", [4, 8])
def test_no_check_reads_the_complex_pieces(monkeypatch, nmax2):
    """Every check reads the dense V_k as real columns of ``basis``; the
    complex ``pieces`` are for the public API only."""

    def refuse(dec):
        raise AssertionError(f"Decomposition.pieces read for {(dec.two_n, dec.two_m)}")

    monkeypatch.setattr(Decomposition, "pieces", property(refuse))
    report = run_suite(RunConfig(nmax2=nmax2), "all")
    assert len(report.checks) == len(CHECKS)


def test_cached_arrays_are_read_only():
    """An in-place edit of an array a cache hands out raises instead of
    corrupting every later result in the process."""
    with pytest.raises(ValueError):
        build_rep(Params(), 2, 1).e[0, 1] += 1.0
    rep = build_rep(Params(), 3, -1)
    dec = decompose(Params(), 3, 2)
    arrays = [rep.r, rep.q, rep.q_inv, rep.e, rep.f, conjugate_unitary(3), dec.basis]
    arrays += [dec.blocks, dec.rows, dec.coefficients, dec.weight_of, dec.singular_values]
    arrays += [piece.v for piece in dec.pieces]
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

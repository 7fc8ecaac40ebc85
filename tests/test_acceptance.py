"""Acceptance gate: ten criteria, each printed as one pass/fail line.

Every criterion runs at three deformation values and asserts pinned
tolerances and, where stated, a per-deformation time budget.  Each
criterion's residuals are folded with `util.worst`, so a NaN fails it.
"""

import functools
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from suq2.clebsch import decomposition_residuals, index_set, tensor_rep
from suq2.discrete import (
    AlgElement,
    cointegral,
    cointegral_coproduct,
    coproduct_component,
    embed,
    invariant_vector,
    matrix_unit,
    modular_element_block,
    quantum_dimension,
    scaling_block,
    unitary_antipode_block,
)
from suq2.dual import (
    U_LABELS,
    dual_antipode,
    dual_antipode_inv,
    dual_haar,
    dual_modular,
    dual_modular_inv,
    dual_mul,
    dual_star,
    dual_unit,
    pair,
    span_check,
    u_entry,
    unitarity_residuals,
    woronowicz_residuals,
)
from suq2.params import Params
from suq2.reps import (
    build_rep,
    casimir_matrix,
    casimir_scalar,
    classify_by_highest_weight,
    evaluate_in,
    ladder_poly_matrix,
    relation_residuals,
)
from suq2.util import max_abs, weights, worst
from suq2.verify import (
    RunConfig,
    antipode_law_residuals,
    coassociativity_residuals,
    dual_antipode_expected,
    dual_coproduct_residual,
    dual_haar_quadratic_expected,
    dump_json,
    report_doc,
    run_suite,
    symmetry_residuals,
    worked_half_half_residual,
    WORD_BATTERY,
)

from test_kernels import contract_first, contract_second, dense_integral_weights

T_VALUES = (0.3, 0.1, 0.5)


def _record(report, index, name, passed, detail):
    line = f"acceptance {index:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    report.append(line)
    print(line, flush=True)


def _random_element(rng, two_ns):
    return AlgElement(
        {
            two_n: rng.standard_normal((two_n + 1, two_n + 1))
            + 1j * rng.standard_normal((two_n + 1, two_n + 1))
            for two_n in two_ns
        }
    )


def _block_reconstruction(params, two_n, two_m, x):
    """| sum_k V_k pi_k(x) V_k* - D(x) |: the shipped coproduct of x, embedded
    over the summands, against the tensor product generators."""
    trep = tensor_rep(build_rep(params, two_n, +1), build_rep(params, two_m, +1))
    assembled = coproduct_component(params, embed(params, x, index_set(two_n, two_m)), two_n, two_m)
    return max_abs(assembled - evaluate_in(trep.gen_matrices, x, trep.dim))


def _counit_law(params, a, two_m):
    """D(a)_(0,m) and D(a)_(m,0) against the block a_m."""
    return worst(max_abs(coproduct_component(params, a, *pair) - a.block(two_m)) for pair in ((0, two_m), (two_m, 0)))


def test_acceptance_01_representations(acceptance_report):
    tol = 1e-10
    budget = 1.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        start = perf_counter()
        values = []
        adjoint_exact = True
        for two_n in range(0, 9):
            for sign in (+1, -1):
                rep = build_rep(params, two_n, sign)
                values.extend(relation_residuals(params, rep.q, rep.q_inv, rep.e, rep.f).values())
                adjoint_exact = adjoint_exact and np.array_equal(rep.e.conj().T, rep.f)
                expected = casimir_scalar(params, two_n)
                cas = casimir_matrix(params, rep)
                values.append(max_abs(cas - expected * np.eye(rep.dim)) / abs(expected))
            rep = build_rep(params, two_n)
            if rep.r.size:
                values.append(float(np.max(np.abs(rep.r - rep.r[::-1]))))
        elapsed = perf_counter() - start
        results[t] = (worst(values), adjoint_exact, elapsed)
    passed = all(w <= tol and adj and el < budget for w, adj, el in results.values())
    detail = "; ".join(f"t={t}: {w:.2e} in {el:.2f}s" for t, (w, adj, el) in results.items())
    _record(acceptance_report, 1, "representations", passed, detail)
    for t, (residual, adjoint_exact, elapsed) in results.items():
        assert residual <= tol, f"t={t}: residual {residual}"
        assert adjoint_exact, f"t={t}: e* != f exactly"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_02_ladder_identity(acceptance_report):
    tol = 1e-9
    budget = 1.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        start = perf_counter()
        values = []
        for two_n in range(0, 7):
            rep = build_rep(params, two_n)
            f_pow = np.eye(rep.dim, dtype=complex)
            for k in range(1, two_n + 3):
                f_prev = f_pow
                f_pow = f_pow @ rep.f
                lhs = rep.e @ f_pow - f_pow @ rep.e
                rhs = f_prev @ ladder_poly_matrix(params, rep, k)
                values.append(max_abs(lhs - rhs))
        elapsed = perf_counter() - start
        results[t] = (worst(values), elapsed)
    passed = all(w <= tol and el < budget for w, el in results.values())
    detail = "; ".join(f"t={t}: {w:.2e} in {el:.2f}s" for t, (w, el) in results.items())
    _record(acceptance_report, 2, "ladder identity", passed, detail)
    for t, (residual, elapsed) in results.items():
        assert residual <= tol, f"t={t}: residual {residual}"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_03_clebsch_gordan(acceptance_report):
    tol = 1e-9
    worked_tol = 1e-12
    budget = 5.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        start = perf_counter()
        structure_ok = True
        values = []
        for two_n in range(0, 7):
            for two_m in range(0, 7):
                ks = index_set(two_n, two_m)
                structure_ok = structure_ok and ks[0] == abs(two_n - two_m)
                structure_ok = structure_ok and ks[-1] == two_n + two_m
                structure_ok = structure_ok and sum(k + 1 for k in ks) == (two_n + 1) * (two_m + 1)
                res = decomposition_residuals(params, two_n, two_m)
                values.extend(res.values())
                values.extend(_block_reconstruction(params, two_n, two_m, x) for x in WORD_BATTERY.values())
        worked = worked_half_half_residual(params)
        elapsed = perf_counter() - start
        results[t] = (structure_ok, worst(values), worked, elapsed)
    passed = all(
        ok and w <= tol and wk <= worked_tol and el < budget
        for ok, w, wk, el in results.values()
    )
    detail = "; ".join(
        f"t={t}: {w:.2e}/worked {wk:.1e} in {el:.2f}s" for t, (ok, w, wk, el) in results.items()
    )
    _record(acceptance_report, 3, "tensor decompositions", passed, detail)
    for t, (structure_ok, residual, worked, elapsed) in results.items():
        assert structure_ok, f"t={t}: index set or dimension identity broken"
        assert residual <= tol, f"t={t}: residual {residual}"
        assert worked <= worked_tol, f"t={t}: worked example residual {worked}"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_04_hopf_structure(acceptance_report):
    tol = 1e-9
    budget = 10.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        rng = np.random.default_rng(404)
        start = perf_counter()
        window = [0, 1, 2, 3, 4]
        battery = [
            embed(params, WORD_BATTERY["e"], window),
            embed(params, WORD_BATTERY["ef"], window),
            matrix_unit(1, 1, -1),
            _random_element(rng, window),
        ]
        values = [_counit_law(params, a, two_m) for a in battery for two_m in window]
        values.extend(antipode_law_residuals(params, battery, window).ravel())
        values.extend(coassociativity_residuals(params, battery, window).ravel())
        b = battery[3]
        c = _random_element(rng, window)
        for two_n in window[:3]:
            for two_m in window[:3]:
                prod = coproduct_component(params, b, two_n, two_m) @ coproduct_component(
                    params, c, two_n, two_m
                )
                values.append(max_abs(coproduct_component(params, b * c, two_n, two_m) - prod))
                star = coproduct_component(params, b.star(), two_n, two_m)
                values.append(max_abs(star - coproduct_component(params, b, two_n, two_m).conj().T))
        pairs = [(two_n, two_m) for two_n in window[:3] for two_m in window[:3]]
        values.extend(symmetry_residuals(params, [b], [unitary_antipode_block], pairs, reverse=True).ravel())
        values.extend(symmetry_residuals(params, [b], [functools.partial(scaling_block, params, s=0.7)], pairs).ravel())
        elapsed = perf_counter() - start
        results[t] = (worst(values), elapsed)
    passed = all(w <= tol and el < budget for w, el in results.values())
    detail = "; ".join(f"t={t}: {w:.2e} in {el:.2f}s" for t, (w, el) in results.items())
    _record(acceptance_report, 4, "Hopf structure", passed, detail)
    for t, (residual, elapsed) in results.items():
        assert residual <= tol, f"t={t}: residual {residual}"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_05_cointegral_and_integrals(acceptance_report):
    tol = 1e-10
    budget = 2.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        start = perf_counter()
        values = []
        h = cointegral()
        for two_n in range(0, 7):
            dim = two_n + 1
            closed = cointegral_coproduct(params, two_n)
            values.append(max_abs(closed - coproduct_component(params, h, two_n, two_n)))
            values.append(max_abs(closed @ closed - closed))
            values.append(max_abs(closed - closed.conj().T))
            sing = np.linalg.svd(closed, compute_uv=False)
            values.append(abs(float(sing[0]) - 1.0))
            if sing.size > 1:
                values.append(float(sing[1]))
            vec = invariant_vector(params, two_n)
            values.append(max_abs(closed - np.outer(vec, vec.conj())))
            eye = np.eye(dim, dtype=complex)
            w_left = dense_integral_weights(params, two_n, "left")
            w_right = dense_integral_weights(params, two_n, "right")
            values.append(max_abs(contract_second(closed, dim, dim, w_left) - eye))
            values.append(max_abs(contract_first(closed, dim, dim, w_right) - eye))
            values.append(max_abs(contract_first(closed, dim, dim, w_left) - modular_element_block(params, two_n)))
            values.append(
                max_abs(
                    contract_first(closed, dim, dim, eye)
                    - np.diag(np.exp(params.t * weights(two_n)))
                    / quantum_dimension(params, two_n)
                )
            )
        elapsed = perf_counter() - start
        results[t] = (worst(values), elapsed)
    passed = all(w <= tol and el < budget for w, el in results.values())
    detail = "; ".join(f"t={t}: {w:.2e} in {el:.2f}s" for t, (w, el) in results.items())
    _record(acceptance_report, 5, "cointegral and integrals", passed, detail)
    for t, (residual, elapsed) in results.items():
        assert residual <= tol, f"t={t}: residual {residual}"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_06_modular_certificates(acceptance_report):
    tol = 1e-11
    results = {}
    from suq2.discrete import left_integral, modular_automorphism, right_integral

    for t in T_VALUES:
        params = Params(t=t)
        values = []
        for two_n in range(0, 5):
            units = [
                matrix_unit(two_n, two_r, two_s)
                for two_r in weights(two_n)
                for two_s in weights(two_n)
            ]
            for a in units:
                sig_left = modular_automorphism(params, a, "left")
                sig_right = modular_automorphism(params, a, "right")
                for b in units:
                    values.append(abs(left_integral(params, a * b) - left_integral(params, b * sig_left)))
                    values.append(abs(right_integral(params, a * b) - right_integral(params, b * sig_right)))
        results[t] = worst(values)
    passed = all(w <= tol for w in results.values())
    detail = "; ".join(f"t={t}: {w:.2e}" for t, w in results.items())
    _record(acceptance_report, 6, "modular certificates", passed, detail)
    for t, residual in results.items():
        assert residual <= tol, f"t={t}: residual {residual}"


def test_acceptance_07_dual_group(acceptance_report):
    coproduct_tol = 1e-11
    antipode_tol = 1e-11
    haar_tol = 1e-11
    relation_tol = 1e-9
    invariance_tol = 1e-9
    modular_tol = 1e-10
    budget = 10.0
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        start = perf_counter()
        one = dual_unit()

        w_coproduct = dual_coproduct_residual(params)

        values = []
        for i in U_LABELS:
            for j in U_LABELS:
                factor, (ti, tj) = dual_antipode_expected(params, i, j)
                values.append((dual_antipode(params, u_entry(i, j)) - factor * u_entry(ti, tj)).norm())
                values.append((dual_star(params, u_entry(i, j)) - dual_antipode(params, u_entry(j, i))).norm())
        w_antipode = worst(values)

        w_relations = worst([*unitarity_residuals(params).values(), *woronowicz_residuals(params).values()])

        values = [abs(dual_haar(one) - 1.0)]
        quadratics = {}
        for k in U_LABELS:
            for l in U_LABELS:
                for i in U_LABELS:
                    for j in U_LABELS:
                        prod = dual_mul(params, u_entry(k, l), u_entry(i, j))
                        quadratics[(k, l, i, j)] = prod
                        expected = dual_haar_quadratic_expected(params, k, l, i, j)
                        values.append(abs(dual_haar(prod) - expected))
        w_haar = worst(values)

        values = []
        for i in U_LABELS:
            for j in U_LABELS:
                for k in U_LABELS:
                    for l in U_LABELS:
                        target = dual_haar(quadratics[(i, j, k, l)]) * one
                        acc = None
                        for r in U_LABELS:
                            for s in U_LABELS:
                                w = dual_haar(quadratics[(r, j, s, l)])
                                if w != 0:
                                    term = w * dual_mul(params, u_entry(i, r), u_entry(k, s))
                                    acc = term if acc is None else acc + term
                        values.append((acc - target).norm() if acc is not None else target.norm())
        w_invariance = worst(values)

        values = []
        for i in U_LABELS:
            for j in U_LABELS:
                u = u_entry(i, j)
                values.append((dual_modular(params, u) - params.lam_pow(2 * (i + j)) * u).norm())
                values.append((dual_modular_inv(params, dual_modular(params, u)) - u).norm())
                twice = dual_antipode(params, dual_antipode(params, u))
                values.append((twice - params.lam_pow(2 * (i - j)) * u).norm())
        w_modular = worst(values)

        elapsed = perf_counter() - start
        ok = (
            w_coproduct <= coproduct_tol
            and w_antipode <= antipode_tol
            and w_relations <= relation_tol
            and w_haar <= haar_tol
            and w_invariance <= invariance_tol
            and w_modular <= modular_tol
            and elapsed < budget
        )
        results[t] = (ok, w_coproduct, w_antipode, w_relations, w_haar, w_invariance, w_modular, elapsed)
    passed = all(entry[0] for entry in results.values())
    detail = "; ".join(
        f"t={t}: max {worst(entry[1:7]):.2e} in {entry[7]:.2f}s" for t, entry in results.items()
    )
    _record(acceptance_report, 7, "dual group", passed, detail)
    for t, entry in results.items():
        ok, w_cp, w_s, w_rel, w_h, w_inv, w_mod, elapsed = entry
        assert w_cp <= coproduct_tol, f"t={t}: coproduct {w_cp}"
        assert w_s <= antipode_tol, f"t={t}: antipode/star {w_s}"
        assert w_rel <= relation_tol, f"t={t}: relations {w_rel}"
        assert w_h <= haar_tol, f"t={t}: haar {w_h}"
        assert w_inv <= invariance_tol, f"t={t}: invariance {w_inv}"
        assert w_mod <= modular_tol, f"t={t}: modular {w_mod}"
        assert elapsed < budget, f"t={t}: took {elapsed:.2f}s"


def test_acceptance_08_span_ranks(acceptance_report):
    gap_floor = 1e-6
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        report = span_check(params, 2)
        ranks = {two_k: entry["rank"] for two_k, entry in report.items()}
        gaps = {two_k: entry["gap"] for two_k, entry in report.items()}
        ok = ranks == {0: 1, 1: 4, 2: 9} and all(g >= gap_floor for g in gaps.values())
        results[t] = (ok, ranks, min(gaps.values()))
    passed = all(entry[0] for entry in results.values())
    detail = "; ".join(f"t={t}: ranks {list(entry[1].values())}, gap {entry[2]:.1e}" for t, entry in results.items())
    _record(acceptance_report, 8, "span ranks", passed, detail)
    for t, (ok, ranks, gap) in results.items():
        assert ok, f"t={t}: ranks {ranks}, min gap {gap}"


def test_acceptance_09_classification(acceptance_report):
    results = {}
    for t in T_VALUES:
        params = Params(t=t)
        rng = np.random.default_rng(900 + int(1000 * t))
        ok = True
        for two_n in range(0, 7):
            for sign in (+1, -1):
                rep = build_rep(params, two_n, sign)
                ok = ok and classify_by_highest_weight(params, rep.q, rep.e, rep.f) == (two_n, sign)
                z = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal(
                    (rep.dim, rep.dim)
                )
                u, r = np.linalg.qr(z)
                u = u * (np.diag(r) / np.abs(np.diag(r)))[None, :]
                conj = lambda m: u @ m @ u.conj().T
                ok = ok and classify_by_highest_weight(
                    params, conj(rep.q), conj(rep.e), conj(rep.f)
                ) == (two_n, sign)
        results[t] = ok
    passed = all(results.values())
    detail = "; ".join(f"t={t}: {'ok' if ok else 'broken'}" for t, ok in results.items())
    _record(acceptance_report, 9, "classification round trip", passed, detail)
    for t, ok in results.items():
        assert ok, f"t={t}: classification failed"


def test_acceptance_10_determinism(acceptance_report):
    """Two in-process runs, the second on warm caches, against fresh
    children: ``hopf`` twice in children, ``all`` once, cold."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUQ2_")}
    results = {}
    for t in T_VALUES:
        for suite, children in (("hopf", 2), ("all", 1)):
            config = RunConfig(t=t, nmax2=4, seed=0)
            in_process_1 = dump_json(report_doc(run_suite(config, suite)))
            in_process_2 = dump_json(report_doc(run_suite(config, suite)))

            cmd = [
                sys.executable,
                "-m",
                "suq2.cli",
                "verify",
                "--suite",
                suite,
                "--t",
                str(t),
                "--nmax",
                "4",
                "--seed",
                "0",
            ]
            subs = [subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env) for _ in range(children)]
            results[t, suite] = (
                in_process_1 == in_process_2
                and all(sub.returncode == 0 and sub.stdout.strip() == in_process_1 for sub in subs)
            )
    passed = all(results.values())
    detail = "; ".join(
        f"t={t} {suite}: {'byte-identical' if ok else 'drifted'}" for (t, suite), ok in results.items()
    )
    _record(acceptance_report, 10, "deterministic reports", passed, detail)
    for (t, suite), ok in results.items():
        assert ok, f"t={t}, suite {suite}: reports are not byte-identical"

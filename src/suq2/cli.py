"""Command line interface.

Subcommands:

    suq2 rep --n 2 [--sign -1]     irreducible representation matrices
    suq2 cg --n 1 --m 1            tensor product decomposition data
    suq2 verify [--suite all]      run the check batteries
    suq2 tables                    closed-form structure tables

Common options resolve in the order: command line flag, then SUQ2_*
environment variable, then default: RunConfig's for the run settings,
json and stdout for --format and --out.  JSON goes to stdout unless
--out is given; csv output requires --out.  Exit codes: 0 success,
1 failed checks, 2 invalid configuration or an unwritable --out.
"""

import argparse
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .clebsch import decompose, decomposition_residuals, index_set
from .discrete import integral_weights, quantum_dimension
from .reps import (
    build_rep,
    casimir_matrix,
    casimir_scalar,
    classify_by_highest_weight,
    relation_residuals,
)
from .util import max_abs, weights
from .verify import (
    CHECKS,
    RunConfig,
    SUITES,
    doc_csv,
    dual_antipode_expected,
    dual_haar_quadratic_expected,
    dump_json,
    report_csv,
    report_doc,
    run_suite,
)
from .dual import U_LABELS


# the families of the checks that --nmax reaches uncut, as "cg/* and reps/*"
_UNCAPPED = " and ".join(sorted({row.id.split("/")[0] + "/*" for row in CHECKS if row.cap is None}))
_FORMATS = ("json", "csv")


def _count(raw: str) -> int:
    """The type of --n, --m, --nmax and --seed, and of their variables: an integer >= 0."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


# The common options as (flag, dest, type, help).  A flag's SUQ2_* variable
# and metavar are its name in capitals (--tol-abs: SUQ2_TOL_ABS, TOL_ABS);
# its default is RunConfig's field ``dest``, or json and stdout for --format
# and --out, which RunConfig does not hold.
_COMMON = (
    ("--t", "t", float, "deformation parameter t > 0 (lam = exp(t))"),
    ("--nmax", "nmax2", _count, "largest doubled spin 2n of the tables and the uncapped "
     f"{_UNCAPPED} checks; others stop at their caps"),
    ("--tol-abs", "tol_abs", float, "absolute tolerance for residual checks"),
    ("--tol-rel", "tol_rel", float, "relative tolerance for rank decisions"),
    ("--format", "fmt", str, "output format"),
    ("--out", "out", str, "output file path (csv requires this; json defaults to stdout)"),
    ("--seed", "seed", _count, "seed for the randomized battery elements"),
)


def _env(var: str, cast, default, choices=None):
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = cast(raw)
        if choices is None or value in choices:
            return value
    except (ValueError, argparse.ArgumentTypeError):
        pass
    sys.stderr.write(f"suq2: invalid {var}={raw!r}\n")
    raise SystemExit(2)


def _add_common(parser: argparse.ArgumentParser) -> None:
    defaults = {**asdict(RunConfig()), "fmt": _FORMATS[0], "out": ""}
    for flag, dest, cast, help in _COMMON:
        name = flag[2:].upper().replace("-", "_")
        choices = _FORMATS if dest == "fmt" else None
        default = _env("SUQ2_" + name, cast, defaults[dest], choices)
        metavar = None if choices else name
        parser.add_argument(flag, dest=dest, type=cast, choices=choices, metavar=metavar, default=default, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suq2",
        description="numerical discrete quantum group su_q(2) and its compact dual",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser("rep", help="build one irreducible representation")
    _add_common(p_rep)
    p_rep.add_argument("--n", type=_count, required=True, help="doubled spin 2n >= 0")
    p_rep.add_argument("--sign", type=int, choices=(1, -1), default=1, help="sign twist of q")
    p_rep.set_defaults(func=cmd_rep)

    p_cg = sub.add_parser("cg", help="decompose a tensor product of irreducibles")
    _add_common(p_cg)
    p_cg.add_argument("--n", type=_count, required=True, help="left doubled spin 2n >= 0")
    p_cg.add_argument("--m", type=_count, required=True, help="right doubled spin 2m >= 0")
    p_cg.set_defaults(func=cmd_cg)

    p_verify = sub.add_parser("verify", help="run the named check battery")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, default="all", help="battery to run")
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="emit closed-form structure tables")
    _add_common(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    return parser


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    sys.stdout.write(text)


def _write_doc(args, kind: str, config: RunConfig, fields: dict) -> None:
    """Write a schema-1 document: its kind and run config, then ``fields``."""
    doc = {"schema": 1, "kind": kind, "config": asdict(config), **fields}
    _emit(args, dump_json(doc) + "\n" if args.fmt == "json" else doc_csv(doc))


def _matrix_doc(mat: np.ndarray):
    return [[complex(v) for v in row] for row in np.asarray(mat, dtype=complex)]


def cmd_rep(args, config: RunConfig) -> int:
    params = config.params()
    rep = build_rep(params, args.n, args.sign)
    residuals = relation_residuals(params, rep.q, rep.q_inv, rep.e, rep.f)
    expected = casimir_scalar(params, args.n)
    cas = max_abs(casimir_matrix(params, rep) - expected * np.eye(rep.dim))
    two_n, sign = classify_by_highest_weight(params, rep.q, rep.e, rep.f)
    fields = {
        "two_n": args.n,
        "sign": args.sign,
        "dim": rep.dim,
        "weights": [int(w) for w in weights(args.n)],
        "amplitudes": [float(r) for r in rep.r],
        "matrices": {
            "q": _matrix_doc(rep.q),
            "q_inv": _matrix_doc(rep.q_inv),
            "e": _matrix_doc(rep.e),
            "f": _matrix_doc(rep.f),
        },
        "residuals": {law: float(v) for law, v in residuals.items()},
        "casimir": {"value": float(expected), "residual": float(cas)},
        "classified": {"two_n": two_n, "sign": sign},
    }
    _write_doc(args, "rep", config, fields)
    return 0


def cmd_cg(args, config: RunConfig) -> int:
    params = config.params()
    dec = decompose(params, args.n, args.m)
    residuals = decomposition_residuals(params, args.n, args.m)
    fields = {
        "two_n": args.n,
        "two_m": args.m,
        "index_set": index_set(args.n, args.m),
        "isometries": {str(two_k): _matrix_doc(dec.basis[:, cols]) for two_k, cols in dec.columns.items()},
        "residuals": {law: float(v) for law, v in residuals.items()},
        "singular_gap": dec.singular_gap,
    }
    _write_doc(args, "cg", config, fields)
    return 0


def cmd_verify(args, config: RunConfig) -> int:
    report = run_suite(config, args.suite)
    _emit(args, dump_json(report_doc(report)) + "\n" if args.fmt == "json" else report_csv(report))
    summary = f"suite {report.suite}: {len(report.checks)} checks, {len(report.failures)} failed\n"
    sys.stderr.write(summary)
    for check in report.failures:
        sys.stderr.write(f"  FAIL {check.id}: residual {check.residual:.3e} > {check.tolerance:.3e}\n")
    return 0 if report.passed else 1


def cmd_tables(args, config: RunConfig) -> int:
    params = config.params()
    spin_half = build_rep(params, 1, +1)
    pairing = {name: _matrix_doc(getattr(spin_half, name)) for name in ("q", "e", "f")}

    antipode_table = {}
    for i in U_LABELS:
        for j in U_LABELS:
            factor, (ti, tj) = dual_antipode_expected(params, i, j)
            antipode_table[f"u[{i},{j}]"] = {
                "factor": float(factor),
                "target": f"u[{ti},{tj}]",
            }

    haar_table = {}
    for k in U_LABELS:
        for l in U_LABELS:
            for i in U_LABELS:
                for j in U_LABELS:
                    value = dual_haar_quadratic_expected(params, k, l, i, j)
                    if value != 0:
                        haar_table[f"u[{k},{l}]u[{i},{j}]"] = complex(value)

    blocks = {}
    for two_n in range(0, config.nmax2 + 1):
        c_n = quantum_dimension(params, two_n)
        blocks[str(two_n)] = {
            "dim": two_n + 1,
            "quantum_dimension": float(c_n),
            "casimir": float(casimir_scalar(params, two_n)),
            "left_integral_weights": [float(v) for v in c_n * integral_weights(params, two_n, "left")],
            "right_integral_weights": [float(v) for v in c_n * integral_weights(params, two_n, "right")],
        }

    fields = {
        "lam": float(params.lam),
        "c": float(params.c),
        "pairing_spin_half": pairing,
        "dual_antipode": antipode_table,
        "dual_haar_quadratic": haar_table,
        "blocks": blocks,
    }
    _write_doc(args, "tables", config, fields)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fmt == "csv" and not args.out:
        parser.error("--format csv requires --out")
    config = RunConfig(**{field.name: getattr(args, field.name) for field in fields(RunConfig)})
    try:
        return args.func(args, config)
    except (ValueError, ArithmeticError, OSError) as exc:
        parser.exit(2, f"suq2: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

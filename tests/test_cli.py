"""Command line interface: subcommands, formats, exit codes, determinism."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from suq2 import cli
from suq2.cli import main
from suq2.verify import RunConfig, _flatten, dump_json, report_doc, run_suite

CLI = [sys.executable, "-m", "suq2.cli"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_extra=None, check=False):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUQ2_")}
    if env_extra:
        env.update(env_extra)
    result = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.returncode}\n{result.stderr}")
    return result


def test_rep_emits_valid_json():
    result = run_cli("rep", "--n", "2", check=True)
    doc = json.loads(result.stdout)
    assert doc["kind"] == "rep"
    assert doc["two_n"] == 2
    assert doc["dim"] == 3
    assert doc["weights"] == [2, 0, -2]
    assert len(doc["amplitudes"]) == 2
    assert all(value < 1e-10 for value in doc["residuals"].values())
    assert doc["classified"] == {"two_n": 2, "sign": 1}
    # complex numbers are [re, im] pairs
    assert doc["matrices"]["q"][0][0][1] == 0.0


def test_rep_negative_sign():
    result = run_cli("rep", "--n", "1", "--sign", "-1", check=True)
    doc = json.loads(result.stdout)
    assert doc["classified"]["sign"] == -1
    assert doc["matrices"]["q"][0][0][0] < 0


def test_cg_emits_valid_json():
    result = run_cli("cg", "--n", "1", "--m", "1", check=True)
    doc = json.loads(result.stdout)
    assert doc["kind"] == "cg"
    assert doc["index_set"] == [0, 2]
    assert set(doc["isometries"]) == {"0", "2"}
    assert all(value < 1e-9 for value in doc["residuals"].values())
    assert doc["singular_gap"] == 1.0


def test_cg_singular_gap_is_null_without_two_vectors_of_one_weight(tmp_path):
    doc = json.loads(run_cli("cg", "--n", "0", "--m", "3", check=True).stdout)
    assert doc["singular_gap"] is None
    out = tmp_path / "cg.csv"
    run_cli("cg", "--n", "0", "--m", "3", "--format", "csv", "--out", str(out), check=True)
    assert "singular_gap,null" in out.read_text().splitlines()


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "--suite", "hopf", "--out", str(out), check=True)
    doc = json.loads(out.read_text())
    assert doc["kind"] == "verify"
    assert doc["suite"] == "hopf"
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["checks"])
    ids = [check["id"] for check in doc["checks"]]
    assert ids == sorted(ids)
    assert all(check["pass"] for check in doc["checks"])
    assert "0 failed" in result.stderr


def test_verify_all_suites_pass():
    result = run_cli("verify", "--suite", "all", "--out", "/dev/null")
    assert result.returncode == 0, result.stderr


def test_verify_exit_code_on_failure(tmp_path):
    # an absurdly tight tolerance forces failures without touching the math
    out = tmp_path / "report.json"
    result = run_cli("verify", "--suite", "hopf", "--tol-abs", "1e-30", "--out", str(out))
    assert result.returncode == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] > 0
    assert "FAIL" in result.stderr


def test_verify_names_non_finite_residuals_instead_of_crashing(tmp_path):
    # at t = 50 three residuals are NaN: failed checks in a parseable
    # report, not the exit 2 of an unreportable number
    out = tmp_path / "report50.json"
    result = run_cli("verify", "--suite", "all", "--t", "50", "--out", str(out))
    assert result.returncode == 1, result.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == 2
    assert doc["summary"]["failed"] == 29
    assert sum(check["residual"] == "nan" for check in doc["checks"]) == 3
    assert "FAIL coint/modular-grouplike: residual nan" in result.stderr
    assert "Traceback" not in result.stderr


def test_tables_round_trip(tmp_path):
    result = run_cli("tables", "--nmax", "2", check=True)
    doc = json.loads(result.stdout)
    assert doc["kind"] == "tables"
    assert set(doc["blocks"]) == {"0", "1", "2"}
    assert abs(doc["blocks"]["0"]["quantum_dimension"] - 1.0) < 1e-14
    assert "dual_antipode" in doc and "dual_haar_quadratic" in doc


@pytest.mark.parametrize("args", [("rep", "--n", "1"), ("cg", "--n", "1", "--m", "2"), ("tables",)])
def test_documents_open_with_schema_kind_and_config(args):
    doc = json.loads(run_cli(*args, "--nmax", "1", check=True).stdout)
    assert list(doc)[:3] == ["schema", "kind", "config"]
    assert (doc["schema"], doc["kind"], doc["config"]) == (1, args[0], asdict(RunConfig(nmax2=1)))


def test_json_output_is_deterministic():
    first = run_cli("verify", "--suite", "dual", check=True)
    second = run_cli("verify", "--suite", "dual", check=True)
    assert first.stdout == second.stdout

    rep1 = run_cli("rep", "--n", "3", check=True)
    rep2 = run_cli("rep", "--n", "3", check=True)
    assert rep1.stdout == rep2.stdout


def test_in_process_report_matches_itself():
    config = RunConfig(t=0.3, nmax2=4, seed=0)
    text1 = dump_json(report_doc(run_suite(config, "hopf")))
    text2 = dump_json(report_doc(run_suite(config, "hopf")))
    assert text1 == text2


def test_csv_requires_out():
    """A usage error for every command, before any work: tables at
    --nmax 3000 would overflow if it ran."""
    commands = (("verify", "--suite", "hopf"), ("rep", "--n", "1"), ("cg", "--n", "1", "--m", "1"), ("tables",))
    for args in commands + (("tables", "--nmax", "3000"),):
        result = run_cli(*args, "--format", "csv")
        assert result.returncode == 2, args
        assert "suq2: error: --format csv requires --out" in result.stderr and result.stdout == "", args


def test_csv_without_out_is_refused_before_the_suite_runs(bare_env, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "csv"])
    assert exc.value.code == 2
    assert "suq2: error: --format csv requires --out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (("rep", "--n", "1", "--t", "800"), "suq2: error: at t = 800.0, lam = exp(t) overflows\n"),
        (("rep", "--n", "400", "--t", "5"), "suq2: error: at t = 5.0, lam^(802/2) overflows\n"),
    ],
)
def test_an_overflow_of_lam_exits_two_and_names_t(args, message):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.endswith(message) and "Traceback" not in result.stderr and result.stdout == ""


def test_csv_report_shape(tmp_path):
    out = tmp_path / "report.csv"
    run_cli("verify", "--suite", "hopf", "--format", "csv", "--out", str(out), check=True)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,law,residual,tolerance,pass"
    assert len(lines) > 5
    assert all(line.endswith(",true") for line in lines[1:])


def test_csv_rep_is_flat_key_value(tmp_path):
    out = tmp_path / "rep.csv"
    run_cli("rep", "--n", "1", "--format", "csv", "--out", str(out), check=True)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert "two_n" in keys
    assert any(key.startswith("matrices.q[0][0]") for key in keys)


def test_tables_csv_reads_back_with_a_csv_reader(tmp_path):
    """Keys with commas, such as `dual_antipode.u[1,1].factor`, are quoted:
    every row is one key and one value, and the keys are those of the json
    document flattened, with a complex number's .re and .im rows where the
    json has its [re, im] pair."""
    out = tmp_path / "tables.csv"
    run_cli("tables", "--format", "csv", "--out", str(out), check=True)
    header, *rows = csv.reader(out.open(newline=""))
    assert header == ["key", "value"]
    assert all(len(row) == 2 for row in rows), [row for row in rows if len(row) != 2]
    assert any("," in key for key, _ in rows)
    doc = json.loads(run_cli("tables", check=True).stdout)
    keys = [re.sub(r"\.im$", "[1]", re.sub(r"\.re$", "[0]", key)) for key, _ in rows]
    assert keys == [key for key, _ in _flatten(doc)]


def test_invalid_deformation_exits_two():
    result = run_cli("verify", "--t", "-0.5")
    assert result.returncode == 2

    result = run_cli("verify", "--t", "-1")
    assert result.returncode == 2
    assert "deformation parameter t must be positive" in result.stderr and result.stdout == ""

    result = run_cli("rep", "--n", "2", "--t", "0")
    assert result.returncode == 2

    # past overflow: a configuration error, not a traceback or a failed check
    for args in (("rep", "--n", "2", "--t", "300"), ("tables", "--t", "300"), ("verify", "--t", "100")):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert "suq2: error:" in result.stderr and "Traceback" not in result.stderr, args
    # verify names the battery that overflowed, and t
    assert "suq2: error: rep battery at t = 100.0: (34, 'Numerical result out of range')" in result.stderr


@pytest.mark.parametrize("command", [("verify",), ("rep", "--n", "2")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_deformation_exits_two_and_names_the_value(command, value):
    result = run_cli(*command, "--t", value)
    assert result.returncode == 2, result.stderr
    assert f"suq2: error: deformation parameter t must be positive and finite, got {value}" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("args", [("verify",), ("rep", "--n", "2"), ("tables",), ("rep", "--n", "1")])
def test_t_below_the_resolution_of_lam_exits_two(args):
    """At t = 1e-16, lam = exp(t) rounds to 1 and c = 1 / (lam - 1/lam)
    has no value: a configuration error that names t and the cause, not a
    traceback or a failed check."""
    result = run_cli(*args, "--t", "1e-16")
    assert result.returncode == 2, args
    assert "suq2: error:" in result.stderr and "Traceback" not in result.stderr, args
    assert "at t = 1e-16, lam = exp(t) rounds to 1" in result.stderr, args
    assert result.stdout == "", args
    if args == ("verify",):
        assert "suq2: error: rep battery at t = 1e-16: " in result.stderr


def test_cg_needs_no_c_at_t_below_the_resolution_of_lam():
    result = run_cli("cg", "--n", "2", "--m", "2", "--t", "1e-16")
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_csv_refuses_non_finite_numbers_like_json(tmp_path):
    out = tmp_path / "tables.csv"
    result = run_cli("tables", "--t", "100", "--format", "csv", "--out", str(out))
    assert result.returncode == 2
    assert "non-finite number in report" in result.stderr
    assert not out.exists()


def test_an_unwritable_out_exits_two_naming_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--suite", "hopf", "--out", str(out)])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "suq2: error:" in err and str(out) in err and "Traceback" not in err
    assert not out.parent.exists()


def test_invalid_subcommand_and_flags_exit_two():
    assert run_cli("bogus").returncode == 2
    assert run_cli("verify", "--suite", "bogus").returncode == 2
    assert run_cli("rep", "--n", "-2").returncode == 2


def test_environment_variables_provide_defaults():
    result = run_cli("rep", "--n", "1", env_extra={"SUQ2_T": "0.4"}, check=True)
    doc = json.loads(result.stdout)
    assert abs(doc["config"]["t"] - 0.4) < 1e-15


def test_flags_override_environment():
    result = run_cli(
        "rep", "--n", "1", "--t", "0.25", env_extra={"SUQ2_T": "0.4"}, check=True
    )
    doc = json.loads(result.stdout)
    assert abs(doc["config"]["t"] - 0.25) < 1e-15


def test_garbage_environment_exits_two():
    result = run_cli("rep", "--n", "1", env_extra={"SUQ2_T": "not-a-number"})
    assert result.returncode == 2
    assert "SUQ2_T" in result.stderr


@pytest.mark.parametrize("command", ["tables", "verify"])
def test_environment_format_outside_the_choices_exits_two(command):
    # argparse checks --format against its choices, but not a default
    result = run_cli(command, env_extra={"SUQ2_FORMAT": "xml"})
    assert result.returncode == 2
    assert "suq2: invalid SUQ2_FORMAT='xml'" in result.stderr
    assert result.stdout == ""


# Each common option: its variable, its flag, its dest, and a value for the
# variable and another for the flag, both as a report reads them back.
ENVIRONMENT = [
    ("SUQ2_T", "--t", "t", 0.4, 0.25),
    ("SUQ2_NMAX", "--nmax", "nmax2", 2, 3),
    ("SUQ2_TOL_ABS", "--tol-abs", "tol_abs", 1e-8, 1e-7),
    ("SUQ2_TOL_REL", "--tol-rel", "tol_rel", 1e-6, 1e-5),
    ("SUQ2_SEED", "--seed", "seed", 7, 8),
    ("SUQ2_FORMAT", "--format", "fmt", "csv", "json"),
    ("SUQ2_OUT", "--out", "out", "env.json", "flag.json"),
]


@pytest.fixture
def bare_env(monkeypatch):
    """No SUQ2_* variable of the calling shell reaches the command line."""
    for var in [var for var in os.environ if var.startswith("SUQ2_")]:
        monkeypatch.delenv(var)
    return monkeypatch


def _option_read_back(tmp_path, monkeypatch, dest, env, *flags):
    """Run ``suq2 rep --n 1`` in ``tmp_path`` with ``env`` and ``flags``, and
    read the option ``dest`` back from the one file it writes: the file's
    name for --out, its format for --format, else its config entry."""
    monkeypatch.chdir(tmp_path)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    out = () if "--out" in flags or "SUQ2_OUT" in env else ("--out", "report")
    assert main(["rep", "--n", "1", *flags, *out]) == 0
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    if dest == "out":
        return path.name
    if dest == "fmt":
        return "csv" if text.startswith("key,value\n") else "json"
    return json.loads(text)["config"][dest]


@pytest.mark.parametrize("var, flag, dest, env_value, flag_value", ENVIRONMENT)
def test_each_environment_variable_sets_its_option(tmp_path, bare_env, var, flag, dest, env_value, flag_value):
    assert _option_read_back(tmp_path, bare_env, dest, {var: str(env_value)}) == env_value


@pytest.mark.parametrize("var, flag, dest, env_value, flag_value", ENVIRONMENT)
def test_each_flag_wins_over_its_environment_variable(tmp_path, bare_env, var, flag, dest, env_value, flag_value):
    assert _option_read_back(tmp_path, bare_env, dest, {var: str(env_value)}, flag, str(flag_value)) == flag_value


@pytest.mark.parametrize(
    "var, value",
    [
        ("SUQ2_T", "abc"),
        ("SUQ2_NMAX", "2.5"),
        ("SUQ2_TOL_ABS", "1e-9x"),
        ("SUQ2_TOL_REL", ""),
        ("SUQ2_SEED", "seven"),
        ("SUQ2_FORMAT", "xml"),
    ],
)
def test_a_garbage_environment_value_exits_two_and_names_its_variable(bare_env, capsys, var, value):
    bare_env.setenv(var, value)
    with pytest.raises(SystemExit) as exited:
        main(["rep", "--n", "1"])
    assert exited.value.code == 2
    assert capsys.readouterr() == ("", f"suq2: invalid {var}={value!r}\n")


def test_an_unwritable_environment_out_exits_two_naming_the_path(tmp_path, bare_env, capsys):
    """Any string is a path to SUQ2_OUT, so its garbage is a path that
    cannot be written, refused as the same path on --out is."""
    out = tmp_path / "missing" / "report.json"
    bare_env.setenv("SUQ2_OUT", str(out))
    with pytest.raises(SystemExit) as exited:
        main(["rep", "--n", "1"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "suq2: error:" in err and str(out) in err and "Traceback" not in err


def test_readme_lists_each_common_option_with_its_variable_and_default(bare_env):
    """README's common-flags table lists the CLI's options in their order,
    each with its SUQ2_* variable and its default, RunConfig's for the run
    settings."""
    section = (ROOT / "README.md").read_text().split("| flag | env fallback | default | meaning |\n| --- | --- | --- | --- |\n")[1]
    listed = {}
    for line in section.split("\n\n")[0].splitlines():
        flag, var, default, _ = (part.strip().strip("`") for part in line.strip("|").split("|"))
        listed[flag] = (var, default)
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    defaults = {action.option_strings[0]: action.default for action in parser._actions if action.dest != "help"}
    assert list(listed) == list(defaults)
    variables = {flag: var for var, flag, *_ in ENVIRONMENT}
    for flag, (var, default) in listed.items():
        value = defaults[flag]
        assert var == variables[flag], flag
        assert (default if isinstance(value, str) else type(value)(default)) == ("stdout" if value == "" else value), flag
    assert {dest: defaults[flag] for _, flag, dest, *_ in ENVIRONMENT if dest not in ("fmt", "out")} == asdict(RunConfig())


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--tol-abs", "nan"),
        ("rep", "--n", "2", "--tol-abs", "nan"),
        ("cg", "--n", "1", "--m", "1", "--tol-abs", "inf"),
    ],
)
def test_non_finite_tolerance_exits_two(args):
    result = run_cli(*args)
    assert result.returncode == 2, result.stderr
    assert "suq2: error: tol_abs must be finite and nonnegative" in result.stderr
    assert result.stdout == ""


SEEDED_CHECKS = {
    "dqg/antipode-laws",
    "dqg/antipode-squared",
    "dqg/coassociativity",
    "dqg/coproduct-multiplicative",
    "dqg/coproduct-star",
    "dqg/flip-antiautomorphism",
    "dqg/flip-coproduct",
    "dqg/scaling-coproduct",
    "dqg/scaling-group",
    "reps/phase-twist",
}

# Seeded, but their residual peaks on a fixed word element at both seeds
# ("ef" for the antipode laws, "qef" for the star), so it does not move.
PEAK_ON_WORDS = {"dqg/antipode-laws", "dqg/coproduct-star"}


def test_seed_changes_random_battery_but_not_results():
    a = run_cli("verify", "--suite", "dqg", "--seed", "1")
    b = run_cli("verify", "--suite", "dqg", "--seed", "2")
    assert a.returncode == 0 and b.returncode == 0
    checks_a = {c["id"]: c for c in json.loads(a.stdout)["checks"]}
    checks_b = {c["id"]: c for c in json.loads(b.stdout)["checks"]}
    assert checks_a.keys() == checks_b.keys()
    moved = {i for i in checks_a if checks_a[i]["residual"] != checks_b[i]["residual"]}
    assert not moved & PEAK_ON_WORDS
    assert moved == SEEDED_CHECKS - PEAK_ON_WORDS
    assert all(checks_a[i]["pass"] == checks_b[i]["pass"] for i in checks_a)


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--suite", "dual", "--nmax", "-1"),
        ("verify", "--suite", "hopf", "--nmax", "-1"),
        ("verify", "--suite", "dqg", "--nmax", "-1"),
        ("verify", "--suite", "all", "--nmax", "-1"),
        ("tables", "--nmax", "-3"),
        ("rep", "--n", "1", "--nmax", "-1"),
        ("cg", "--n", "1", "--m", "1", "--nmax", "-1"),
        ("rep", "--n", "-1"),
        ("cg", "--n", "-2", "--m", "1"),
        ("cg", "--n", "1", "--m", "-1"),
        ("tables", "--seed", "-1"),
        ("SUQ2_NMAX=-1", "rep", "--n", "1"),
        ("SUQ2_SEED=-1", "verify", "--suite", "hopf"),
    ],
)
def test_negative_nmax_exits_two(args):
    """A negative --nmax, --n, --m or --seed, or SUQ2_NMAX or SUQ2_SEED (a
    leading VAR=value), is refused by the argument parser, naming it."""
    env = dict(arg.split("=") for arg in args if "=" in arg)
    argv = [arg for arg in args if "=" not in arg]
    result = run_cli(*argv, env_extra=env)
    assert result.returncode == 2, result.stderr
    if env:
        ((var, value),) = env.items()
        assert result.stderr == f"suq2: invalid {var}='{value}'\n"
    else:
        flag, value = next((flag, value) for flag, value in zip(argv, argv[1:]) if re.fullmatch(r"-\d+", value))
        assert f"suq2 {argv[0]}: error: argument {flag}: must be an integer >= 0, got {value}\n" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("suite", ["hopf", "dqg", "dual", "all"])
def test_every_suite_refuses_a_negative_seed_by_name(suite):
    result = run_cli("verify", "--suite", suite, "--seed", "-1")
    assert result.returncode == 2, result.stderr
    assert "suq2 verify: error: argument --seed: must be an integer >= 0, got -1\n" in result.stderr
    assert result.stdout == ""


def test_nmax_help_names_the_uncapped_check_families():
    result = run_cli("verify", "--help", check=True)
    assert "uncapped cg/* and reps/* checks" in " ".join(result.stdout.split())

"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

The minimal runs at the end start the benchmark as a child, as the
command in BENCHMARK.json does, and take a little over a minute.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_sources()

import suq2  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fingerprint(workload) -> str:
    """Digest of a workload's op list, coefficient bytes included."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, (suq2.AlgElement, suq2.DualElement)):
            for k in value.support:
                digest.update(f"block {k}".encode())
                digest.update(value.blocks[k].tobytes())
        elif isinstance(value, tuple):
            for item in value:
                feed(item)
        else:
            digest.update(repr(value).encode())

    for op in workload.ops:
        feed(op)
    for order in workload.orders:
        feed(tuple(order))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_op_list(name):
    cls = workloads.WORKLOADS[name]
    prints = []
    for seed in (5, 5, 6):
        workload = cls(seed, 1)
        workload.setup()
        prints.append(fingerprint(workload))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def test_cache_reset_finds_the_three_caches():
    caches = workloads.discover_caches()
    assert {"build_rep", "decompose", "conjugate_unitary"} <= {c.__name__ for c in caches}
    suq2.decompose(suq2.Params(t=0.3), 2, 1)
    workload = workloads.CgLargeSpin(0, 1)
    workload.cold_reset()
    assert all(c.cache_info().currsize == 0 for c in caches)


def snapshot() -> dict:
    return {
        (module.__name__, attr): value
        for module in tracer.suq2_modules()
        for attr, value in vars(module).items()
    }


def test_tracing_restores_every_patched_name():
    before = snapshot()
    t = tracer.Tracer(run.TRACE_TARGETS)
    with t:
        assert suq2.dual.decompose is not before[("suq2.clebsch", "decompose")]
        assert suq2.dual.decompose is suq2.clebsch.decompose
        assert suq2.verify.formal_coproduct is suq2.words.formal_coproduct
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert suq2.dual.decompose is suq2.clebsch.decompose
    assert hasattr(suq2.dual.decompose, "cache_info")


def test_self_times_partition_the_root_spans():
    params = suq2.Params(t=0.3)
    element = suq2.DualElement({2: np.arange(9.0).reshape(3, 3), 3: np.eye(4)})
    t = tracer.Tracer(run.TRACE_TARGETS)
    with t:
        t.active = True
        suq2.dual.dual_antipode(params, element)
        suq2.dual.dual_modular(params, element)
        t.active = False
    summary = t.summary()
    spans = t.arrays()
    roots = spans["parent"] < 0
    root_total = float(np.sum(spans["end_ns"][roots] - spans["start_ns"][roots])) * 1e-9
    assert summary["dual.dual_antipode"]["calls"] == 1
    # One probe per matrix unit of the 3x3 and 4x4 blocks; the modular map applies S^-1 twice.
    assert summary["discrete.antipode_inv_block"]["calls"] == 3 * (9 + 16)
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(root_total, rel=1e-9)
    assert summary["dual.dual_antipode"]["self_s"] < summary["dual.dual_antipode"]["total_s"]


def test_metric_names_match_the_contract():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_emits_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if name == "cg-large-spin":
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_exits_nonzero_without_sources():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "verify-cli", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

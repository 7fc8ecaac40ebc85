"""suq2 benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload verify-cli --seed 1 --seconds 20 --trace 0

Run from anywhere; it benchmarks the sources under ``src/`` of the
checkout that holds this file and exits 2 if there are none.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a run with every traced function wrapped.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record: environment, op counts, the tail percentile, and every failed op
with its context.

``correct`` is false when an op fails in a way the workload does not
expect.  ``cg-large-spin`` crosses the known decompose frontier on
purpose, so there a ``ValueError`` or a decomposition residual over
tolerance is a counted failed op, not an incorrect run; on the other
workloads every failed op makes the run incorrect.
"""

import os

# BLAS threads are pinned before numpy is first imported, in this process
# and, through the inherited environment, in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

WORDS = ("formal_coproduct", "formal_counit", "formal_antipode", "coproduct_leg")
REPS = (
    "build_rep", "relation_residuals", "casimir_matrix",
    "classify_by_highest_weight", "evaluate", "evaluate_in",
)
BLOCK_MAPS = (
    "antipode_block", "antipode_inv_block", "unitary_antipode_block",
    "scaling_block", "scaling_imag_block",
)
DUAL = ("dual_mul", "dual_antipode", "dual_star", "dual_modular")
BATTERIES = ("formal", "rep", "clebsch", "hopf", "cointegral", "modular", "dual")
TRACE_TARGETS = (
    [("suq2.words", f) for f in WORDS]
    + [("suq2.reps", f) for f in REPS]
    + [("suq2.clebsch", "decompose"), ("suq2.clebsch", "decomposition_residuals")]
    + [("suq2.discrete", "coproduct_component")]
    + [("suq2.discrete", f) for f in BLOCK_MAPS]
    + [("suq2.dual", f) for f in DUAL]
    + [("suq2.verify", f"{b}_battery") for b in BATTERIES]
)
# Bands of max(2n, 2m) for the per-call decompose build time.
DECOMPOSE_BANDS = ((8, 12), (13, 18), (19, 24))

PER_LAYER = {
    "words.calls": "count",
    "words.self_s": "s",
    "reps.build_rep.calls": "count",
    "reps.build_rep.misses": "count",
    "reps.self_s": "s",
    "clebsch.decompose.calls": "count",
    "clebsch.decompose.misses": "count",
    "clebsch.decompose.failed": "count",
    "clebsch.decompose.self_s": "s",
    **{f"clebsch.decompose.ms_p50.band_{lo}_{hi}": "ms" for lo, hi in DECOMPOSE_BANDS},
    "clebsch.decompose.out_bytes": "bytes",
    "clebsch.decomposition_residuals.self_s": "s",
    "clebsch.residual_ratio_max": "ratio",
    "discrete.coproduct_component.calls": "count",
    "discrete.coproduct_component.self_s": "s",
    "discrete.block_map.calls": "count",
    "discrete.block_map.self_s": "s",
    "dual.dual_mul.calls": "count",
    "dual.dual_mul.self_s": "s",
    "dual.dual_antipode.self_s": "s",
    "dual.dual_star.self_s": "s",
    "dual.dual_modular.self_s": "s",
    "dual.residual_ratio_max": "ratio",
    **{f"verify.{b}_battery_s": "s" for b in BATTERIES},
    "verify.checks_failed": "count",
    "verify.residual_ratio_max": "ratio",
    "cli.import_s": "s",
    "cli.process_overhead_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


def use_checkout_sources() -> None:
    """Import suq2 from this checkout's ``src``, here and in children."""
    if not (SRC / "suq2" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no suq2 sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import suq2

    if SRC not in Path(suq2.__file__).resolve().parents:
        sys.stderr.write(f"bench: suq2 imported from {suq2.__file__}, not {SRC}\n")
        raise SystemExit(2)


def op_stats(times) -> dict:
    """Median and tail of per-op times.  The tail is the highest
    percentile with at least 10 ops beyond it (all ops if fewer)."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "ops": n,
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_ops_beyond": beyond,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measured_commit():
    """The checkout's commit if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the paths and contents of every file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads": blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": measured_commit(),
        "src_sha256": source_digest(),
    }


def run_end_to_end(workload) -> tuple:
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    main = workload.measure()
    passes = [main]
    if hasattr(workload, "probe"):
        passes.append(workload.probe())
    op_times = main.op_times()
    stats = op_stats(op_times)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_times),
        "op_ms_p50": 1e3 * stats["p50_s"],
        "op_ms_tail": 1e3 * stats["tail_s"],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(workload.rss_of_children),
    }
    record = {"rounds": len(workload.orders), "setup_runs_s": setups, "op_stats": stats}
    return metrics, passes, record


def run_traced(workload) -> tuple:
    from tracer import Tracer
    from workloads import import_seconds

    tracer = Tracer(
        TRACE_TARGETS,
        notes={"clebsch.decompose": lambda args: max(args[1:3], default=-1)},
        sizes={"clebsch.decompose": lambda dec: sum(p.v.nbytes for p in dec.pieces)},
    )
    with tracer:
        tracer.active = True
        workload.setup()
        tracer.active = False
    plain, traced, extra, extra_metrics = workload.traced_passes(tracer)
    spans = tracer.summary()

    def total(module, names, field):
        return sum(spans[f"{module}.{name}"][field] for name in names)

    metrics = {
        "words.calls": total("words", WORDS, "calls"),
        "words.self_s": total("words", WORDS, "self_s"),
        "reps.build_rep.calls": spans["reps.build_rep"]["calls"],
        "reps.build_rep.misses": spans["reps.build_rep"]["misses"],
        "reps.self_s": total("reps", REPS, "self_s"),
        **{f"clebsch.decompose.{k}": spans["clebsch.decompose"][k]
           for k in ("calls", "misses", "failed", "self_s")},
    }
    built = spans["clebsch.decompose"]
    for lo, hi in DECOMPOSE_BANDS:
        in_band = built["miss_durations_s"][(built["miss_notes"] >= lo) & (built["miss_notes"] <= hi)]
        metrics[f"clebsch.decompose.ms_p50.band_{lo}_{hi}"] = (
            1e3 * statistics.median(in_band) if len(in_band) else 0.0
        )
    metrics.update({
        "clebsch.decompose.out_bytes": tracer.out_bytes.get("clebsch.decompose", 0),
        "clebsch.decomposition_residuals.self_s": spans["clebsch.decomposition_residuals"]["self_s"],
        "clebsch.residual_ratio_max": workload.ratios.get("clebsch", 0.0),
        "discrete.coproduct_component.calls": spans["discrete.coproduct_component"]["calls"],
        "discrete.coproduct_component.self_s": spans["discrete.coproduct_component"]["self_s"],
        "discrete.block_map.calls": total("discrete", BLOCK_MAPS, "calls"),
        "discrete.block_map.self_s": total("discrete", BLOCK_MAPS, "self_s"),
        "dual.dual_mul.calls": spans["dual.dual_mul"]["calls"],
        **{f"dual.{name}.self_s": spans[f"dual.{name}"]["self_s"] for name in DUAL},
        "dual.residual_ratio_max": workload.ratios.get("dual", 0.0),
        **{f"verify.{b}_battery_s": spans[f"verify.{b}_battery"]["total_s"] for b in BATTERIES},
        "verify.checks_failed": getattr(workload, "checks_failed", 0),
        "verify.residual_ratio_max": workload.ratios.get("verify", 0.0),
        "cli.import_s": import_seconds(),
        "cli.process_overhead_s": extra_metrics.get("cli.process_overhead_s", 0.0),
        "trace.spans": tracer.span_count,
        "trace.overhead_frac": sum(traced.op_times()) / sum(plain.op_times()) - 1.0,
    })
    path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.npz"
    tracer.save(path)
    record = {
        "traced_ops": traced.attempted,
        "untraced_wall_s": sum(plain.op_times()),
        "traced_wall_s": sum(traced.op_times()),
        "spans_file": str(path.relative_to(ROOT)),
        "span_summary": {
            name: {k: v for k, v in s.items() if not k.startswith("miss_")}
            for name, s in spans.items()
        },
    }
    return metrics, [plain, traced, *extra], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    if args.trace:
        metrics, passes, record = run_traced(workload)
        units = PER_LAYER
    else:
        metrics, passes, record = run_end_to_end(workload)
        units = END_TO_END
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    unexpected = [f for f in failures if f["kind"] not in workload.frontier]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "caches_reset": [f"{c.__module__}.{c.__qualname__}" for c in workload.caches],
        **record,
        "failed_frac": len(failures) / attempted,
        "unexpected_failures": len(unexpected),
        "failures": failures,
    }
    print(json.dumps({"record": record}, default=float))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())

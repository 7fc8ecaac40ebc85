"""The three benchmark workloads and the cache reset they share.

Every workload is closed-loop with one client in one process: the next op
starts when the previous one has returned and been checked.  Inputs come
only from the workload seed; the same seed and seconds give the same op
list.  A run makes one or more rounds over its op list, each round in its
own seeded order, and an op's time is its median over the rounds, so a
stretch of slow machine that hits one round does not move the result.
The rounds are sized from ``--seconds`` so that a run takes about that
long at the baseline on a 2-core x86 machine.

An op's first run is checked in full; a repeat must give output identical
to the first run's, byte for byte, and carries the first run's verdict.

* ``verify-cli`` runs ``python -m suq2.cli verify --suite all`` in a fresh
  child per op: the command users run, cold every time.
* ``cg-large-spin`` builds ``decompose`` cold across 8 <= 2n <= 24 at
  t = 0.3, a range that crosses the known failure frontier on purpose.
* ``dual-algebra`` multiplies and maps dual elements on spins <= 8 with
  every ``decompose`` result already cached.
"""

import hashlib
import json
import statistics
import subprocess
import sys
import time
import zlib
from itertools import combinations
from pathlib import Path

import numpy as np

import suq2
from suq2.clebsch import index_set
from suq2.discrete import AlgElement
from suq2.dual import DualElement
from suq2.params import Params
from suq2.verify import RunConfig, dump_json, report_doc

from tracer import suq2_modules

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_CHECK_IDS = frozenset(json.loads((BENCH_DIR / "check_ids.json").read_text()))
REQUIRED_CACHES = frozenset({"build_rep", "decompose", "conjugate_unitary"})


def discover_caches() -> list:
    """Every object with a ``cache_clear`` bound in a suq2 module namespace.

    Discovery rather than a fixed list, so a cache added later is reset
    between cold ops too.  Raises if a cache the workloads rely on is
    missing, which would mean the reset no longer makes ops cold.
    """
    found = {}
    for module in suq2_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    caches = sorted(found.values(), key=lambda c: (c.__module__, c.__qualname__))
    missing = REQUIRED_CACHES - {c.__name__ for c in caches}
    if missing:
        raise RuntimeError(f"cache discovery missed {sorted(missing)}")
    return caches


def import_seconds(repeats: int = 3) -> float:
    """Median time of ``import suq2`` in a fresh interpreter."""
    code = "import time; t0 = time.perf_counter(); import suq2; print(time.perf_counter() - t0)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, cwd=ROOT, timeout=120, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Pass:
    """Executions attempted, per-op wall times and failure records."""

    def __init__(self, n_ops: int):
        self.attempted = 0
        self.times = [[] for _ in range(n_ops)]
        self.failures = []

    def op_times(self) -> list:
        """Each executed op's median wall time over its runs."""
        return [statistics.median(t) for t in self.times if t]


class Workload:
    """One seeded op list with its set-up, timed op and untimed check.

    Subclasses set ``name`` and, where they differ from the defaults,
    ``setup_repeats``, ``frontier`` (failure kinds that mark the known
    failure frontier rather than a broken run) and ``rss_of_children``;
    they implement ``setup`` (which fills ``ops`` and ``orders``),
    ``run_op``, ``output_digest``, ``check`` and ``context``.
    """

    name = ""
    setup_repeats = 5
    frontier = frozenset()
    rss_of_children = False

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.caches = discover_caches()
        self.ops = []
        self.orders = []
        self.first = {}
        self.ratios = {}

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    def plan(self, rng, n_ops: int, round_s: float) -> None:
        """Seeded op orders for as many rounds as fit in ``seconds``."""
        rounds = max(1, round(self.seconds / round_s))
        self.orders = [rng.permutation(n_ops) for _ in range(rounds)]
        self.first = {}

    def cold_reset(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def note_ratio(self, layer: str, ratio: float) -> None:
        self.ratios[layer] = max(self.ratios.get(layer, 0.0), float(ratio))

    def before_op(self) -> None:
        """Untimed preparation of each op."""

    def measure(self, tracer=None, run_op=None, orders=None) -> Pass:
        """Run the op list round by round (``orders``, by default the
        planned rounds), timing each op, then checking its output untimed.
        A failed op keeps its time and is never retried or dropped."""
        run_op = run_op or self.run_op
        result = Pass(len(self.ops))
        for r, order in enumerate(self.orders if orders is None else orders):
            for i in order:
                i = int(i)
                op = self.ops[i]
                self.before_op()
                if tracer is not None:
                    tracer.op_id = i
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    output, error = run_op(op), None
                except Exception as exc:  # the op's failure is recorded, not raised
                    output, error = None, exc
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                result.attempted += 1
                result.times[i].append(elapsed)
                failure = self.check_run(i, op, output, error)
                if failure is not None:
                    result.failures.append(
                        {"workload": self.name, "seed": self.seed, "op": i, "round": r,
                         **self.context(op), **failure}
                    )
        return result

    def check_run(self, i: int, op, output, error):
        """The full check on an op's first run; on a repeat, identical
        output and the first run's verdict."""
        if error is not None:
            mark = f"{type(error).__name__}: {error}".encode()
        else:
            mark = self.output_digest(output)
        if i not in self.first:
            if error is not None:
                failure = {"kind": type(error).__name__, "detail": str(error)}
            else:
                failure = self.check(op, output)
            self.first[i] = (mark, failure)
            return failure
        first_mark, failure = self.first[i]
        if mark != first_mark:
            return {"kind": "nondeterministic", "detail": "output differs from the op's first run"}
        return failure

    def traced_passes(self, tracer) -> tuple:
        """One untraced and one traced round over the same ops:
        (untraced pass, traced pass, other passes, extra metrics)."""
        plain = self.measure(orders=self.orders[:1])
        with tracer:
            traced = self.measure(tracer, orders=self.orders[:1])
        return plain, traced, [], {}


# ---------------------------------------------------------------------------
# verify-cli
# ---------------------------------------------------------------------------


class VerifyCli(Workload):
    """``suq2 verify --suite all`` at the default window, one child per op.

    The ops split evenly over the acceptance deformations t = 0.1, 0.3,
    0.5, each with its own ``--seed``; one round.
    """

    name = "verify-cli"
    rss_of_children = True
    T_VALUES = (0.1, 0.3, 0.5)
    NMAX2 = 4
    NOMINAL_OP_S = 1.2

    def setup(self) -> None:
        rng = self.rng()
        per_t = max(1, round(self.seconds / (len(self.T_VALUES) * self.NOMINAL_OP_S)))
        ts = rng.permutation(np.repeat(self.T_VALUES, per_t))
        cli_seeds = rng.integers(0, 2**31 - 1, size=ts.size)
        self.ops = [(int(s), float(t)) for s, t in zip(cli_seeds, ts)]
        self.plan(rng, len(self.ops), self.seconds)
        self.probe_op = int(rng.integers(len(self.ops)))
        self.checks_failed = 0
        # Compiles the package's bytecode and warms the file cache, so the
        # first timed op does not pay for it.
        subprocess.run([sys.executable, "-c", "import suq2.cli"], cwd=ROOT, timeout=120, check=True)

    def before_op(self) -> None:
        self.cold_reset()

    def run_op(self, op):
        cli_seed, t = op
        command = [
            sys.executable, "-m", "suq2.cli", "verify", "--suite", "all",
            "--seed", str(cli_seed), "--t", repr(t),
        ]
        return subprocess.run(command, capture_output=True, cwd=ROOT, timeout=120)

    def run_in_process(self, op):
        """The traced equivalent of one op: ``run_suite`` in this process,
        cold, rendered as the CLI renders it."""
        cli_seed, t = op
        report = suq2.verify.run_suite(RunConfig(t=t, seed=cli_seed), "all")
        stdout = (dump_json(report_doc(report)) + "\n").encode()
        return subprocess.CompletedProcess([], 0 if report.passed else 1, stdout, b"")

    def output_digest(self, proc) -> bytes:
        return bytes([proc.returncode & 0xFF]) + proc.stdout

    def context(self, op) -> dict:
        cli_seed, t = op
        return {"t": t, "cli_seed": cli_seed, "nmax2": self.NMAX2}

    def check(self, op, proc):
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            return {"kind": "exit", "detail": f"exit code {proc.returncode}: {' | '.join(tail)}"}
        try:
            doc = json.loads(proc.stdout)
        except ValueError as exc:
            return {"kind": "output", "detail": f"stdout is not JSON: {exc}"}
        cli_seed, t = op
        config = doc.get("config", {})
        if (config.get("t"), config.get("seed"), config.get("nmax2")) != (t, cli_seed, self.NMAX2):
            return {"kind": "config", "detail": f"report config {config}"}
        checks = doc.get("checks", [])
        ids = [c["id"] for c in checks]
        if len(ids) != len(EXPECTED_CHECK_IDS) or set(ids) != EXPECTED_CHECK_IDS:
            missing = sorted(EXPECTED_CHECK_IDS - set(ids))
            extra = sorted(set(ids) - EXPECTED_CHECK_IDS)
            return {"kind": "check-ids", "detail": f"{len(ids)} ids, missing {missing}, extra {extra}"}
        for c in checks:
            if c["tolerance"] > 0:
                ratio = c["residual"] / c["tolerance"]
                self.note_ratio("verify", ratio)
                layer = {"cg": "clebsch", "dual": "dual"}.get(c["id"].split("/")[0])
                if layer:
                    self.note_ratio(layer, ratio)
        failed = [c for c in checks if not c["pass"]]
        self.checks_failed += len(failed)
        if failed:
            detail = "; ".join(f"{c['id']}: {c['residual']:.3e} > {c['tolerance']:.3e}" for c in failed)
            return {"kind": "failed-checks", "detail": detail}
        return None

    def probe(self) -> Pass:
        """Determinism probe: repeat one earlier op in a fresh child; its
        stdout must be byte-identical to the first run's."""
        return self.measure(orders=[[self.probe_op]])

    def traced_passes(self, tracer) -> tuple:
        children = self.measure()
        plain = self.measure(run_op=self.run_in_process)
        with tracer:
            traced = self.measure(tracer, run_op=self.run_in_process)
        overhead = statistics.median(children.op_times()) - statistics.median(plain.op_times())
        return plain, traced, [children, self.probe()], {"cli.process_overhead_s": overhead}


# ---------------------------------------------------------------------------
# cg-large-spin
# ---------------------------------------------------------------------------


class CgLargeSpin(Workload):
    """Cold ``decompose`` plus ``coproduct_component`` at large spin.

    The op list holds every (2n, 2m) with 8 <= 2n <= 24 and
    2n - 8 <= 2m <= 2n once, so 2n is uniform and 2m is uniform given 2n,
    and the share of ops past the failure frontier is the same for every
    seed.  Each op applies the coproduct to its own seeded random element
    supported on the pair's index set.
    """

    name = "cg-large-spin"
    frontier = frozenset({"ValueError", "residual"})
    T = 0.3
    PAIRS = tuple((n, m) for n in range(8, 25) for m in range(max(0, n - 8), n + 1))
    NOMINAL_ROUND_S = 3.2

    def setup(self) -> None:
        self.params = Params(t=self.T)
        self.cold_reset()
        rng = self.rng()
        self.ops = [
            (n, m, AlgElement({k: random_complex(rng, k + 1) for k in index_set(n, m)}))
            for n, m in self.PAIRS
        ]
        self.plan(rng, len(self.ops), self.NOMINAL_ROUND_S)

    def before_op(self) -> None:
        self.cold_reset()

    def run_op(self, op):
        two_n, two_m, element = op
        dec = suq2.clebsch.decompose(self.params, two_n, two_m)
        return dec, suq2.discrete.coproduct_component(self.params, element, two_n, two_m)

    def output_digest(self, output) -> bytes:
        dec, component = output
        return digest(*(p.v for p in dec.pieces), component)

    def context(self, op) -> dict:
        return {"t": self.T, "two_n": op[0], "two_m": op[1]}

    def check(self, op, output):
        two_n, two_m, element = op
        tol = self.params.tol_abs
        residuals = suq2.clebsch.decomposition_residuals(self.params, two_n, two_m)
        worst = max(residuals, key=residuals.get)
        self.note_ratio("clebsch", residuals[worst] / tol)
        if residuals[worst] > tol:
            return {"kind": "residual", "detail": worst, "value": residuals[worst], "tolerance": tol}
        # The isometries preserve traces: tr D(a)_(n,m) = sum_k tr a_k.
        expected = sum(np.trace(b) for b in element.blocks.values())
        error = abs(np.trace(output[1]) - expected) / max(1.0, abs(expected))
        if error > tol:
            return {"kind": "coproduct-trace", "detail": "relative trace error",
                    "value": float(error), "tolerance": tol}
        return None


# ---------------------------------------------------------------------------
# dual-algebra
# ---------------------------------------------------------------------------


class DualAlgebra(Workload):
    """Products and structure maps of dual elements, caches warm.

    The op list gives x every 3-block support on spins 0..8 once, and y
    too.  An op's cost is set mostly by the largest spin of x and of y,
    so the pairing of largest spins is fixed once for all seeds
    (``PAIRING``); the seed permutes supports that share a largest spin
    and draws the coefficients.
    """

    name = "dual-algebra"
    T = 0.3
    MAX_TWO_N = 8
    SUPPORTS = tuple(sorted(combinations(range(MAX_TWO_N + 1), 3), key=max))
    PAIRING = np.random.default_rng(0).permutation(len(SUPPORTS))
    NOMINAL_ROUND_S = 8.8
    REL_TOL = 1e-9

    def setup(self) -> None:
        self.params = Params(t=self.T)
        self.cold_reset()
        rng = self.rng()
        xs = self.shuffled_supports(rng)
        ys = self.shuffled_supports(rng)
        self.ops = [
            (random_dual(rng, xs[i]), random_dual(rng, ys[j])) for i, j in enumerate(self.PAIRING)
        ]
        self.plan(rng, len(self.ops), self.NOMINAL_ROUND_S)
        for two_n in range(self.MAX_TWO_N + 1):
            for two_m in range(self.MAX_TWO_N + 1):
                suq2.clebsch.decompose(self.params, two_n, two_m)

    def shuffled_supports(self, rng) -> list:
        """``SUPPORTS`` with each run of equal largest spin permuted."""
        out = list(self.SUPPORTS)
        for top in range(self.MAX_TWO_N + 1):
            same = [i for i, sup in enumerate(self.SUPPORTS) if max(sup) == top]
            for i, j in zip(same, rng.permutation(same)):
                out[i] = self.SUPPORTS[j]
        return out

    def run_op(self, op):
        x, y = op
        p = self.params
        z = suq2.dual.dual_mul(p, x, y)
        return z, suq2.dual.dual_antipode(p, z), suq2.dual.dual_star(p, z), suq2.dual.dual_modular(p, z)

    def output_digest(self, output) -> bytes:
        return digest(*(b for element in output for k in element.support for b in (k, element.blocks[k])))

    def context(self, op) -> dict:
        x, y = op
        return {"t": self.T, "x_spins": x.support, "y_spins": y.support}

    def check(self, op, output):
        x, y = op
        p = self.params
        d = suq2.dual
        z, s_z, star_z, sigma_z = output
        laws = {
            "S(xy) = S(y) S(x)": (s_z, d.dual_mul(p, d.dual_antipode(p, y), d.dual_antipode(p, x))),
            "(xy)* = y* x*": (star_z, d.dual_mul(p, d.dual_star(p, y), d.dual_star(p, x))),
            "sigma(xy) = sigma(x) sigma(y)": (
                sigma_z, d.dual_mul(p, d.dual_modular(p, x), d.dual_modular(p, y))
            ),
        }
        for law, (lhs, rhs) in laws.items():
            rel = (lhs - rhs).norm() / max(lhs.norm(), rhs.norm(), np.finfo(float).tiny)
            self.note_ratio("dual", rel / self.REL_TOL)
            if not rel <= self.REL_TOL:
                return {"kind": "residual", "detail": law, "value": float(rel), "tolerance": self.REL_TOL}
        return None


def random_complex(rng, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_dual(rng, two_ns) -> DualElement:
    return DualElement({k: random_complex(rng, k + 1) for k in two_ns})


WORKLOADS = {w.name: w for w in (VerifyCli, CgLargeSpin, DualAlgebra)}

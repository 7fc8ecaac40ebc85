"""Span tracer that wraps suq2's public functions from outside the package.

Modules inside suq2 import each other's functions by name
(``from .clebsch import decompose``), so wrapping a function means
rebinding that name in every ``suq2.*`` module that holds it.  ``Tracer``
does that on ``__enter__`` and puts every original back on ``__exit__``;
it can be entered several times and keeps its spans across entries.

While ``active`` is true, each call records one span: function, start
and end (ns), parent span, op id, and flags (raised, missed its
``lru_cache``).  Spans stay in memory until ``save`` writes them out;
``summary`` turns them into per-function counts, self times and inclusive
times.  Self time is a span's duration minus the time its child spans
cover.
"""

import sys
import time
from array import array

import numpy as np

FAILED = 1
MISS = 2


def suq2_modules() -> list:
    """Every loaded module of the suq2 package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "suq2" or name.startswith("suq2.")
    ]


class Tracer:
    """Wraps ``targets``, a list of (module name, function name) pairs.

    ``notes`` maps a span name (``"clebsch.decompose"``) to a function of
    the call's positional arguments whose integer result is stored with
    the span; ``sizes`` maps a span name to a function of the returned
    value whose integer result is summed per name for calls that missed
    their cache.
    """

    def __init__(self, targets, notes=None, sizes=None):
        self.targets = list(targets)
        self.notes = dict(notes or {})
        self.sizes = dict(sizes or {})
        self.names = []
        self.op_id = -1
        self.active = False
        self.out_bytes = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._flags = array("i")
        self._note = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patched = []

    def __enter__(self):
        modules = suq2_modules()
        for module_name, func_name in self.targets:
            original = getattr(sys.modules[module_name], func_name)
            span_name = module_name.rsplit(".", 1)[-1] + "." + func_name
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, span_name, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        name_idx = self.names.index(span_name)
        cache_info = getattr(fn, "cache_info", None)
        note = self.notes.get(span_name)
        size = self.sizes.get(span_name)
        names, parents, ops = self._name, self._parent, self._op
        flags, notes, starts, ends = self._flags, self._note, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_idx)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            flags.append(0)
            notes.append(note(args) if note is not None else -1)
            ends.append(0)
            stack.append(idx)
            misses = cache_info().misses if cache_info is not None else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[idx] |= FAILED
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if cache_info is not None and cache_info().misses != misses:
                    flags[idx] |= MISS
            if size is not None and flags[idx] & MISS:
                tracer.out_bytes[span_name] = tracer.out_bytes.get(span_name, 0) + size(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._start)

    def arrays(self) -> dict:
        """The spans as numpy arrays, one entry per field."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "flags": np.frombuffer(self._flags, dtype=np.int32).copy(),
            "note": np.frombuffer(self._note, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, failed, misses, self_s, total_s, and the
        durations (s) and notes of the calls that missed their cache."""
        spans = self.arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(float) * 1e-9
        has_parent = spans["parent"] >= 0
        child = np.bincount(
            spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out = {}
        for idx, span_name in enumerate(self.names):
            mine = spans["name"] == idx
            missed = mine & ((spans["flags"] & MISS) != 0)
            out[span_name] = {
                "calls": int(np.count_nonzero(mine)),
                "failed": int(np.count_nonzero(mine & ((spans["flags"] & FAILED) != 0))),
                "misses": int(np.count_nonzero(missed)),
                "self_s": float(np.sum(self_time[mine])),
                "total_s": float(np.sum(dur[mine])),
                "miss_durations_s": dur[missed],
                "miss_notes": spans["note"][missed],
            }
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` as a compressed ``.npz`` archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

"""Section timing and the span tracer of the traced benchmark run.

``Clock`` times the benchmark's own sections (a stage forward, a training
job, a model save) in every run. ``Tracer`` is installed only in the traced
run: it replaces public functions of the bitbranch modules by module
attribute, so every call that goes through the module, including calls
between bitbranch modules, opens a span. A span is (name, start, end,
parent); spans live in flat in-memory arrays until the run ends.

Calls made from ``encoded_gemm``'s worker threads start with an empty
thread stack; their parent is the innermost span open on the main thread,
which is the ``encoded_gemm`` call waiting for them.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

BENCH_PREFIX = "bench."


class Clock:
    """Per-iteration section times in nanoseconds, optionally mirrored as spans."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._current: dict[str, int] = defaultdict(int)

    @contextmanager
    def section(self, name: str):
        idx = self.tracer.open(BENCH_PREFIX + name) if self.tracer else -1
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._current[name] += time.perf_counter_ns() - t0
            if idx >= 0:
                self.tracer.close(idx)

    def end_iteration(self, ok: bool) -> None:
        """Keep the iteration's section totals; a failed iteration keeps none."""
        if ok:
            for name, ns in self._current.items():
                self.samples[name].append(ns)
        self._current.clear()

    def ms(self, name: str) -> np.ndarray:
        return np.asarray(self.samples.get(name, []), dtype=np.float64) / 1e6


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.span_counts: list[tuple[int, dict]] = []  # (span, {count name: value})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, module, attr: str, counter=None) -> None:
        """Trace ``module.attr``; ``counter(args)`` returns the call's counts."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.span_counts.append((idx, counter(*args, **kwargs)))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def duration_ns(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def save(self, path: str) -> None:
        """Write every span out: name table plus (name, start, end, parent) arrays."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            start=np.array(self.start), end=np.array(self.end),
                            parent=np.array(self.parent))

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the union of its children's intervals."""
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent)
        own = (end - start).astype(np.int64)
        kids = np.nonzero(parent >= 0)[0]
        order = kids[np.lexsort((start[kids], parent[kids]))]
        covered = defaultdict(int)
        run_parent, run_lo, run_hi = -1, 0, 0
        for k in order.tolist():
            p, s, e = int(parent[k]), int(start[k]), int(end[k])
            if p != run_parent or s > run_hi:
                if run_parent >= 0:
                    covered[run_parent] += run_hi - run_lo
                run_parent, run_lo, run_hi = p, s, e
            else:
                run_hi = max(run_hi, e)
        if run_parent >= 0:
            covered[run_parent] += run_hi - run_lo
        for p, ns in covered.items():
            own[p] -= ns
        return own

    def summarize(self, op: str, iterations: int) -> dict:
        """Per-layer self ms, calls and counts per iteration, over timed sections.

        Spans outside every bench section (correctness checks) are left out.
        Count keys that are tuples also collect the spans' inclusive ns.
        ``attributed_frac`` is the share of the op sections' time spent in
        library spans rather than in the benchmark's own code.
        """
        own = self.self_times()
        nid = list(self.name_id)
        parent = list(self.parent)
        bench_ids = {i for i, name in enumerate(self.names) if name.startswith(BENCH_PREFIX)}
        op_id = self._name_ids.get(BENCH_PREFIX + op, -1)
        in_section = [False] * len(nid)
        in_op = [False] * len(nid)
        for i, (name_i, p) in enumerate(zip(nid, parent)):  # parents precede children
            in_section[i] = name_i in bench_ids or (p >= 0 and in_section[p])
            in_op[i] = name_i == op_id or (p >= 0 and in_op[p])
        ms_total = defaultdict(float)
        calls = defaultdict(int)
        op_ns = bench_in_op_ns = 0
        for i, name_i in enumerate(nid):
            if name_i == op_id:
                op_ns += self.duration_ns(i)
            if name_i in bench_ids:
                if in_op[i]:
                    bench_in_op_ns += int(own[i])
            elif in_section[i]:
                ms_total[self.names[name_i]] += own[i] / 1e6
                calls[self.names[name_i]] += 1
        counts = defaultdict(float)
        inclusive_ns = defaultdict(int)
        for i, span_counts in self.span_counts:
            if in_section[i]:
                for key, value in span_counts.items():
                    counts[key] += value
                    if isinstance(key, tuple):
                        inclusive_ns[key] += self.duration_ns(i)
        per = max(iterations, 1)
        return {
            "ms": {k: v / per for k, v in ms_total.items()},
            "calls": {k: v / per for k, v in calls.items()},
            "counts": {k: v / per for k, v in counts.items() if not isinstance(k, tuple)},
            "shapes": {k: (counts[k], inclusive_ns[k]) for k in inclusive_ns},
            "attributed_frac": 1.0 - bench_in_op_ns / op_ns if op_ns else 0.0,
        }

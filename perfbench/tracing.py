"""Spans around the package's entry points, installed from outside the package.

``Tracer()`` finds each entry point wherever the package binds it: in its
defining module, in every ``cubicphase`` module that imported it by name, or
on its class for methods.  An entry point the package no longer has is
reported as absent.  ``with tracer.op(index):`` installs timing wrappers in
all those places for one operation and puts the originals back afterwards.

Span times are the thread's CPU time, like the operation times in run.py.
A span's self time is its duration minus the durations of its direct child
spans.  A few entry points also feed counters, read from their return values
or arguments, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

ENTRY_POINTS = {
    "cli": ("main", "parse_config", "_write_csv"),
    "protocol": ("full_gate", "rus_factor", "couple_resource", "_apply_qnd_compensated",
                 "_attempt_kernel"),
    "hilbert": ("dominant_pure_component", "fidelity", "apply", "coherent"),
    "gaussian": ("DisplacementFactory.__init__", "DisplacementFactory.gates_batch",
                 "squeeze_gate", "beamsplitter_gate"),
    "cubic": ("u_n_operator", "ideal_cubic_gate", "monomial_identity_report",
              "polynomial_identity_report"),
    "analysis": ("variance_sweep", "error_operator_stats"),
    "schemes": ("marek_gate", "marek_resource_state", "_apply_qnd_prime", "_feed_forward"),
}

# lru_cache'd functions in protocol whose hit ratio the traced run reports
CACHES = {
    "qnd_gates": "_qnd_gates",
    "beamsplitter": "_beamsplitter",
    "displacement_matrix": "_displacement_matrix",
    "x_eigh": "_x_eigh",
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in ENTRY_POINTS.items() for fn in fns)
COUNTERS = ("factors", "attempts", "heralded", "factor_failures", "csv_bytes", "error_events")


def cache_counts() -> dict:
    """(hits, misses) so far of each protocol cache that still exists."""
    protocol = importlib.import_module("cubicphase.protocol")
    counts = {}
    for key, attr in CACHES.items():
        info = getattr(getattr(protocol, attr, None), "cache_info", None)
        if info is not None:
            counts[key] = info()[:2]
    return counts


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = 0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start_ns, end_ns)
        self.absent: list[str] = []
        self.observer_errors: set[str] = set()  # counters whose inputs changed shape
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._stack: list[list] = []  # open spans: [span id, child ns]
        self._op = None
        for layer, fns in ENTRY_POINTS.items():
            module = importlib.import_module(f"cubicphase.{layer}")
            for fn in fns:
                self._find(module, f"{layer}.{fn}", fn)

    def _find(self, module, name: str, fn: str) -> None:
        if "." in fn:
            cls_name, meth = fn.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.absent.append(name)
                return
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original, self._wrap(name, original)))
            return
        original = getattr(module, fn, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cubicphase" or mod_name.startswith("cubicphase.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    @contextmanager
    def op(self, index: int):
        """Trace one operation: wrappers are in place only inside this block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = index
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        observe = _OBSERVERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.thread_time_ns

        def close(span_id, parent, frame, start):
            end = clock()
            stack.pop()
            dur = end - start
            stat.calls += 1
            stat.total_ns += dur
            stat.self_ns += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            spans[span_id] = (self._op, span_id, parent, name, start, end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled on exit
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(span_id, parent, frame, start)
                if observe is not None:
                    self._observe(name, observe, args, None, exc)
                raise
            close(span_id, parent, frame, start)
            if observe is not None:
                self._observe(name, observe, args, result, None)
            return result

        return wrapper

    def _observe(self, name, observe, args, result, exc) -> None:
        # a counter must not fail the operation it watches; a later commit may
        # change the arguments or return value it reads
        try:
            observe(self.counters, args, result, exc)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            self.observer_errors.add(name)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


# -- counters fed by entry points ---------------------------------------------


def _observe_rus_factor(counters, args, result, exc):
    record = result[1] if exc is None else getattr(exc, "record", None)
    if record is None:
        return
    counters["factors"] += 1
    counters["attempts"] += record.attempts
    counters["heralded"] += bool(record.success)
    counters["factor_failures"] += exc is not None


def _observe_write_csv(counters, args, result, exc):
    if exc is None:
        counters["csv_bytes"] += os.path.getsize(args[0])


def _observe_error_stats(counters, args, result, exc):
    if exc is None:
        spec = args[0]
        counters["error_events"] += sum(
            3 ** (3 * int(spec.n)) if row.method == "enumerate" else spec.mc_samples
            for row in result
        )


_OBSERVERS = {
    "protocol.rus_factor": _observe_rus_factor,
    "cli._write_csv": _observe_write_csv,
    "analysis.error_operator_stats": _observe_error_stats,
}

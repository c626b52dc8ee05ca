"""Span tracing of alloylab's public functions, patched in from outside.

``Tracer.install()`` replaces every public function of the traced modules
(``__all__``, plus the extras and methods listed below) with a wrapper that
records one span per call: name, start, end, parent span and job id.  A
function imported by name into other modules (``from .rng import
trial_stream``) is replaced in every namespace that bound it, and methods are
replaced on their class.  ``uninstall()`` puts every original back.

Spans made on a worker thread of a ``ThreadPoolExecutor`` take the span that
submitted the work as their parent, so ``run_trials`` owns the trials it
dispatches.  A span's self time is its duration minus the union of its
children's intervals, so two concurrent children are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MODULES = ("rng", "model", "moments", "green", "spectra", "averaging", "poscomb", "gaussian", "cli")

# public names outside ``__all__`` that the layer metrics need
EXTRA_FUNCTIONS = {"model": ("adjacency_matrix",)}
METHODS = {
    "model": {"DisorderDensity": ("pdf", "cdf", "quantile", "sample")},
    "moments": {"DisorderSampler": ("__init__", "omega", "hamiltonian", "green_column")},
    "cli": {"Output": ("write",)},
}

_current = contextvars.ContextVar("alloylab_span", default=(None, None))  # (span id, job id)


def _module(short: str):
    # ``import alloylab.green`` would give the function ``green`` that the
    # package re-exports, so modules are taken from sys.modules
    return sys.modules["alloylab." + short]


def _public_functions(short: str) -> list:
    mod = _module(short)
    names = getattr(mod, "__all__", None)
    if names is None:  # cli declares no __all__: every non-underscore function
        names = [n for n in vars(mod) if not n.startswith("_")]
    names = list(names) + list(EXTRA_FUNCTIONS.get(short, ()))
    out = []
    for name in names:
        fn = getattr(mod, name)
        if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
            out.append((name, fn))
    return out


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "alloylab" or n.startswith("alloylab."))]


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _output_bytes(output) -> int:
    if not output.base:
        return 0
    return sum(os.path.getsize(output.base + ext) for ext in (".csv", "_summary.csv"))


# per-call counters: span name -> fn(args, result) -> {counter: increment}
COUNTERS = {
    "model.DisorderDensity.sample": lambda a, r: {"draws": np.size(r)},
    "model.DisorderDensity.cdf": lambda a, r: {"evals": np.size(a[1])},
    # dense complex LU (8/3 n^3) plus two triangular solves (8 n^2), in real flops
    "moments.DisorderSampler.green_column": lambda a, r: {"flops": 8 * len(r) ** 3 / 3 + 8 * len(r) ** 2},
    "moments.run_trials": lambda a, r: {"trials": len(r)},
    "gaussian.negexample_check": lambda a, r: {"accepted": r["accepted"], "proposals": r["attempts"] // 2},
    "cli.Output.write": lambda a, r: {"bytes": _output_bytes(a[0])},
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, job id, name, start, end)
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, job = _current.get()
            sid = next(ids)
            token = _current.set((sid, job))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                spans.append((sid, parent, job, name, start, end))
            if counter is not None:
                self._count(name, counter(args, result))
            return result

        return traced

    def _count(self, name: str, increments: dict):
        with self._lock:
            for key, inc in increments.items():
                self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + inc

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        replace = {ThreadPoolExecutor: _ContextPool}
        for short in MODULES:
            for fname, fn in _public_functions(short):
                replace.setdefault(fn, self._wrap(f"{short}.{fname}", fn))
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                try:
                    new = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    self._restore.append((ns, key, value))
                    setattr(ns, key, new)
        for short, classes in METHODS.items():
            for cname, methods in classes.items():
                cls = getattr(_module(short), cname)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{short}.{cname}.{meth}", orig))

    def uninstall(self):
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- jobs -----------------------------------------------------------------

    @contextlib.contextmanager
    def job(self, job_id, name: str):
        """A root span named ``job.<name>`` that every span of the job descends from."""
        sid = next(self._ids)
        token = _current.set((sid, job_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append((sid, None, job_id, "job." + name, start, end))


# ---------------------------------------------------------------------------
# span aggregation


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (summed durations) and self_s."""
    children: dict = {}
    for sid, parent, _job, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, dict[str, float]] = {}
    for sid, _parent, _job, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - union_length(children.get(sid, ()), start, end)
    return table


def count_descendants(spans, name: str, ancestor_prefix: str) -> int:
    """Number of spans called ``name`` with an ancestor whose name has the prefix."""
    by_id = {s[0]: s for s in spans}
    found = 0
    for span in spans:
        if span[3] != name:
            continue
        parent = span[1]
        while parent is not None:
            anc = by_id[parent]
            if anc[3].startswith(ancestor_prefix):
                found += 1
                break
            parent = anc[1]
    return found

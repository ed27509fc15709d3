"""Spans recorded around calls into qglab's layers, from outside the program.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent). A function is wrapped where it is
looked up: every attribute of a qglab module (or of the owning module or
class) that is bound to the original function object is replaced by the
wrapper, so calls between modules are seen as well as the benchmark's own.
``Recorder.remove`` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Calls are sequential, so the children of one span never overlap
and the self times of all spans partition the time of the outermost ones.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Layers are the modules of the package; cli and checks are front ends that
# no workload calls.
LAYERS = ("config", "spectral", "operators", "pe_solver", "qg_solver",
          "diagnostics", "initial_data", "sweep")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    counts: dict = field(default_factory=dict)
    result: object = None  # kept only for names in Recorder.keep

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions until ``remove`` is called."""

    def __init__(self, keep=()):
        self.spans = []
        self.keep = set(keep)
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []

    def take_results(self, name):
        """Results kept for spans called ``name``, released from the spans."""
        out = []
        for s in self.spans:
            if s.name == name:
                out.append(s.result)
                s.result = None
        return out

    def wrap(self, name, fn, counter=None):
        """A wrapper that records one span per call of ``fn``.

        ``counter(counts, args, kwargs, result)`` adds exact counts to the
        span after the call returns.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if counter is not None:
                counter(span.counts, args, kwargs, result)
            if name in rec.keep:
                span.result = result
            return result

        return wrapper

    def wrap_counter(self, fn, counter):
        """A wrapper that opens no span and adds counts to the open one."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec._stack:
                counter(rec.spans[rec._stack[-1]].counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper_of):
        """Replace ``owner.attr`` wherever qglab binds it; False if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = wrapper_of(original)
        places = [owner] + [m for name, m in sorted(sys.modules.items())
                            if name == "qglab" or name.startswith("qglab.")]
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapper)
                    self._patches.append((place, key, original))
        return True

    def patch_span(self, owner, attr, name, counter=None):
        return self.patch(owner, attr, lambda fn: self.wrap(name, fn, counter))

    def remove(self):
        while self._patches:
            place, key, original = self._patches.pop()
            setattr(place, key, original)


def layer_functions(qglab):
    """(module, attribute, span name) for every public layer function."""
    out = []
    for layer in LAYERS:
        module = getattr(qglab, layer)
        for attr, value in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                out.append((module, attr, f"{layer}.{attr}"))
    return out


# --- exact counts taken at the boundaries -----------------------------------

def _count_fft(counts, args, kwargs, result):
    # the program transforms the last three axes; leading axes are fields
    fields = result.size // int(np.prod(result.shape[-3:]))
    counts["fields"] = counts.get("fields", 0) + fields
    counts["bytes"] = counts.get("bytes", 0) + np.asarray(args[0]).nbytes + result.nbytes


def _count_expm(counts, args, kwargs, result):
    a = np.asarray(args[0])
    modes = a.shape[0] if a.ndim == 3 else 1
    # the full and the half step exponentials go through the fallback for
    # the same set of modes, so a build's fallback modes are the largest batch
    counts["fallback_modes"] = max(counts.get("fallback_modes", 0), modes)


def _count_arrays(counts, args, kwargs, result):
    counts["bytes"] = sum(v.nbytes for v in vars(result).values()
                          if isinstance(v, np.ndarray))


def _count_records(counts, args, kwargs, result):
    counts["records"] = len(result.series)


def _count_files(counts, args, kwargs, result):
    counts["bytes"] = sum(p.stat().st_size for p in result)


def install_trace(recorder, qglab):
    """Wrap every public layer function, the transforms, the expm fallback
    and the propagator apply."""
    import scipy.fft
    import scipy.linalg

    counters = {
        "pe_solver.build_propagator": _count_arrays,
        "pe_solver.pe_run": _count_records,
        "qg_solver.qg_run": _count_records,
        "sweep.export": _count_files,
    }
    for module, attr, name in layer_functions(qglab):
        recorder.patch_span(module, attr, name, counters.get(name))
    for attr in ("rfftn", "irfftn", "fftn", "ifftn"):
        recorder.patch_span(scipy.fft, attr, "spectral.fft", _count_fft)
    recorder.patch(scipy.linalg, "expm",
                   lambda fn: recorder.wrap_counter(fn, _count_expm))
    for attr in ("apply_full", "apply_half"):
        recorder.patch_span(qglab.pe_solver.LinearPropagator, attr,
                            "pe_solver.propagator_apply")


def install_probes(recorder, qglab):
    """The few boundaries the end-to-end metrics need, with tracing off."""
    for layer, attr in (("pe_solver", "build_propagator"),
                        ("initial_data", "make_well_prepared_data"),
                        ("pe_solver", "pe_run"),
                        ("qg_solver", "qg_run")):
        recorder.patch_span(getattr(qglab, layer), attr, f"{layer}.{attr}")


# --- reductions ---------------------------------------------------------------

def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def under(spans, name):
    """Flags: True where a span has an ancestor called ``name``."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            flags[i] = flags[s.parent] or spans[s.parent].name == name
    return flags


def layer_table(spans):
    """{name: {"calls", "total_s", "self_s", <summed counts>}}."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return table


def write_rounds(path, rounds):
    """Every round's spans ([name, start, end, parent], names given once)
    and its layer table, as JSON."""
    names = sorted({s.name for spans in rounds for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"names": names, "fields": ["name", "start", "end", "parent"],
           "rounds": [[[index[s.name], s.start, s.end, s.parent] for s in spans]
                      for spans in rounds],
           "layers": [layer_table(spans) for spans in rounds]}
    path.write_text(json.dumps(doc), encoding="utf-8")

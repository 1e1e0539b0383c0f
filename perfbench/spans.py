"""Span recorder for the traced run, and the per-layer metrics built from it.

Spans are recorded from the benchmark's side only: ``Tracer.install`` swaps
every public module-level function of the seven risbeam modules for a
wrapper, at every module attribute the function is reachable by (for
example ``harmonic_field`` is also bound in ``steering`` and ``compare``,
and ``fourier_coefficient`` in ``farfield``).  Calls the library makes to
those names therefore record spans too.  Methods and private helpers are not
wrapped; their time counts as self time of the calling function.

A span is (name, start, end, parent, op).  Each op of the workload opens a
root span, so spans of one op share its index.  Spans stay in memory, in
flat arrays, until the run writes them out.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

MODULES = ("circuit", "modulation", "farfield", "steering", "schedule", "compare", "cli")
OP_SPAN = "op"

# Layer metric -> span names whose self time it sums.
SELF_MS = {
    "farfield.harmonic_field.self_ms": ("farfield.harmonic_field",),
    "farfield.pattern_sweep.self_ms": ("farfield.pattern_sweep",),
    "farfield.export.self_ms": ("farfield.pattern_csv", "farfield.pattern_doc"),
    "steering.search.self_ms": ("steering.optimize_profile_search",),
    "schedule.build.self_ms": ("schedule.build_switch_schedule",),
    "schedule.tick_table.self_ms": ("schedule.tick_table", "schedule.tick_table_text"),
    "compare.synthesize.self_ms": ("compare.synthesize_measured_sweep",),
    "compare.format.self_ms": ("compare.format_measured_sweep",),
    "compare.parse.self_ms": ("compare.parse_measured_sweep",),
    "compare.compare_sweep.self_ms": ("compare.compare_sweep",),
}
CALLS = {
    "modulation.fourier_coefficient.calls": "modulation.fourier_coefficient",
    "farfield.harmonic_field.calls": "farfield.harmonic_field",
    "steering.search.calls": "steering.optimize_profile_search",
}
# Counters filled by the call hooks below.
COUNTERS = (
    "farfield.element_angles",
    "steering.search.passes",
    "steering.search.converged",
    "steering.search.gain_sum",
    "schedule.channels",
    "compare.parse.bytes",
    "compare.matches",
    "compare.comparisons",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list = []
        self.active = False
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one op; a no-op while the tracer is inactive."""
        if not self.active:
            yield
            return
        idx = self._open(self._id(OP_SPAN))
        self._op = idx
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns())
            self._op = -1

    @contextlib.contextmanager
    def paused(self):
        """Make library calls (such as output checks) without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, span: str):
        name_id = self._id(span)
        hook = HOOKS.get(span)
        perf_ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_ns())
            if hook is not None:
                with self.paused():
                    hook(self.counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every public function of the seven modules wherever it is bound."""
        package = importlib.import_module("risbeam")
        mods = [importlib.import_module(f"risbeam.{m}") for m in MODULES]
        namespaces = [package, *mods]
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()
        self.active = False

    def aggregate(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.int32) if self.name else np.zeros(0, np.int32)
        n = names.size
        start = np.frombuffer(self.start, dtype=np.int64) if n else np.zeros(0, np.int64)
        end = np.frombuffer(self.end, dtype=np.int64) if n else np.zeros(0, np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - covered
        k = len(self.names)
        self_by_name = np.bincount(names, weights=self_ns, minlength=k)
        calls_by_name = np.bincount(names, minlength=k)

        def self_ms(span_names):
            return sum(
                float(self_by_name[self._ids[s]]) for s in span_names if s in self._ids
            ) / 1e6

        def calls(span: str) -> int:
            return int(calls_by_name[self._ids[span]]) if span in self._ids else 0

        out = {}
        for mod in MODULES:
            spans = [s for s in self.names if s.split(".", 1)[0] == mod]
            out[f"{mod}.calls"] = sum(calls(s) for s in spans)
            out[f"{mod}.self_ms"] = self_ms(spans)
        for metric, spans in SELF_MS.items():
            out[metric] = self_ms(spans)
        for metric, span in CALLS.items():
            out[metric] = calls(span)
        c = self.counters
        out["farfield.element_angles"] = c["farfield.element_angles"]
        # computed, not measured traffic: one complex128 per element-angle
        out["farfield.kernel_bytes_computed"] = 16 * c["farfield.element_angles"]
        searches = out["steering.search.calls"]
        out["steering.search.passes"] = c["steering.search.passes"]
        evals = 0
        if "steering.optimize_profile_search" in self._ids and n:
            search_id = self._ids["steering.optimize_profile_search"]
            field_id = self._ids.get("farfield.harmonic_field", -1)
            parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
            evals = int(np.count_nonzero((names == field_id) & (parent_name == search_id)))
        out["steering.search.objective_evals"] = evals
        # ratios over no searches or comparisons read 0
        out["steering.search.converged_frac"] = (
            c["steering.search.converged"] / searches if searches else 0.0
        )
        out["steering.search.gain_over_closed_form"] = (
            c["steering.search.gain_sum"] / searches if searches else 0.0
        )
        out["schedule.channels"] = c["schedule.channels"]
        out["compare.parse.bytes"] = c["compare.parse.bytes"]
        out["compare.matches_frac"] = (
            c["compare.matches"] / c["compare.comparisons"] if c["compare.comparisons"] else 0.0
        )
        out["trace.spans"] = n
        return out

    def dump(self, path):
        """Write the recorded spans as a numpy archive (times in ns)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
        )


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _field_hook(c, args, kwargs, result):
    import numpy as np

    geometry = _arg(args, kwargs, 0, "geometry")
    c["farfield.element_angles"] += geometry.element_count * int(np.size(result))


def _search_hook(c, args, kwargs, result):
    from workloads import closed_form_start

    req = _arg(args, kwargs, 0, "req")
    c["steering.search.passes"] += result.passes
    c["steering.search.converged"] += int(result.converged)
    start = closed_form_start(
        req,
        _arg(args, kwargs, 1, "waveform_template"),
        _arg(args, kwargs, 2, "element_model"),
        kwargs.get("pinned_index", args[3] if len(args) > 3 else 0),
    )
    c["steering.search.gain_sum"] += result.achieved / start


def _schedule_hook(c, args, kwargs, result):
    c["schedule.channels"] += len(result.channels)


def _parse_hook(c, args, kwargs, result):
    c["compare.parse.bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _compare_hook(c, args, kwargs, result):
    c["compare.matches"] += result.matches
    c["compare.comparisons"] += len(result.harmonics)


HOOKS = {
    "farfield.harmonic_field": _field_hook,
    "steering.optimize_profile_search": _search_hook,
    "schedule.build_switch_schedule": _schedule_hook,
    "compare.parse_measured_sweep": _parse_hook,
    "compare.compare_sweep": _compare_hook,
}

"""Spans and counts for the traced benchmark passes, taken from outside gasketlab.

The tracer replaces public gasketlab attributes with wrappers and puts the
originals back in ``restore``; nothing under ``src/`` knows about it.  Two
instrumentations exist and each runs in a pass of its own:

* ``instrument_layers`` records one span per call of the layer entry points
  (build, assembly, solve, inertia count, eigensolve, carpet stages);
* ``instrument_hot_loops`` counts and times the per-circle functions that
  run up to millions of times, whose wrappers would distort span times.

``layer_metrics`` turns the spans and counts of both passes into the
per-layer metrics listed in BENCHMARK.json.  Importing this module imports
no gasketlab or numpy code, so the parent process of the benchmark can use
``layer_metrics`` without paying for them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class _ModuleView:
    """A module with some attributes overridden; everything else delegates."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans and counters, plus the list of attributes it replaced."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, wrapper) -> None:
        """Rebind every gasketlab module name that refers to ``original``."""
        from gasketlab import carpet, forms, gasket, geom, spectra

        hits = [
            (mod, attr)
            for mod in (geom, gasket, forms, spectra, carpet)
            for attr, value in vars(mod).items()
            if value is original
        ]
        if not hits:
            raise LookupError(f"{original.__qualname__} is bound in no gasketlab module")
        for mod, attr in hits:
            self.replace(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spanned(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "trace": self.trace_id,
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that calls and time inside it add up under ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.counts[name] += 1

        return wrapper


def _add(key, size):
    def hook(counts, args, kwargs, result):
        counts[key] += size(args, kwargs, result)

    return hook


def _eigsh_k(args, kwargs, result):
    return int(kwargs["k"] if "k" in kwargs else args[1] if len(args) > 1 else 6)


def _sliced_kept(args, kwargs, result):
    return len(result) if result.meta.get("method") != "dense" else 0


def instrument_layers(tr: Tracer) -> None:
    """One span per call of every layer entry point the workloads reach."""
    from gasketlab import carpet, forms, gasket, spectra

    def span(name, fn, on_result=None):
        tr.replace_function(fn, tr.spanned(name, fn, on_result))

    span("gasket.build_complex", gasket.build_complex,
         _add("gasket.build_complex.vertices", lambda a, k, r: len(r.points)))
    span("gasket.count_profile", gasket.count_profile,
         _add("gasket.count_profile.nodes", lambda a, k, r: r[-1][1]))
    edges = _add("forms.edges", lambda a, k, r: len(r.edges))
    span("forms.assemble_trace_form", forms.assemble_trace_form, edges)
    span("forms.assemble_mass_trace", forms.assemble_mass_trace)
    span("forms.assemble_arc_fem", forms.assemble_arc_fem, edges)
    for cls in (forms.TraceForm, forms.ArcNetwork):
        tr.replace(cls, "stiffness", tr.spanned("forms.stiffness", cls.stiffness))
        tr.replace(cls, "energy", tr.spanned("forms.energy", cls.energy))
    span("spectra.solve", spectra.solve, _add("spectra.slice_kept", _sliced_kept))
    span("spectra.count_below", spectra.count_below)
    tr.replace(spectra, "spla", _ModuleView(spectra.spla, eigsh=tr.spanned(
        "spectra.eigsh", spectra.spla.eigsh, _add("spectra.eigsh.k_requested", _eigsh_k))))
    tr.replace(spectra, "sla", _ModuleView(spectra.sla, eigh=tr.spanned(
        "spectra.eigh", spectra.sla.eigh)))
    span("carpet.enumerate_circles", carpet.enumerate_circles,
         _add("carpet.enumerate_circles.circles", lambda a, k, r: len(r)))
    span("carpet.separation_stats", carpet.separation_stats,
         _add("carpet.separation_stats.pairs", lambda a, k, r: r[1]))
    span("carpet.harmonicity_residual", carpet.harmonicity_residual)


def instrument_hot_loops(tr: Tracer) -> None:
    """Count inscribed-disk constructions and carpet map images."""
    from gasketlab import carpet, gasket

    tr.replace(gasket, "inscribed_disk", tr.counted("geom.inscribed_disk", gasket.inscribed_disk))
    for name in ("reflect_circle_in_line", "invert_circle_in_circle"):
        tr.replace(carpet, name, tr.counted("carpet.images_tried", getattr(carpet, name)))


def _span_times(spans):
    """Per name: total seconds (nested same-name spans once), calls, self seconds."""
    by_id = {s["id"]: s for s in spans}
    total, inner, calls = defaultdict(float), defaultdict(float), Counter()
    for s in spans:
        d = s["end"] - s["start"]
        calls[s["name"]] += 1
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != s["name"]:
            total[s["name"]] += d
        if parent is not None:
            inner[parent["name"]] += d
    self_s = {name: total[name] - inner[name] for name in total}
    return total, calls, self_s


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, hot_counts, hot_seconds) -> dict:
    """Per-layer metrics from the traced pass and the hot-loop counting pass.

    A layer the workload never reaches reads 0, and so does a ratio whose
    base is 0 (``spectra.slice_yield`` without any sliced solve).
    """
    total, calls, self_s = _span_times(spans)
    counts, hot_counts = Counter(counts), Counter(hot_counts)
    return {
        "geom.inscribed_disk.calls": hot_counts["geom.inscribed_disk"],
        "geom.inscribed_disk.s": hot_seconds.get("geom.inscribed_disk", 0.0),
        "gasket.build_complex.s": total["gasket.build_complex"],
        "gasket.build_complex.vertices": counts["gasket.build_complex.vertices"],
        "gasket.count_profile.s": total["gasket.count_profile"],
        "gasket.count_profile.nodes": counts["gasket.count_profile.nodes"],
        "forms.assemble_trace_form.s": total["forms.assemble_trace_form"],
        "forms.assemble_mass_trace.s": total["forms.assemble_mass_trace"],
        "forms.assemble_arc_fem.s": total["forms.assemble_arc_fem"],
        "forms.stiffness.s": total["forms.stiffness"],
        "forms.energy.s": total["forms.energy"],
        "forms.edges": counts["forms.edges"],
        "spectra.solve.s": total["spectra.solve"],
        "spectra.solve.self_s": self_s.get("spectra.solve", 0.0),
        "spectra.count_below.s": total["spectra.count_below"],
        "spectra.count_below.calls": calls["spectra.count_below"],
        "spectra.eigsh.s": total["spectra.eigsh"],
        "spectra.eigsh.calls": calls["spectra.eigsh"],
        "spectra.eigsh.k_requested": counts["spectra.eigsh.k_requested"],
        "spectra.slice_yield": _ratio(counts["spectra.slice_kept"],
                                      counts["spectra.eigsh.k_requested"]),
        "spectra.eigh.s": total["spectra.eigh"],
        "carpet.enumerate_circles.s": total["carpet.enumerate_circles"],
        "carpet.enumerate_circles.circles": counts["carpet.enumerate_circles.circles"],
        "carpet.images_tried": hot_counts["carpet.images_tried"],
        "carpet.enumerate.yield": _ratio(counts["carpet.enumerate_circles.circles"],
                                         hot_counts["carpet.images_tried"]),
        "carpet.separation_stats.s": total["carpet.separation_stats"],
        "carpet.separation_stats.pairs": counts["carpet.separation_stats.pairs"],
        "carpet.harmonicity_residual.s": total["carpet.harmonicity_residual"],
    }

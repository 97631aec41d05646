"""Spans and counts at the program's layer boundaries, recorded from outside.

The tracer replaces module attributes and class methods of rootspiral
with wrappers while it is installed, and restores them on uninstall.
Functions that other modules import by value (`cli.discover`,
`discovery.rotation_of`, `render.square_number_arms`, ...) are replaced
under every name that refers to them. A wrapped call records a span
(name, start, end, parent, pass) in memory; the counted methods only
increment counters. `per_layer` turns one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

MB = float(1 << 20)

MODULES = (
    "rootspiral",
    "rootspiral.claims",
    "rootspiral.cli",
    "rootspiral.discovery",
    "rootspiral.quadratics",
    "rootspiral.render",
    "rootspiral.spiral",
)

#: Spanned functions: (module, attribute, span name).
SPANNED = (
    ("rootspiral.claims", "all_claims", "claims.all_claims"),
    ("rootspiral.quadratics", "rotation_of", "quadratics.rotation_of"),
    ("rootspiral.discovery", "discover", "discovery.discover"),
    ("rootspiral.discovery", "discover_arms", "discovery.discover_arms"),
    ("rootspiral.discovery", "enumerate_family_arms", "discovery.enumerate_family_arms"),
    ("rootspiral.discovery", "group_into_systems", "discovery.group_into_systems"),
    ("rootspiral.discovery", "system_spacing", "discovery.symmetry"),
    ("rootspiral.discovery", "point_symmetry_pairs", "discovery.symmetry"),
    ("rootspiral.discovery", "axis_symmetry", "discovery.symmetry"),
    ("rootspiral.discovery", "square_number_arms", "discovery.square_number_arms"),
    ("rootspiral.render", "render_svg", "render.render_svg"),
    ("rootspiral.render", "export_report", "render.export_report"),
    ("rootspiral.cli", "run", "cli.run"),
)

#: SpiralTable accessors that read one angle; counted, not spanned.
ANGLE_READS = ("angle", "point", "vertex", "winding_of", "reduced_angle")

#: Per-layer metric -> span name whose self time it sums within one pass.
SELF_TIME = {
    "spiral.build_s": "spiral.build",
    "spiral.csv_s": "spiral.write_csv",
    "quadratics.rotation_s": "quadratics.rotation_of",
    "discovery.enumerate_s": "discovery.enumerate_family_arms",
    "discovery.arms_s": "discovery.discover_arms",
    "discovery.group_s": "discovery.group_into_systems",
    "discovery.symmetry_s": "discovery.symmetry",
    "discovery.claims_s": "discovery.discover",
    "discovery.square_arms_s": "discovery.square_number_arms",
    "render.svg_s": "render.render_svg",
    "render.export_s": "render.export_report",
    "cli.write_s": "cli.run",
}
#: Per-layer metric -> counter it reads within one pass.
COUNTS = {
    "spiral.build_entries": "spiral.build_entries",
    "spiral.angle_reads": "spiral.angle_reads",
    "spiral.csv_rows": "spiral.csv_rows",
    "quadratics.eval_calls": "quadratics.eval_calls",
    "discovery.arms": "discovery.arms",
    "process.gc_collections": "process.gc_collections",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass]
        self.counts: list[Counter] = [Counter()]  # one Counter per pass; 0 is set-up
        self.peaks: list[dict[str, float]] = [{}]
        self.pass_index = 0
        self.measure_alloc = False
        self._stack: list[int] = []
        self._alloc_stack: list[list] = []
        self._enum_depth = 0
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- passes ------------------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        while len(self.counts) <= index:
            self.counts.append(Counter())
            self.peaks.append({})

    def span(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- allocation peaks (tracemalloc, only while measure_alloc is set) ------

    def _alloc_begin(self) -> None:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            self._alloc_stack[-1][1] = max(self._alloc_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._alloc_stack.append([current, 0, started])

    def _alloc_end(self, metric: str) -> None:
        base, child_peak, started = self._alloc_stack.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        if self._alloc_stack:
            self._alloc_stack[-1][1] = max(self._alloc_stack[-1][1], peak)
        if started:
            tracemalloc.stop()
        peaks = self.peaks[self.pass_index]
        peaks[metric] = max(peaks.get(metric, 0.0), (peak - base) / MB)

    def _with_alloc(self, metric: str, name: str, fn, *args, **kwargs):
        if not self.measure_alloc:
            return self.span(name, fn, *args, **kwargs)
        self._alloc_begin()
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self._alloc_end(metric)

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr: str, wrapped) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        from rootspiral import cli, quadratics, spiral

        tracer = self
        for module_name, attr, name in SPANNED:
            fn = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(fn, self._spanned(name, attr, fn))

        table_cls = spiral.SpiralTable
        init, ensure, write_csv = table_cls.__init__, table_cls.ensure, table_cls.write_csv

        def traced_init(table, n_max):
            tracer.counts[tracer.pass_index]["spiral.build_entries"] += n_max
            tracer._with_alloc("spiral.build_alloc_peak_mb", "spiral.build", init, table, n_max)

        def traced_ensure(table, n_max):
            if n_max <= table.n_max:
                return ensure(table, n_max)
            tracer.counts[tracer.pass_index]["spiral.build_entries"] += n_max - table.n_max
            return tracer._with_alloc("spiral.build_alloc_peak_mb", "spiral.build", ensure, table, n_max)

        def traced_write_csv(table, stream, n_max=None):
            tracer.counts[tracer.pass_index]["spiral.csv_rows"] += table.n_max if n_max is None else n_max
            return tracer.span("spiral.write_csv", write_csv, table, stream, n_max)

        self._replace_method(table_cls, "__init__", traced_init)
        self._replace_method(table_cls, "ensure", traced_ensure)
        self._replace_method(table_cls, "write_csv", traced_write_csv)
        for attr in ANGLE_READS:
            self._replace_method(table_cls, attr, self._angle_read(getattr(table_cls, attr)))

        evaluate = quadratics.HalfIntQuadratic.eval

        def counted_eval(q, x):
            tracer.counts[tracer.pass_index]["quadratics.eval_calls"] += 1
            return evaluate(q, x)

        self._replace_method(quadratics.HalfIntQuadratic, "eval", counted_eval)

        atomic_write = cli._atomic_write

        def counted_write(path, data):
            tracer.counts[tracer.pass_index]["cli.write_bytes"] += len(data)
            return atomic_write(path, data)

        self._replace_everywhere(atomic_write, counted_write)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _spanned(self, name: str, attr: str, fn):
        tracer = self

        if attr == "enumerate_family_arms":
            def wrapper(*args, **kwargs):
                tracer._enum_depth += 1
                try:
                    return tracer.span(name, fn, *args, **kwargs)
                finally:
                    tracer._enum_depth -= 1
        elif attr == "discover_arms":
            def wrapper(*args, **kwargs):
                arms = tracer.span(name, fn, *args, **kwargs)
                tracer.counts[tracer.pass_index]["discovery.arms"] += len(arms)
                return arms
        elif attr == "render_svg":
            def wrapper(*args, **kwargs):
                svg = tracer.span(name, fn, *args, **kwargs)
                tracer.counts[tracer.pass_index]["render.svg_bytes"] += len(svg)
                return svg
        elif attr == "run":
            def wrapper(argv=None):
                if argv and argv[0] == "spiral":
                    return tracer._with_alloc("spiral.csv_alloc_peak_mb", name, fn, argv)
                return tracer.span(name, fn, argv)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _angle_read(self, method):
        tracer = self

        def counted(table, n):
            counts = tracer.counts[tracer.pass_index]
            counts["spiral.angle_reads"] += 1
            if tracer._enum_depth:
                counts["discovery.enumerate_angle_reads"] += 1
            return method(table, n)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            counts = self.counts[self.pass_index]
            counts["process.gc_s"] += time.perf_counter() - self._gc_start
            counts["process.gc_collections"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self, pass_index: int) -> Counter:
        """Self time per span name within one pass."""
        out: Counter = Counter()
        for rec in self.spans:
            if rec[4] == pass_index:
                out[rec[0]] += rec[2] - rec[1]
                if rec[3] >= 0:
                    out[self.spans[rec[3]][0]] -= rec[2] - rec[1]
        return out

    def first_span(self, name: str) -> float:
        return next((rec[2] - rec[1] for rec in self.spans if rec[0] == name), 0.0)

    def per_layer(self, pass_index: int, cpu_s: float) -> dict[str, float]:
        """Per-layer metrics of one pass (the set-up is pass 0)."""
        selft = self.self_times(pass_index)
        counts = self.counts[pass_index]
        out = {metric: selft[name] for metric, name in SELF_TIME.items()}
        out.update({metric: float(counts[name]) for metric, name in COUNTS.items()})
        out["spiral.build_alloc_peak_mb"] = self.peaks[pass_index].get("spiral.build_alloc_peak_mb", 0.0)
        out["spiral.csv_alloc_peak_mb"] = self.peaks[pass_index].get("spiral.csv_alloc_peak_mb", 0.0)
        arms = counts["discovery.arms"]
        out["discovery.angle_reads_per_arm"] = counts["discovery.enumerate_angle_reads"] / arms if arms else 0.0
        out["render.svg_mb"] = counts["render.svg_bytes"] / MB
        out["cli.write_mb"] = counts["cli.write_bytes"] / MB
        out["process.gc_s"] = counts["process.gc_s"]
        out["process.cpu_s"] = cpu_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "pass": i} for n, s, e, p, i in self.spans],
            "counts": [dict(c) for c in self.counts],
            "alloc_peak_mb": self.peaks,
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")

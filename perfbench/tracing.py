"""Spans recorded from outside the program, around calls into its layers.

`instrument` swaps each traced public function for a wrapper in every loaded
`gridtrace` module that holds a reference to it, plus the `Path` the CLI
uses for its file I/O, and restores the originals on exit. A wrapper records
a span (name, start, end, parent span, op id), then the layer's counts and
the process's peak RSS right after the call. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, function) pairs traced as layers. window_types is left out: detect
# calls it internally, and the benchmark times it with one separate probe.
TRACED = (
    ("raster", "sniff_mask_format"),
    ("raster", "parse_mask"),
    ("transform", "parse_world_file"),
    ("trace", "detect"),
    ("rings", "form_rings"),
    ("rings", "assemble_polygons"),
    ("writers", "write_geojson"),
    ("writers", "write_wkt"),
)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.op = -1
        self.raster = None  # the last raster parsed, for the window_types probe
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def run_op(self, op: int, fn):
        """Run one op under a root span named bench.op."""
        self.op = op
        self.counts[op] = {}
        return self.call("bench.op", fn)

    def count(self, key: str, value: float) -> None:
        self.counts[self.op][key] = value

    def self_times(self, op: int) -> dict[str, float]:
        """Each span name's total self time within one op: its duration minus
        the part of it that its child spans cover."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child = {i: 0.0 for i, _ in spans}
        for _, s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for i, s in spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return totals

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _counting(tracer: Tracer, layer: str, name: str, args, result) -> None:
    """Record the counts of one layer call; runs after its span has closed."""
    if name == "parse_mask":
        tracer.count("raster.bytes_in", len(args[0]))
        tracer.raster = result
    elif name == "detect":
        tracer.count("trace.vertices", result.vertex_count)
        tracer.count("trace.entry_corners", len(result.corners))
    elif name == "form_rings":
        grid_rings = result[0]
        tracer.count("rings.rings", len(grid_rings))
        tracer.count("rings.longest_ring", max((len(r) - 1 for r in grid_rings), default=0))
    elif name == "assemble_polygons":
        tracer.count("rings.exteriors", len(result))
        tracer.count("rings.holes", sum(len(p.holes) for p in result))
    elif layer == "writers":
        tracer.count("writers.bytes_out", len(result))
    tracer.count(f"{layer}.{name}.peak_rss_mib", peak_rss_mib())


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    span = f"{layer}.{name}"

    def wrapper(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        _counting(tracer, layer, name, args, result)
        return result

    return wrapper


def _timed_path(tracer: Tracer):
    class TimedPath(type(Path())):
        """The CLI's Path, with whole-file reads and writes as cli.io spans.
        Every other Path method works as usual."""

        def read_bytes(self):
            return tracer.call("cli.io", super().read_bytes)

        def read_text(self, *args, **kwargs):
            return tracer.call("cli.io", super().read_text, *args, **kwargs)

        def write_bytes(self, *args, **kwargs):
            return tracer.call("cli.io", super().write_bytes, *args, **kwargs)

        def write_text(self, *args, **kwargs):
            return tracer.call("cli.io", super().write_text, *args, **kwargs)

    return TimedPath


@contextmanager
def instrument(tracer: Tracer):
    """Trace the layer functions of every loaded gridtrace module."""
    originals = {}
    for layer, name in TRACED:
        fn = getattr(sys.modules[f"gridtrace.{layer}"], name)
        originals[id(fn)] = (layer, name, fn)
    patched = []
    modules = [m for key, m in list(sys.modules.items()) if key == "gridtrace" or key.startswith("gridtrace.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][2] is value:
                layer, name, fn = originals[id(value)]
                patched.append((module, attr, value))
                setattr(module, attr, _wrap(tracer, layer, name, fn))
    cli = sys.modules.get("gridtrace.cli")
    if cli is not None and getattr(cli, "Path", None) is Path:
        patched.append((cli, "Path", Path))
        cli.Path = _timed_path(tracer)
    try:
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)

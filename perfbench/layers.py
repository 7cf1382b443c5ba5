"""Layer ledger: module-to-layer map, profile aggregation and spans.

The benchmark costs each layer of the simulator from outside the
program.  Two sources feed the ledger:

* a ``cProfile`` pass whose per-function self time and call counts are
  summed by the layer that owns each function's module
  (:data:`LAYER_MAP`);
* spans recorded by the benchmark's own wrappers around public entry
  points (:class:`SpanRecorder`), whose self time is the span's
  duration minus the durations of its child spans.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Module path relative to ``src/repro`` -> layer.  An entry ending in
# ``/`` covers a directory; any other entry names exactly one file.  The
# most specific entry wins.  Every module of the package must map to a
# layer (:func:`check_coverage`); only code outside the package lands in
# ``harness`` (this benchmark) or ``other`` (stdlib, builtins and
# third-party libraries).
LAYER_MAP: Dict[str, str] = {
    "sim/": "sim",
    "cell/smt.py": "cell.smt",
    "cell/": "cell",
    "cellsdk/": "cell",
    "platforms/": "cell",
    "core/": "runtime",
    "mpi/": "runtime",
    "faults/": "runtime",
    "core/llp.py": "llp",
    "core/llp_sim.py": "llp",
    "__init__.py": "runner",
    "__main__.py": "runner",
    "cli.py": "runner",
    "core/__init__.py": "runner",
    "core/runner.py": "runner",
    "core/cluster.py": "runner",
    "core/oracle.py": "runner",
    "workloads/": "workloads",
    "serve/": "service",
    "serve/fleet.py": "fleet",
    "serve/admission.py": "admission",
    "serve/dag.py": "dag",
    "serve/cache.py": "dag",
    "phylo/": "dag",
    "serve/bootstop.py": "bootstop",
    "obs/": "obs",
    "analysis/": "obs",
}

# Layers in ledger order; ``harness`` and ``other`` close the partition.
LAYERS: Tuple[str, ...] = (
    "sim", "cell.smt", "cell", "runtime", "llp", "runner", "workloads",
    "fleet", "admission", "service", "dag", "bootstop", "obs",
    "harness", "other",
)

HARNESS_DIR = pathlib.Path(__file__).resolve().parent


def layer_of(rel: str) -> Optional[str]:
    """Layer owning module ``rel`` (a path relative to ``src/repro``)."""
    best: Optional[str] = None
    for prefix in LAYER_MAP:
        hit = rel.startswith(prefix) if prefix.endswith("/") else rel == prefix
        if hit and (best is None or len(prefix) > len(best)):
            best = prefix
    return LAYER_MAP[best] if best is not None else None


def check_coverage(package_root: pathlib.Path) -> List[str]:
    """Modules of the package that map to no layer (empty when covered)."""
    return sorted(
        rel for rel in (
            p.relative_to(package_root).as_posix()
            for p in package_root.rglob("*.py")
        )
        if layer_of(rel) is None
    )


class LayerClassifier:
    """Maps a profiled function's file name to its layer."""

    def __init__(self, package_root: pathlib.Path) -> None:
        self.package_root = package_root.resolve()
        self._memo: Dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._memo[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> str:
        if filename.startswith(("~", "<")):
            return "other"  # builtins and frozen/generated code
        path = pathlib.Path(filename).resolve()
        if path.is_relative_to(self.package_root):
            rel = path.relative_to(self.package_root).as_posix()
            # An unmapped module fails the run's coverage check; its
            # time is still counted, in ``other``.
            return layer_of(rel) or "other"
        if path.is_relative_to(HARNESS_DIR):
            return "harness"
        return "other"


def profile_by_layer(
    stats: Dict[Tuple[str, int, str], Tuple[Any, ...]],
    classify: Callable[[str], str],
) -> Dict[str, Dict[str, float]]:
    """Sum ``pstats.Stats.stats`` self time and calls into layers.

    Every layer of :data:`LAYERS` is present, at zero when unused.
    """
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in stats.items():
        row = out[classify(filename)]
        row["calls"] += nc
        row["self_s"] += tt
    return out


class SpanRecorder:
    """In-memory spans around the calls the benchmark makes into layers.

    Each span has an id, a parent (the span open when it started), a
    name, a start and an end; all spans of one recorder share
    ``trace_id``.  Spans are plain dicts so they serialize as they are.
    """

    def __init__(self, trace_id: str,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.trace_id = trace_id
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def start(self, name: str) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "name": name,
            "start": self.clock(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def finish(self, span: Dict[str, Any]) -> None:
        span["end"] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[Dict[str, Any], Any], None]] = None
             ) -> Callable:
        """``fn`` inside a span; ``note(attrs, result)`` records counts."""
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if note is not None:
                note(span["attrs"], result)
            return result
        traced.__wrapped__ = fn
        return traced

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its child spans.

    :class:`SpanRecorder` is a stack on one thread, so the children of a
    span are disjoint and lie inside it.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_summary(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total duration and total self time."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return out

"""Wall-clock profiling for the simulation hot path.

Everything else in the obs stack measures *simulated* time; this module
measures *wall-clock* cost — how long the kernel, runtime and serve loops
take on the host — so kernel/scheduler changes can be judged by tracked
events-per-second numbers instead of one-off ``cProfile`` runs.

:class:`Profiler` aggregates scoped timers into named sections:

* ``with profiler.section("runtime.offload"): ...`` — stack-based scope;
  exclusive (self) time excludes nested sections, inclusive (total) time
  includes them.
* ``profiler.call("llp.invoke", fn, *args)`` — time one synchronous call.
* ``profiler.account(name, seconds)`` — fold an externally timed interval
  in as a leaf (used by hot sites that cannot afford a context manager).
* ``profiler.count(name)`` / ``heap_pushes`` / ``heap_pops`` — plain
  integer tallies for sites too hot to time individually.

Wall-clock sections must never span a simulation ``yield``: a scope held
across a yield would attribute *other* processes' wall time to it.  Hot
generator paths therefore get counters, synchronous calls get timers.

The :meth:`Profiler.report` shape is deterministic for a deterministic
simulation — section names, call counts and counters are identical across
repeated runs; only the ``*_s``/``*_us`` wall-clock values vary.  All
instrumented call sites gate on ``profiler is None`` so the fast path is
untouched when profiling is off (verified by ``bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .export import chrome_trace_events
from .metrics import DEFAULT_BUCKETS, Histogram

__all__ = [
    "Profiler",
    "SectionStat",
    "events_per_second",
    "render_profile",
    "profile_chrome_events",
    "write_profile_trace",
]


class SectionStat:
    """Aggregated wall-clock statistics for one named section."""

    __slots__ = ("name", "calls", "total", "self_time", "hist")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        # Per-call durations in microseconds; 1-2-5 decade buckets give
        # usable p50/p95 from sub-microsecond emits to multi-second runs.
        self.hist = Histogram(name, buckets=DEFAULT_BUCKETS)


class _Section:
    """Context manager handle returned by :meth:`Profiler.section`."""

    __slots__ = ("_prof", "_stat")

    def __init__(self, prof: "Profiler", stat: SectionStat) -> None:
        self._prof = prof
        self._stat = stat

    def __enter__(self) -> "_Section":
        prof = self._prof
        # Frame: [stat, start, child_time_accumulator]
        prof._stack.append([self._stat, prof.clock(), 0.0])
        return self

    def __exit__(self, *_exc: Any) -> bool:
        prof = self._prof
        stat, start, child = prof._stack.pop()
        elapsed = prof.clock() - start
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - child
        stat.hist.observe(elapsed * 1e6)
        if prof._stack:
            prof._stack[-1][2] += elapsed
        spans = prof._spans
        if spans is not None and len(spans) < prof.max_spans:
            spans.append((stat.name, start - prof._t0, elapsed))
        return False


class Profiler:
    """Low-overhead wall-clock profiler with scoped timers.

    Parameters
    ----------
    time_source:
        Clock returning seconds as a float; ``time.perf_counter`` by
        default, injectable for deterministic tests.
    keep_spans:
        If True, record up to ``max_spans`` ``(name, start, duration)``
        wall-time spans for Perfetto export (off by default — span
        recording costs one append per section exit).
    """

    def __init__(
        self,
        time_source: Callable[[], float] = time.perf_counter,
        *,
        keep_spans: bool = False,
        max_spans: int = 20000,
    ) -> None:
        self.clock = time_source
        self._sections: Dict[str, SectionStat] = {}
        self._counters: Dict[str, int] = {}
        self._stack: List[list] = []
        # Per-event-class section names for the kernel's profiled step
        # path; lives here (the only consumer) so the Environment stays
        # slim and ``__slots__``-able.
        self._event_sections: Dict[type, str] = {}
        # Kernel heap traffic is tallied via plain attributes: the event
        # loop is too hot for even a dict lookup per push/pop.
        self.heap_pushes = 0
        self.heap_pops = 0
        self.max_spans = int(max_spans)
        self._spans: Optional[List[Tuple[str, float, float]]] = (
            [] if keep_spans else None
        )
        self._t0 = time_source()

    # -- recording ----------------------------------------------------------
    def event_section(self, cls: type) -> str:
        """Cached ``sim.event.<ClassName>`` section name for an event class."""
        name = self._event_sections.get(cls)
        if name is None:
            name = self._event_sections[cls] = f"sim.event.{cls.__name__}"
        return name

    def section(self, name: str) -> _Section:
        """Scoped timer; use as ``with profiler.section("x"): ...``."""
        stat = self._sections.get(name)
        if stat is None:
            stat = self._sections[name] = SectionStat(name)
        return _Section(self, stat)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Time one synchronous call as a section; returns its result."""
        with self.section(name):
            return fn(*args, **kwargs)

    def account(self, name: str, seconds: float) -> None:
        """Fold one externally timed interval in as a leaf section.

        Behaves like an instantaneous child scope: the interval counts
        against the enclosing section's child time so exclusive times
        stay consistent, but no stack frame is pushed.
        """
        stat = self._sections.get(name)
        if stat is None:
            stat = self._sections[name] = SectionStat(name)
        stat.calls += 1
        stat.total += seconds
        stat.self_time += seconds
        stat.hist.observe(seconds * 1e6)
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a plain integer tally (deterministic across runs)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_count(self, name: str, value: int) -> None:
        """Set a tally to an absolute value (e.g. final event count)."""
        self._counters[name] = int(value)

    def spans(self) -> Tuple[Tuple[str, float, float], ...]:
        """Recorded ``(name, start_offset_s, duration_s)`` wall spans."""
        return tuple(self._spans or ())

    # -- reporting ----------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Deterministic-shape profile report.

        Section names, ``calls`` and every ``counters`` value are
        identical across repeated runs of a deterministic simulation;
        only the wall-clock fields (``wall_s``, ``*_s``, ``*_us`` and
        ``rates``) vary run to run.
        """
        wall = self.clock() - self._t0
        sections: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._sections):
            s = self._sections[name]
            mean = (s.total / s.calls) if s.calls else 0.0
            sections[name] = {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "mean_us": mean * 1e6,
                "p50_us": s.hist.percentile(50),
                "p95_us": s.hist.percentile(95),
            }
        counters = dict(sorted(self._counters.items()))
        counters["sim.heap_pushes"] = self.heap_pushes
        counters["sim.heap_pops"] = self.heap_pops
        events = counters.get("sim.events_processed", self.heap_pops)
        return {
            "wall_s": wall,
            "sections": sections,
            "counters": counters,
            "rates": {
                "events_per_wall_second": events_per_second(
                    events, sections, wall
                ),
            },
        }


def events_per_second(
    events: int, sections: Dict[str, Dict[str, Any]], wall_s: float
) -> float:
    """Kernel events per wall second.

    Uses the ``run.simulate`` section's inclusive time when present (the
    window that actually drove the event loop), falling back to the
    profiler's total lifetime.
    """
    sim = sections.get("run.simulate")
    denom = sim["total_s"] if sim and sim["total_s"] > 0 else wall_s
    if denom <= 0:
        return 0.0
    return events / denom


# -- rendering ---------------------------------------------------------------

_SORT_KEYS = {
    "self": lambda row: row[1]["self_s"],
    "total": lambda row: row[1]["total_s"],
    "calls": lambda row: row[1]["calls"],
}


def render_profile(
    report: Dict[str, Any],
    *,
    sort: str = "self",
    top: int = 20,
    title: str = "",
) -> str:
    """Fixed-width text rendering of a :meth:`Profiler.report` dict."""
    key = _SORT_KEYS.get(sort, _SORT_KEYS["self"])
    rows = sorted(report["sections"].items(), key=key, reverse=True)[:top]
    lines: List[str] = []
    if title:
        lines.append(title)
    rate = report["rates"]["events_per_wall_second"]
    events = report["counters"].get(
        "sim.events_processed", report["counters"].get("sim.heap_pops", 0)
    )
    lines.append(
        f"wall {report['wall_s']:.3f}s · {events} events "
        f"· {rate:,.0f} events/s"
    )
    lines.append("")
    lines.append(
        f"{'section':<32} {'calls':>9} {'total ms':>10} {'self ms':>10} "
        f"{'p50 us':>9} {'p95 us':>9}"
    )
    lines.append("-" * 82)
    for name, row in rows:
        lines.append(
            f"{name:<32} {row['calls']:>9} {row['total_s'] * 1e3:>10.2f} "
            f"{row['self_s'] * 1e3:>10.2f} {row['p50_us']:>9.1f} "
            f"{row['p95_us']:>9.1f}"
        )
    lines.append("")
    lines.append("counters:")
    for name, value in report["counters"].items():
        lines.append(f"  {name:<40} {value:>12}")
    return "\n".join(lines)


# -- Perfetto export ---------------------------------------------------------

def profile_chrome_events(profiler: Profiler, *, pid: int = 1000) -> List[dict]:
    """Chrome complete ("X") events for recorded wall-time spans.

    Spans land in their own named process so Perfetto shows wall-clock
    cost side by side with the simulated-time trace (which uses pids
    counted up from 0 by :func:`~repro.obs.export.chrome_trace_events`).
    """
    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "wall-clock profile"},
    }]
    for name, start, duration in profiler.spans():
        events.append({
            "name": name,
            "cat": "wall",
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": pid,
            "tid": 0,
        })
    return events


def write_profile_trace(tracer: Any, profiler: Profiler, path: Any) -> str:
    """Write a Chrome trace combining sim-time records and wall spans.

    The simulated-time trace occupies pid 0 (microseconds of simulated
    time) and the wall-clock spans pid 1000 (microseconds of wall time);
    Perfetto renders both tracks in one view.  Returns the path.
    """
    events = chrome_trace_events(tracer) if tracer is not None else []
    events.extend(profile_chrome_events(profiler))
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.profile"},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return str(path)

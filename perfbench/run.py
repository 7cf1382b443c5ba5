#!/usr/bin/env python3
"""The repository benchmark: one workload, timed end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-sweep --seed 0 --seconds 25 --trace 0

``--trace 0`` times set-up and whole passes of the workload with no
instrumentation and prints the end-to-end metrics.  ``--trace 1`` runs
one untraced pass and one pass under ``cProfile`` with span wrappers
around the public entry points, prints the per-layer ledger and writes
the spans to ``perfbench/out/``.  Both modes check the simulated
outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import calibrate
import layers
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "repro"
OUT_DIR = HERE / "out"
REFERENCES = HERE / "references.json"

MIN_PASSES = 3   # set-ups and passes per timed run, at the least
HOST_CLOCK = time.process_time  # end-to-end host time: process CPU seconds
TAIL_BEYOND = 10

# (name, unit, host|sim|count) in print order.  The JSON line carries
# exactly the names BENCHMARK.json declares for the mode.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "host"),
    ("run_s", "s", "host"),
    ("jobs_per_s", "1/s", "host"),
    ("peak_rss_mb", "MB", "host"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "count"),
    ("sim.calls", "count", "count"),
    ("sim.self_s", "s", "host"),
    ("sim.ns_per_event", "ns", "host"),
    ("sim.pool_hit_rate", "frac", "sim"),
    ("cell.smt.calls", "count", "count"),
    ("cell.smt.self_s", "s", "host"),
    ("cell.calls", "count", "count"),
    ("cell.self_s", "s", "host"),
    ("cell.spe_utilization", "frac", "sim"),
    ("runtime.offloads", "count", "count"),
    ("runtime.ppe_fallbacks", "count", "count"),
    ("runtime.calls", "count", "count"),
    ("runtime.self_s", "s", "host"),
    ("runtime.calls_per_offload", "count", "count"),
    ("llp.invocations", "count", "count"),
    ("llp.calls", "count", "count"),
    ("llp.self_s", "s", "host"),
    ("runner.runs", "count", "count"),
    ("runner.calls", "count", "count"),
    ("runner.self_s", "s", "host"),
    ("runner.run_p50_ms", "ms", "host"),
    ("runner.run_tail_ms", "ms", "host"),
    ("workloads.calls", "count", "count"),
    ("workloads.self_s", "s", "host"),
    ("fleet.compiles", "count", "count"),
    ("fleet.compile_hit_rate", "frac", "count"),
    ("fleet.compile_share", "frac", "host"),
    ("fleet.compile_useful_frac", "frac", "count"),
    ("fleet.calls", "count", "count"),
    ("fleet.self_s", "s", "host"),
    ("admission.submits", "count", "count"),
    ("admission.rejects", "count", "count"),
    ("admission.calls", "count", "count"),
    ("admission.self_s", "s", "host"),
    ("service.dispatches", "count", "count"),
    ("service.calls", "count", "count"),
    ("service.self_s", "s", "host"),
    ("service.calls_per_job", "count", "count"),
    ("service.queue_share", "frac", "sim"),
    ("dag.calls", "count", "count"),
    ("dag.self_s", "s", "host"),
    ("cache.hits", "count", "count"),
    ("cache.misses", "count", "count"),
    ("cache.hit_rate", "frac", "count"),
    ("bootstop.cancelled", "count", "count"),
    ("bootstop.calls", "count", "count"),
    ("bootstop.self_s", "s", "host"),
    ("obs.calls", "count", "count"),
    ("obs.self_s", "s", "host"),
    ("harness.self_s", "s", "host"),
    ("other.self_s", "s", "host"),
    ("trace.overhead_frac", "frac", "host"),
    ("trace.coverage_frac", "frac", "host"),
)


class Checks:
    """Correctness checks of one run: attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def purge_repro() -> None:
    """Forget the imported package so the next set-up imports it again."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest order statistic with at
    least ``beyond`` samples above it, or None with too few samples."""
    xs = sorted(values)
    k = len(xs) - beyond
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / len(xs)


def load_references() -> Dict[str, Dict[str, Any]]:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def verify(wl, out: Dict[str, Any], label: str, checks: Checks,
           first: Optional[Dict[str, Any]],
           reference: Optional[Dict[str, Any]]) -> None:
    """Invariants, equality with an earlier outcome, and the reference."""
    for name, ok in wl.invariants(out):
        checks.check(f"{label}: {name}", ok)
    if first is not None:
        checks.check(f"{label}: equals the first pass", out == first)
    if reference is not None:
        checks.check(f"{label}: matches the recorded reference",
                     wl.reference(out) == reference)


def timed_run(wl, seed: int, seconds: float,
              reference: Optional[Dict[str, Any]], checks: Checks
              ) -> Tuple[Dict[str, float], List[str]]:
    """Untraced set-ups and passes; returns end-to-end metrics.

    A set-up precedes every pass, so both sets of samples spread over
    the whole run and their medians shrug off a burst of host noise.
    Both are timed in process CPU time (:data:`HOST_CLOCK`); the run
    has one thread, so that is its wall time less the time the host
    gave to other processes.  The reference loop runs before each of
    them, and its median scales both medians to the reference host
    speed (see :mod:`calibrate`).  ``seconds`` bounds the run's wall
    time.
    """
    loops: List[float] = []
    setups: List[float] = []
    samples: List[float] = []
    digests = set()
    first = None

    def timed(fn, *args):
        gc.collect()
        t0 = HOST_CLOCK()
        result = fn(*args)
        return result, HOST_CLOCK() - t0

    def reference_loop() -> None:
        digest, t = timed(calibrate.reference_loop)
        digests.add(digest)
        loops.append(t)

    end = time.perf_counter() + seconds
    while len(samples) < MIN_PASSES or time.perf_counter() < end:
        purge_repro()
        reference_loop()
        inp, t = timed(wl.setup, seed)
        setups.append(t)
        reference_loop()
        out, t = timed(wl.run, inp)
        samples.append(t)
        verify(wl, out, f"pass {len(samples)}", checks, first,
               reference if first is None else None)
        if first is None:
            first = out
    checks.check("the reference loop did its fixed work",
                 digests == {calibrate.DIGEST})

    speed = calibrate.speed(loops)
    run_s = statistics.median(samples) * speed
    metrics = {
        "setup_s": statistics.median(setups) * speed,
        "run_s": run_s,
        "jobs_per_s": first["jobs"] / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = [
        f"setup_s is the median of {len(setups)} set-ups; run_s the "
        f"median of {len(samples)} passes; both times {speed:.6f}, the "
        f"host speed factor from {len(loops)} reference loops",
        f"measured CPU medians: set-up {statistics.median(setups):.6f} s, "
        f"pass {statistics.median(samples):.6f} s, reference loop "
        f"{statistics.median(loops):.6f} s [host]",
    ]
    run_tail = tail(samples)
    notes.append(
        f"run_s tail: p{run_tail[1]:.1f} = {run_tail[0] * speed:.6f} s "
        f"over {len(samples)} passes [host]" if run_tail else
        f"run_s tail: needs > {TAIL_BEYOND} passes, have {len(samples)}"
    )
    notes.append(f"jobs per pass: {first['jobs']}")
    notes.append(f"sim_makespan_s = {first['sim_makespan_s']:.6f} s [sim]")
    if "sojourns" in first:
        soj = first["sojourns"]
        notes.append(f"sim_p50_sojourn_s = {statistics.median(soj):.6f} s "
                     f"over {len(soj)} jobs [sim]")
        soj_tail = tail(soj)
        if soj_tail:
            notes.append(f"sim_tail_sojourn_s = {soj_tail[0]:.6f} s "
                         f"(p{soj_tail[1]:.2f} of {len(soj)} jobs) [sim]")
        notes.append(f"sim_reject_frac = "
                     f"{first['rejected'] / first['arrivals']:.6f} "
                     f"({first['rejected']} of {first['arrivals']}) [sim]")
    return metrics, notes


def traced_run(wl, seed: int, reference: Optional[Dict[str, Any]],
               checks: Checks) -> Tuple[Dict[str, float], List[str]]:
    """One untraced and one traced set-up + pass; the per-layer ledger."""
    wl.setup(seed)  # first import, untimed

    purge_repro()
    gc.collect()
    t0 = time.perf_counter()
    plain = wl.run(wl.setup(seed))
    untraced_s = time.perf_counter() - t0
    verify(wl, plain, "untraced pass", checks, None, reference)

    rec = layers.SpanRecorder(f"{wl.name}-seed{seed}-{time.time_ns()}")
    prof = cProfile.Profile()
    purge_repro()
    gc.collect()
    t0 = time.perf_counter()
    prof.enable()
    try:
        span = rec.start("setup")
        inp = wl.setup(seed)
        rec.finish(span)
        with workloads.instrument(rec):
            span = rec.start("pass")
            try:
                traced = wl.run(inp)
            finally:
                rec.finish(span)
    finally:
        prof.disable()
    traced_s = time.perf_counter() - t0
    checks.check("traced pass: outputs equal the untraced pass",
                 traced == plain)

    kernel: List[Tuple[int, float]] = []
    with workloads.metered(kernel):
        metered_out = wl.run(inp)
    checks.check("metered pass: outputs equal the untraced pass",
                 metered_out == plain)

    by_layer = layers.profile_by_layer(
        pstats.Stats(prof).stats, layers.LayerClassifier(PACKAGE)
    )
    metrics = ledger(plain, rec, by_layer, kernel, traced_s, untraced_s)
    write_spans(wl.name, seed, rec)
    summary = layers.span_summary(rec.spans)
    notes = [
        f"span {name}: {row['count']} spans, {row['total_s']:.6f} s total, "
        f"{row['self_s']:.6f} s self"
        for name, row in summary.items()
    ]
    notes.append(f"traced set-up + pass {traced_s:.6f} s, untraced "
                 f"{untraced_s:.6f} s")
    return metrics, notes


def ledger(out: Dict[str, Any], rec: "layers.SpanRecorder",
           by_layer: Dict[str, Dict[str, float]],
           kernel: List[Tuple[int, float]],
           traced_s: float, untraced_s: float) -> Dict[str, float]:
    """Per-layer metrics from the profile, the spans and the outcome."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    runs = rec.named("run_experiment")
    run_attrs = [s["attrs"] for s in runs]
    compiles = rec.named("compile")
    misses = out.get("compilations", 0)
    gets = rec.named("cache.get")
    hits = sum(1 for s in gets if s["attrs"]["hit"])
    run_ms = [(s["end"] - s["start"]) * 1e3 for s in runs]
    run_tail = tail(run_ms)

    events = sum(a["events"] for a in run_attrs) + out["outer_events"]
    offloads = sum(a["offloads"] for a in run_attrs)
    raw = sum(a["raw_makespan"] for a in run_attrs)
    served = out.get("completed", 0)
    m: Dict[str, float] = {
        "sim.events": events,
        "sim.ns_per_event": ratio(by_layer["sim"]["self_s"], events) * 1e9,
        "sim.pool_hit_rate": ratio(sum(e * r for e, r in kernel),
                                   sum(e for e, _ in kernel)),
        "cell.spe_utilization": ratio(
            sum(a["spe_utilization"] * a["raw_makespan"] for a in run_attrs),
            raw),
        "runtime.offloads": offloads,
        "runtime.ppe_fallbacks": sum(a["ppe_fallbacks"] for a in run_attrs),
        "runtime.calls_per_offload": ratio(by_layer["runtime"]["calls"],
                                           offloads),
        "llp.invocations": sum(a["llp_invocations"] for a in run_attrs),
        "runner.runs": len(runs),
        "runner.run_p50_ms": statistics.median(run_ms) if run_ms else 0.0,
        # Fewer than TAIL_BEYOND + 1 runs: the slowest one.
        "runner.run_tail_ms": (run_tail[0] if run_tail
                               else max(run_ms, default=0.0)),
        "fleet.compiles": misses,
        "fleet.compile_hit_rate": ratio(len(compiles) - misses,
                                        len(compiles)),
        "fleet.compile_share": ratio(
            sum(s["end"] - s["start"] for s in compiles), traced_s),
        "fleet.compile_useful_frac": ratio(out.get("completed_bags", 0),
                                           misses),
        "admission.submits": out.get("arrivals", 0),
        "admission.rejects": out.get("rejected", 0),
        "service.dispatches": out.get("units", 0),
        "service.calls_per_job": ratio(by_layer["service"]["calls"],
                                       served),
        "service.queue_share": ratio(sum(out.get("waits", ())),
                                     sum(out.get("sojourns", ()))),
        "cache.hits": hits,
        "cache.misses": len(gets) - hits,
        "cache.hit_rate": ratio(hits, len(gets)),
        "bootstop.cancelled": out.get("bootstop_cancelled", 0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.coverage_frac": ratio(
            sum(row["self_s"] for row in by_layer.values()), traced_s),
    }
    for layer, row in by_layer.items():
        for field in ("calls", "self_s"):
            m.setdefault(f"{layer}.{field}", row[field])
    return {name: m[name] for name, _unit, _kind in PER_LAYER}


def write_spans(workload: str, seed: int, rec: "layers.SpanRecorder") -> None:
    """Write the run's spans, with their self times, once at the end."""
    own = layers.self_times(rec.spans)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "trace": rec.trace_id,
        "spans": [dict(s, self_s=own[s["id"]]) for s in rec.spans],
    }))


def run(workload: str, seed: int, seconds: float, trace: bool,
        references: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One benchmark run; returns the result object and report lines."""
    wl = workloads.WORKLOADS[workload]
    if references is None:
        references = load_references()
    reference = references.get(workload, {}).get(str(seed))
    checks = Checks()
    unmapped = layers.check_coverage(PACKAGE)
    checks.check("every module maps to a layer", not unmapped)
    if trace:
        metrics, notes = traced_run(wl, seed, reference, checks)
        spec = PER_LAYER
    else:
        metrics, notes = timed_run(wl, seed, seconds, reference, checks)
        spec = END_TO_END
    notes.append(f"reference for seed {seed}: "
                 f"{'checked' if reference else 'none recorded'}")
    notes.extend(f"unmapped module: {rel}" for rel in unmapped)
    notes.extend(f"FAILED: {name}" for name in checks.failures)
    notes.append(f"failed_frac = {checks.failed / checks.attempted:.6f} "
                 f"({checks.failed} of {checks.attempted} checks)")
    return {
        "lines": [
            f"{name:28s} {metrics[name]:>16.6f} {unit:6s} [{kind}]"
            for name, unit, kind in spec
        ] + notes,
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit, _kind in spec
            },
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package at {PACKAGE}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

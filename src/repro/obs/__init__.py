"""Observability: spans, metrics and trace export for scheduler runs.

The runtimes in :mod:`repro.core` make feedback-driven decisions (MGPS's
utilization window, the LLP chunk tuner, the granularity test); this
package makes those decisions observable without perturbing them:

* :mod:`repro.obs.spans` — nested, attributed intervals recorded through
  the existing :class:`~repro.sim.trace.Tracer`;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a per-run :class:`MetricsRegistry` (no-op when absent);
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON, JSONL
  record sink, and deterministic metrics snapshots;
* :mod:`repro.obs.monitor` — rule-based post-run health detectors
  (starvation, oscillation, saturation, imbalance, churn);
* :mod:`repro.obs.report` — one self-contained HTML performance report
  per run (inline SVG, no network);
* :mod:`repro.obs.bench` — the tracked benchmark trajectory and its
  regression gate over the committed ``BENCH_*.json`` baselines;
* :mod:`repro.obs.profile` — low-overhead wall-clock profiling of the
  simulation hot path (scoped timers, heap tallies, events/sec);
* :mod:`repro.obs.causal` — post-hoc causal span trees (per-job serve
  lifecycles, off-load attempt/backoff/fallback/LLP-fan-out trees);
* :mod:`repro.obs.attribution` — critical-path extraction and
  aggregate latency breakdowns (``serve.breakdown.*``);
* :mod:`repro.obs.timeseries` — deterministic sim-time-bucketed gauge
  series sampled from a finished trace.

Everything is stdlib-only and hangs off per-run objects — no globals.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "attribution": ("aggregate_breakdown", "job_summary",
                    "publish_breakdown", "render_explain", "top_slowest"),
    "bench": ("check_baselines", "check_perf_floors", "compare",
              "measure_core", "measure_faults", "measure_serve",
              "measure_throughput"),
    "export": ("chrome_trace", "chrome_trace_events", "write_chrome_trace",
               "write_metrics_snapshot", "write_trace_jsonl"),
    "causal": ("JobTree", "PHASE_ORDER", "ReconciliationError", "SpanNode",
               "build_job_trees", "build_offload_trees", "critical_path"),
    "metrics": ("Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
                "MetricsRegistry", "NULL_REGISTRY", "NullRegistry", "labeled"),
    "monitor": ("HealthFinding", "HealthMonitor", "MonitorConfig",
                "Threshold", "analyze_run", "parse_threshold",
                "render_findings", "resolve_metric"),
    "profile": ("Profiler", "profile_chrome_events", "render_profile",
                "write_profile_trace"),
    "report": ("render_report", "write_report"),
    "spans": ("NULL_SPAN", "Span", "SpanRecorder"),
    "timeseries": ("TimeSeries", "sample_timeseries"),
})

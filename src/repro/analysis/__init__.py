"""Metrics, report rendering and the per-table/figure experiment harness."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "experiments": ("ExperimentResult", "PAPER_SEC51", "PAPER_TABLE1_EDTLP",
                    "PAPER_TABLE1_LINUX", "PAPER_TABLE2", "SWEEP_LARGE",
                    "SWEEP_SMALL", "fig10_sweep", "figure_sweep",
                    "sec51_offload_experiment", "table1_experiment",
                    "table2_experiment"),
    "efficiency_study": ("DEFAULT_ECONOMICS", "PlatformEconomics",
                         "efficiency_table"),
    "parallel": ("parallel_sweep", "run_points"),
    "metrics": ("best_scheduler", "crossover", "efficiency",
                "llp_chunk_profile", "offload_latency_percentiles",
                "registry_value", "render_scheduler_summary",
                "scaling_efficiency", "scheduler_summary", "speedup"),
    "report": ("format_series", "format_table", "paper_comparison"),
    "timeline": ("TaskSpan", "extract_spans", "render_timeline",
                 "utilization_bar"),
})

"""Workload models: the RAxML profile, trace generation, synthetic streams."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "profiles": ("FunctionProfile", "RAXML_42SC", "RaxmlProfile"),
    "synthetic": ("bursty_trace", "fine_grained_trace",
                  "interleaved_locality_trace", "mixed_granularity_trace",
                  "uniform_trace"),
    "coupled": ("BSPWorkload",),
    "io": ("load_traces", "save_traces", "trace_from_dict", "trace_to_dict"),
    "taskspec": ("BootstrapTrace", "LoopSpec", "OffloadItem", "TaskSpec"),
    "traces": ("FixedTraceWorkload", "TraceBuilder", "Workload"),
})

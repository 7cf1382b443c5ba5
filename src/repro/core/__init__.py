"""The paper's contribution: EDTLP, LLP and MGPS scheduling on Cell."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "cluster": ("ClusterResult", "run_cluster_experiment"),
    "granularity": ("GranularityGovernor", "OffloadDecision"),
    "history": ("UtilizationHistory",),
    "llp": ("LLPConfig", "LLPInvocation", "LoopParallelModel",
            "split_iterations"),
    "oracle": ("OracleChoice", "OracleSelector", "default_candidates"),
    "results": ("ScheduleResult",),
    "runner": ("run_bsp_experiment", "run_experiment", "run_sweep"),
    "runtime": ("OffloadEngine", "ProcContext", "RuntimeStats"),
    "schedulers": ("SchedulerSpec", "edtlp", "linux", "mgps", "static_hybrid"),
    "llp_sim": (),
})

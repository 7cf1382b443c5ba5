"""repro — Dynamic Multigrain Parallelization on the Cell Broadband Engine.

A faithful, simulator-based reproduction of Blagojevic et al., PPoPP 2007:
the EDTLP event-driven task scheduler, the LLP work-sharing loop runtime,
and the adaptive MGPS policy, evaluated on a discrete-event Cell BE model
driven by RAxML-like workloads.

Quickstart::

    from repro import Workload, edtlp, linux, mgps, run_experiment

    wl = Workload(bootstraps=8, tasks_per_bootstrap=500)
    base = run_experiment(linux(), wl)
    ours = run_experiment(mgps(), wl)
    print(f"MGPS is {ours.speedup_over(base):.2f}x faster than the OS scheduler")
"""

from importlib import import_module

__version__ = "1.0.0"


# Every sub-package's ``__init__`` calls this; it lives here because
# importing any sub-package has already loaded this module.
def _lazy(namespace, table):
    """Serve a package's public names on first use (PEP 562).

    ``table`` maps each submodule to the public names it defines (or
    re-exports, for a sub-package); a submodule listed with no names is
    reachable as an attribute only.  Returns ``__getattr__``,
    ``__dir__`` and ``__all__`` for the package whose ``globals()`` is
    ``namespace``.  A resolved name is stored in ``namespace``, so only
    its first lookup imports anything.
    """
    package = namespace["__name__"]
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name):
        if name in owner:
            value = getattr(import_module(f"{package}.{owner[name]}"), name)
            namespace[name] = value
            return value
        if name in table:
            return import_module(f"{package}.{name}")
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _lazy(globals(), {
    "workloads": ("Workload", "RaxmlProfile", "RAXML_42SC", "BSPWorkload",
                  "FixedTraceWorkload"),
    "cell": ("CellParams", "BladeParams", "DEFAULT_CELL", "DEFAULT_BLADE",
             "CellMachine"),
    "core": ("SchedulerSpec", "linux", "edtlp", "static_hybrid", "mgps",
             "run_experiment", "run_sweep", "run_bsp_experiment",
             "run_cluster_experiment", "ScheduleResult", "LLPConfig",
             "OracleSelector"),
    "serve": ("FleetFaultPlan", "JobTemplate", "ServeConfig", "ServeResult",
              "TenantSpec", "default_tenants", "run_service"),
    "sim": ("Tracer",),
    "obs": ("MetricsRegistry", "SpanRecorder", "chrome_trace",
            "write_chrome_trace", "write_metrics_snapshot",
            "write_trace_jsonl"),
    "analysis": (),
    "cellsdk": (),
    "faults": (),
    "mpi": (),
    "phylo": (),
    "platforms": (),
})
__all__.insert(0, "__version__")

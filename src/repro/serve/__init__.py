"""Online serving layer: a multi-tenant job service over a blade fleet.

The offline experiments answer "how fast does one bag of bootstraps
finish?".  This package asks the production question on top of the same
simulator: many tenants *stream* phylogenetic jobs at a fleet of Cell
blades, and the operator cares about admission, tail latency, deadlines,
elasticity and node failure — not just makespan.

Layers (client to metal):

* :mod:`~repro.serve.generators` — open-loop Poisson, closed-loop
  think-time and bursty tenants (:class:`TenantSpec`,
  :class:`JobTemplate`);
* :mod:`~repro.serve.admission` — token buckets, the bounded system
  queue and priority/deadline ordering (:class:`FrontEnd`);
* :mod:`~repro.serve.dispatch` — the blade-selection policy registry
  (static-block, least-loaded, join-shortest-queue, work-stealing);
* :mod:`~repro.serve.fleet` — per-blade state, memoized job compilation
  through :func:`~repro.core.runner.run_experiment`, and node-level
  fault plans (:class:`FleetFaultPlan`: kills, slowdowns, flaps,
  link degradation);
* :mod:`~repro.serve.resilience` — blade health EWMAs, the per-blade
  circuit breaker and hedged-dispatch thresholds
  (:class:`ResilienceConfig`, :class:`FleetResilience`);
* :mod:`~repro.serve.autoscaler` — the MGPS-style utilization feedback
  loop resizing the active blade set;
* :mod:`~repro.serve.slo` — per-tenant latency percentiles, goodput,
  rejection and deadline-miss accounting;
* :mod:`~repro.serve.service` — :func:`run_service`, tying it together;
* :mod:`~repro.serve.dag` — the workflow tier above jobs:
  :class:`WorkflowSpec` pipelines with fan-out/fan-in, autoMRE-style
  bootstopping (:mod:`~repro.serve.bootstop`) and the digest-keyed
  stage cache (:mod:`~repro.serve.cache`), run by :func:`run_dag`;
* :mod:`~repro.serve.chaos` — the seeded chaos soak harness
  (:func:`run_chaos`) asserting zero loss and digest invariance under
  randomized fault plans.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "admission": ("DispatchUnit", "FrontEnd", "TokenBucket"),
    "autoscaler": ("Autoscaler", "AutoscalerConfig"),
    "bootstop": ("BootstopConfig", "BootstopMonitor"),
    "cache": ("CacheEntry", "ResultCache", "content_key"),
    "dag": ("DagConfig", "DagResult", "StageSpec", "WorkflowEngine",
            "WorkflowSpec", "raxml_workflow", "replicate_tree", "run_dag"),
    "dispatch": ("DispatchInfo", "DispatchPolicy",
                 "available_dispatch_policies", "block_partition",
                 "register_dispatch", "resolve_dispatch"),
    "chaos": ("ChaosConfig", "ChaosReport", "chaos_tenants",
              "random_fleet_fault_plan", "run_chaos"),
    "fleet": ("BladeFlap", "BladeKill", "BladeSlow", "BladeState",
              "CompiledJob", "FleetFaultPlan", "JobCompiler", "LinkDegrade",
              "scheduler_by_name"),
    "jobs": ("Job", "JobTemplate", "TenantSpec", "job_seed"),
    "resilience": ("BREAKER_STATES", "FleetResilience",
                   "LEGAL_BREAKER_TRANSITIONS", "ResilienceConfig",
                   "count_breaker_cycles"),
    "service": ("ServeConfig", "ServeResult", "Service", "default_tenants",
                "run_service"),
    "slo": ("ServeStats", "exact_percentile"),
    "generators": (),
})

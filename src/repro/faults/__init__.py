"""Fault injection and fault-tolerant off-loading.

The paper's schedulers assume a perfect Cell; this package drops that
assumption.  A seeded :class:`FaultPlan` describes deterministic
perturbations (transient off-load failures, DMA errors, permanent SPE
death, slow SPEs), a :class:`FaultInjector` realizes the plan against
one simulated machine, and a :class:`TolerancePolicy` configures how
the runtimes absorb the damage (retry with capped exponential backoff,
per-off-load watchdog, SPE blacklist, PPE fallback, LLP mid-loop
recovery).

The headline invariant: under any plan that leaves at least one SPE or
the PPE alive, every run completes and produces application results
bit-identical to the fault-free run — only the timeline changes.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "injector": ("FaultInjector",),
    "plan": ("FaultPlan", "SPEKill", "SlowSPE"),
    "tolerance": ("TolerancePolicy",),
})

"""The layered off-load runtime: engine / policy / loop schedules.

Three separable concerns, three layers:

* :mod:`~repro.core.runtime.engine` — :class:`OffloadEngine`, the
  mechanics every scheduler shares (SPE acquisition, DMA timing, the
  granularity test, and the single off-load path, fault-tolerant when
  a fault injector is installed);
* :mod:`~repro.core.runtime.policy` /
  :mod:`~repro.core.runtime.policies` — the
  :class:`SchedulingPolicy` protocol, its string-keyed registry, and the
  paper's four schedulers as thin policy objects;
* loop schedules live one layer down in :mod:`repro.core.llp`
  (``LLPConfig.schedule`` selects static / dynamic / guided / adaptive).
"""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "context": ("ProcContext", "RuntimeStats"),
    "engine": ("OffloadEngine",),
    "policies": ("EDTLPPolicy", "LinuxPolicy", "MGPSPolicy",
                 "StaticHybridPolicy"),
    "policy": ("PolicyInfo", "SchedulingPolicy", "available_policies",
               "register_policy", "resolve_policy"),
})

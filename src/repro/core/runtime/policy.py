"""The scheduling-policy protocol and its registry.

A :class:`SchedulingPolicy` is the *decision* half of a runtime: which
SPE count a task should use (``llp_degree``), what to observe at every
dispatch/departure, how to re-baseline when the machine loses capacity,
and whether to admit an off-load the granularity test approved.  The
*mechanics* half — SPE acquisition, DMA timing, the one off-load path
— lives in :class:`~repro.core.runtime.engine.OffloadEngine`, which is
built with exactly one policy and delegates every decision to it.

Policies register by name so experiments select them declaratively
(``SchedulerSpec(kind="mgps")``) and third-party policies plug in
without touching core::

    from repro.core.runtime import SchedulingPolicy, register_policy

    class Greedy(SchedulingPolicy):
        name = "greedy-llp"
        def llp_degree(self, ctx):
            return max(1, self.engine.machine.pool.n_free)

    register_policy("greedy-llp", lambda spec: Greedy(),
                    description="split loops over whatever is idle")

The factory receives the :class:`~repro.core.schedulers.SchedulerSpec`
being built, so policies can read its knobs (``llp_degree``,
``history_window``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..granularity import OffloadDecision
    from ...workloads.taskspec import TaskSpec
    from .context import ProcContext
    from .engine import OffloadEngine

__all__ = [
    "SchedulingPolicy",
    "PolicyInfo",
    "register_policy",
    "resolve_policy",
    "available_policies",
]


class SchedulingPolicy:
    """Base scheduling policy: every hook is a safe default.

    Two class attributes select the engine's wait discipline:

    * ``pinned`` — the policy owns no pool; each process off-loads to its
      ``ctx.pinned_spe`` (the Linux baseline's 1:1 mapping);
    * ``spin`` — the dispatching process busy-waits on the PPE for the
      off-load to complete instead of blocking (voluntary switch).

    ``bind`` is called once when the engine is constructed; it is the
    place to size history windows or register metrics off
    ``engine.metrics`` / ``engine.machine``.
    """

    name = "policy"
    description = ""
    pinned = False
    spin = False

    def __init__(self) -> None:
        self.engine: "OffloadEngine" = None  # set by bind()

    def bind(self, engine: "OffloadEngine") -> None:
        self.engine = engine

    # -- decision hooks ---------------------------------------------------
    def llp_degree(self, ctx: "ProcContext") -> int:
        """Desired SPEs per off-loaded task (1 = no loop parallelism)."""
        return 1

    def on_dispatch(self, time: float) -> None:
        """Called at every off-load dispatch."""

    def on_departure(self, start: float, end: float) -> None:
        """Called at every off-load completion."""

    def on_capacity_change(self) -> None:
        """Called after every SPE kill or blacklist (live set shrank)."""

    def admit(self, ctx: "ProcContext", task: "TaskSpec",
              decision: "OffloadDecision") -> bool:
        """Last-look veto over an off-load the granularity test approved."""
        return True


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry: how to build a policy and how to describe it."""

    name: str
    factory: Callable[[object], SchedulingPolicy]
    description: str = ""
    knobs: Tuple[str, ...] = field(default_factory=tuple)


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(
    name: str,
    factory: Callable[[object], SchedulingPolicy],
    description: str = "",
    knobs: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[object], SchedulingPolicy]:
    """Register ``factory`` under ``name``; returns the factory.

    ``factory(spec)`` receives the :class:`SchedulerSpec` being built
    and returns a fresh :class:`SchedulingPolicy`.  ``knobs`` names the
    spec fields the policy reads (documentation for ``repro
    schedulers``).  Re-registering a taken name raises unless
    ``replace=True``.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"policy {name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[name] = PolicyInfo(
        name=name, factory=factory, description=description,
        knobs=tuple(knobs),
    )
    return factory


def resolve_policy(name: str) -> PolicyInfo:
    """Look up a registered policy; unknown names list every known one."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown scheduling policy {name!r}; known policies: {known}"
        )
    return _REGISTRY[name]


def available_policies() -> List[PolicyInfo]:
    """Every registered policy, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# The paper's four schedulers register themselves when their module
# loads; loading it here fills the registry for every importer of this
# module, whichever of the two loads first.
from . import policies

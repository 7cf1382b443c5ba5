"""Fleet dispatch policies and their registry.

Mirrors :mod:`repro.core.runtime.policy` one level up: a
:class:`DispatchPolicy` decides *which blade* a dispatch unit goes to
(and, for work-stealing, which queue an idle blade may raid), exactly as
a :class:`~repro.core.runtime.policy.SchedulingPolicy` decides which
SPEs a task uses inside one blade.  Policies register by name so the
serving layer, the offline cluster driver and the CLI all select them
declaratively::

    from repro.serve import DispatchPolicy, register_dispatch

    class Weighted(DispatchPolicy):
        name = "weighted"
        def select(self, unit, blades):
            return min(blades, key=lambda b: b.backlog_s / (1 + b.index))

    register_dispatch("weighted", Weighted,
                      description="backlog weighted by blade index")

Each policy also provides an *offline* ``partition`` used by
:func:`repro.core.cluster.run_cluster_experiment` to split a one-shot
bootstrap bag across blades; ``static-block`` reproduces the historical
contiguous block distribution bit-for-bit.

This module is deliberately dependency-free (no imports from
``repro.core``) so the cluster driver can reach the registry without an
import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fleet import BladeState
    from .admission import DispatchUnit

__all__ = [
    "DispatchPolicy",
    "DispatchInfo",
    "register_dispatch",
    "resolve_dispatch",
    "available_dispatch_policies",
    "block_partition",
]


def block_partition(n_jobs: int, n_blades: int) -> List[List[int]]:
    """Contiguous blocks, earlier blades take the remainder.

    The historical ``distribute_bootstraps`` layout: sizes differ by at
    most one and job order is preserved within each blade.
    """
    if n_jobs < 1 or n_blades < 1:
        raise ValueError("need positive totals")
    if n_blades > n_jobs:
        raise ValueError("more blades than jobs")
    base, extra = divmod(n_jobs, n_blades)
    out: List[List[int]] = []
    start = 0
    for i in range(n_blades):
        size = base + (1 if i < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def _cyclic_partition(n_jobs: int, n_blades: int) -> List[List[int]]:
    if n_jobs < 1 or n_blades < 1:
        raise ValueError("need positive totals")
    if n_blades > n_jobs:
        raise ValueError("more blades than jobs")
    return [list(range(i, n_jobs, n_blades)) for i in range(n_blades)]


class DispatchPolicy:
    """Base dispatch policy: round-robin, no stealing.

    ``select`` receives the unit being dispatched and the list of
    *eligible* blades (alive and active), already sorted by blade index;
    it must return one of them.  ``steal`` is consulted when a blade
    runs dry; returning a unit moves it from its current queue to the
    thief.  ``partition`` is the offline equivalent of ``select`` for a
    one-shot bag of ``n_jobs``.
    """

    name = "dispatch"
    description = ""

    def select(self, unit: "DispatchUnit",
               blades: List["BladeState"]) -> "BladeState":
        return blades[unit.seq % len(blades)]

    def steal(self, thief: "BladeState",
              blades: List["BladeState"]) -> Optional["DispatchUnit"]:
        """Unit taken from another blade's queue, or None."""
        return None

    def partition(self, n_jobs: int, n_blades: int) -> List[List[int]]:
        """Offline split of job indices 0..n_jobs-1 over blades."""
        return _cyclic_partition(n_jobs, n_blades)


class StaticBlockDispatch(DispatchPolicy):
    """The one-shot cluster layout, extended to online arrivals.

    Offline it is the contiguous block distribution (bit-identical to
    the historical ``distribute_bootstraps``); online — where the total
    is unknown — it degenerates to load-blind round-robin over the
    active blade set.
    """

    name = "static-block"
    description = ("load-blind static assignment (contiguous blocks "
                   "offline, round-robin online)")

    def partition(self, n_jobs: int, n_blades: int) -> List[List[int]]:
        return block_partition(n_jobs, n_blades)


class LeastLoadedDispatch(DispatchPolicy):
    """Send each unit to the blade with the least backlog *seconds*."""

    name = "least-loaded"
    description = "minimize queued + residual service seconds per blade"

    def select(self, unit, blades):
        return min(blades, key=lambda b: (b.backlog_s, b.index))


class JoinShortestQueueDispatch(DispatchPolicy):
    """Send each unit to the blade with the fewest queued units."""

    name = "join-shortest-queue"
    description = "classic JSQ: minimize queue length, size-blind"

    def select(self, unit, blades):
        return min(blades, key=lambda b: (b.queue_depth, b.index))


class WorkStealingDispatch(DispatchPolicy):
    """Round-robin placement; idle blades raid the longest queue."""

    name = "work-stealing"
    description = ("round-robin placement, idle blades steal the newest "
                   "unit from the deepest queue")

    def steal(self, thief, blades):
        victims = [b for b in blades if b is not thief and b.queue_depth > 0]
        if not victims:
            return None
        victim = max(victims, key=lambda b: (b.queue_depth, -b.index))
        return victim.steal_newest()


@dataclass(frozen=True)
class DispatchInfo:
    """One registry entry: how to build a policy and how to describe it."""

    name: str
    factory: Callable[[], DispatchPolicy]
    description: str = ""


_REGISTRY: Dict[str, DispatchInfo] = {}


def register_dispatch(
    name: str,
    factory: Callable[[], DispatchPolicy],
    description: str = "",
    replace: bool = False,
) -> Callable[[], DispatchPolicy]:
    """Register ``factory`` under ``name``; returns the factory."""
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"dispatch policy {name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[name] = DispatchInfo(
        name=name, factory=factory, description=description
    )
    return factory


def resolve_dispatch(name: str) -> DispatchInfo:
    """Look up a registered policy; unknown names list every known one."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown dispatch policy {name!r}; known policies: {known}"
        )
    return _REGISTRY[name]


def available_dispatch_policies() -> List[DispatchInfo]:
    """Every registered dispatch policy, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


for _cls in (StaticBlockDispatch, LeastLoadedDispatch,
             JoinShortestQueueDispatch, WorkStealingDispatch):
    register_dispatch(_cls.name, _cls, description=_cls.description)

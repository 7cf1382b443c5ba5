"""The fault injector: realizes a :class:`~repro.faults.plan.FaultPlan`.

One injector is attached to a run (machine + environment).  It owns the
plan's named RNG substreams (one per fault kind per SPE, so changing how
one SPE consumes randomness never perturbs another), schedules the
permanent SPE kills as simulation processes, and answers the runtime's
point queries:

* :meth:`offload_fails` — does this dispatch attempt transiently fail?
* :meth:`dma_errors` — how many times does this transfer error?
* :meth:`service_factor` — this SPE's multiplicative slowdown for one task;
* :meth:`death_time` — when (if ever) this SPE permanently dies.

Every injected fault is counted in the metrics registry (``faults.*``)
and emitted on the trace under category ``"fault"`` so the health
monitor and the HTML report can see the storm.

Zero-rate queries consume **no** randomness, so a null plan draws
nothing and perturbs nothing.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Generator, List, Optional

from ..cell.machine import CellMachine
from ..cell.spe import SPE
from ..obs.metrics import NULL_REGISTRY
from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.rng import RngStreams
from ..sim.trace import Tracer
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministic realization of one fault plan on one machine."""

    def __init__(
        self,
        env: Environment,
        machine: CellMachine,
        plan: FaultPlan,
        tracer: Optional[Tracer] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.plan = plan
        if tracer is None:
            tracer = getattr(env, "tracer", None)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if metrics is None:
            metrics = getattr(env, "metrics", None)
        m = metrics if metrics is not None else NULL_REGISTRY
        self._m_kills = m.counter("faults.spe_kills", "permanent SPE deaths")
        self._m_offload = m.counter(
            "faults.offload_failures", "injected transient off-load failures"
        )
        self._m_dma = m.counter("faults.dma_errors", "injected DMA errors")
        self._m_slow = m.counter(
            "faults.slow_tasks", "tasks perturbed by slow-SPE noise"
        )
        self._streams = RngStreams(plan.seed)
        self._listeners: List[Callable[[], None]] = []

        n = machine.n_spes
        for kill in plan.spe_kills:
            if kill.spe >= n:
                raise ValueError(
                    f"kill targets SPE {kill.spe} but the machine has only "
                    f"{n} SPEs"
                )
        for slow in plan.slow_spes:
            if slow.spe >= n:
                raise ValueError(
                    f"slow-SPE entry targets SPE {slow.spe} but the machine "
                    f"has only {n} SPEs"
                )
        self._death: Dict[str, float] = {
            machine.spes[k.spe].name: k.time for k in plan.spe_kills
        }
        self._slow: Dict[str, "SlowSPE"] = {
            machine.spes[s.spe].name: s for s in plan.slow_spes
        }
        self.kills_delivered = 0

    # -- wiring -------------------------------------------------------------
    def add_listener(self, fn: Callable[[], None]) -> None:
        """Register a callback fired after every capacity change (kill)."""
        self._listeners.append(fn)

    def install(self) -> None:
        """Schedule the plan's permanent kills on the simulation calendar."""
        for kill in self.plan.spe_kills:
            spe = self.machine.spes[kill.spe]
            self.env.process(
                self._kill_at(spe, kill.time), name=f"fault.kill.{spe.name}"
            )

    def _kill_at(self, spe: SPE, time: float) -> Generator[Event, None, None]:
        if time > 0:
            yield self.env.timeout(time)
        self.kill_now(spe)

    def kill_now(self, spe: SPE) -> None:
        """Take ``spe`` permanently out of service at the current time."""
        if not spe.alive:
            return
        spe.alive = False
        spe.fail_time = self.env.now
        self.machine.pool.mark_out_of_service(spe)
        self.kills_delivered += 1
        self._m_kills.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now, "fault", spe.name, "spe_kill",
                was_busy=spe.busy, live_spes=self.machine.pool.n_live,
            )
        for fn in self._listeners:
            fn()

    # -- point queries (runtime-facing) ------------------------------------
    def death_time(self, spe: SPE) -> float:
        """Absolute time ``spe`` permanently dies (inf = never)."""
        return self._death.get(spe.name, float("inf"))

    def offload_fails(self, spe: SPE) -> bool:
        """Draw: does this dispatch attempt to ``spe`` transiently fail?"""
        rate = self.plan.offload_fail_rate
        if rate <= 0.0:
            return False
        hit = bool(
            self._streams.stream(f"offload.{spe.name}").random() < rate
        )
        if hit:
            self._m_offload.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    self.env.now, "fault", spe.name, "offload_fail"
                )
        return hit

    def dma_errors(self, spe: SPE, max_retries: int) -> int:
        """Draw how often one transfer to ``spe`` errors.

        Returns the number of errors, at most ``max_retries + 1``; a
        value above ``max_retries`` means the transfer is abandoned.
        """
        rate = self.plan.dma_error_rate
        if rate <= 0.0:
            return 0
        stream = self._streams.stream(f"dma.{spe.name}")
        errors = 0
        while errors <= max_retries and stream.random() < rate:
            errors += 1
        if errors:
            self._m_dma.inc(errors)
            if self.tracer.enabled:
                self.tracer.emit(
                    self.env.now, "fault", spe.name, "dma_error",
                    errors=errors, abandoned=errors > max_retries,
                )
        return errors

    def service_factor(self, spe: SPE) -> float:
        """Multiplicative service-time factor for one task on ``spe``."""
        slow = self._slow.get(spe.name)
        if slow is None:
            return 1.0
        factor = slow.factor
        if slow.jitter > 0.0:
            z = self._streams.stream(f"slow.{spe.name}").standard_normal()
            factor *= math.exp(slow.jitter * float(z))
        self._m_slow.inc()
        return factor

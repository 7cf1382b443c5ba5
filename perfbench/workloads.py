"""The benchmark's workloads: inputs from a seed, one pass, its outputs.

Every workload imports ``repro`` inside :meth:`setup`, so a set-up
after the package was dropped from ``sys.modules`` pays the import
again, and each pass calls the public entry points through module
attributes, so the span wrappers of :func:`instrument` see every call.

A pass returns an *outcome*: a dict of simulated, deterministic values
only (makespans, digests, job counts, sojourns).  Two passes of one
seed must return equal outcomes, traced or not.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

FIG8_BOOTSTRAPS = (1, 2, 4, 6, 8, 10, 12, 14, 16)


def _sha256(items) -> str:
    text = "".join(f"{k}\x1f{v}\n" for k, v in items)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Fig8Sweep:
    """Figure 8a's MGPS column: one blade, a bootstrap-count sweep."""

    name: str = "fig8-sweep"
    bootstraps: Tuple[int, ...] = FIG8_BOOTSTRAPS
    tasks_per_bootstrap: int = 300
    why: str = ("Figure 8a MGPS sweep: LLP at low task parallelism, "
                "EDTLP alone at high; drives the kernel, SMT PPE, "
                "off-load runtime and LLP with serving bypassed")

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.core import runner
        from repro.core.schedulers import mgps
        from repro.workloads.traces import Workload

        # Workload objects cache their traces, so each pass builds its
        # own: the trace synthesis is part of the work a run pays.
        return {"runner": runner, "spec": mgps, "Workload": Workload,
                "seed": seed}

    def run(self, inp: Dict[str, Any]) -> Dict[str, Any]:
        seed = inp["seed"]
        points = [
            inp["runner"].run_experiment(
                inp["spec"](),
                inp["Workload"](bootstraps=b,
                                tasks_per_bootstrap=self.tasks_per_bootstrap,
                                seed=seed),
                seed=seed,
            )
            for b in self.bootstraps
        ]
        makespans = [r.makespan for r in points]
        return {
            "makespans": makespans,
            "digests": [r.result_digest for r in points],
            "llp_invocations": [r.llp_invocations for r in points],
            "bootstraps_completed": [r.bootstraps_completed for r in points],
            "sim_makespan_s": sum(makespans),
            # Each sweep point is one bag run to completion: a job.
            "jobs": len(points),
            "outer_events": 0,
        }

    def invariants(self, out: Dict[str, Any]) -> List[Tuple[str, bool]]:
        return [("every bootstrap of every sweep point completed",
                 out["bootstraps_completed"] == list(self.bootstraps))]

    def reference(self, out: Dict[str, Any]) -> Dict[str, Any]:
        return {k: out[k] for k in ("makespans", "digests",
                                    "llp_invocations")}


def _serve_outcome(result) -> Dict[str, Any]:
    """Deterministic facts of one :class:`ServeResult`."""
    s = result.summary
    recs = result.job_records
    return {
        "digest_map_sha256": _sha256(sorted(result.digest_map().items())),
        "arrivals": s["arrivals"],
        "admitted": s["admitted"],
        "rejected": s["rejected"],
        "completed": s["completed"],
        "cancelled": s["cancelled"],
        "aborted": s["deadline_aborts"],
        "lost": result.lost_jobs,
        "sim_makespan_s": result.makespan,
        "jobs": s["completed"],
        "sojourns": [r["latency"] for r in recs],
        "waits": [r["start"] - r["submit"] for r in recs],
        "units": sum(b["units"] for b in result.per_blade),
        "compilations": result.compilations,
        "completed_bags": len({(r["template"], r["variant"]) for r in recs}),
        "outer_events": result.events_processed,
    }


def _conserved(out: Dict[str, Any]) -> bool:
    return out["admitted"] == (out["completed"] + out["cancelled"]
                               + out["aborted"] + out["lost"])


def saturated_tenants(serve) -> tuple:
    """The throughput row's mix: about 27% of offered jobs refused."""
    return serve.default_tenants(arrival_rate=0.25)


def distinct_tenants(serve) -> tuple:
    """The same three arrival kinds over 100- and 50-variant templates.

    Nearly every job is a bag not compiled yet in the run, so blade
    simulations, not the fleet queue, take the host time.
    """
    small = serve.JobTemplate("small-bag", bootstraps=2,
                              tasks_per_bootstrap=60, variants=100)
    medium = serve.JobTemplate("medium-bag", bootstraps=3,
                               tasks_per_bootstrap=100, variants=50)
    return (
        serve.TenantSpec("genomics", small, arrival="poisson",
                         arrival_rate=0.02, priority=1, deadline_s=900.0),
        serve.TenantSpec("proteomics", medium, arrival="closed", clients=2,
                         think_time_s=180.0),
        serve.TenantSpec("metagenomics", small, arrival="bursty",
                         burst_size=3, burst_interval_s=600.0,
                         rate_limit=0.05, burst=4),
    )


@dataclass(frozen=True)
class ServeWorkload:
    """A tenant mix served by 4 fixed blades under static-block dispatch."""

    name: str
    tenants: Callable[[Any], tuple]
    horizon_s: float
    why: str

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro import serve
        from repro.serve import service

        config = serve.ServeConfig(
            tenants=self.tenants(serve), duration_s=self.horizon_s,
            seed=seed, dispatch="static-block", max_blades=4,
        )
        return {"service": service, "config": config}

    def run(self, inp: Dict[str, Any]) -> Dict[str, Any]:
        return _serve_outcome(inp["service"].run_service(inp["config"]))

    def invariants(self, out: Dict[str, Any]) -> List[Tuple[str, bool]]:
        return [
            ("admitted = completed + cancelled + aborted + lost",
             _conserved(out)),
            ("no job lost", out["lost"] == 0),
        ]

    def reference(self, out: Dict[str, Any]) -> Dict[str, Any]:
        return {k: out[k] for k in ("digest_map_sha256", "completed",
                                    "rejected", "sim_makespan_s")}


@dataclass(frozen=True)
class DagBootstop:
    """The raxml workflow with bootstop, submitted twice on one cache."""

    name: str = "dag-bootstop"
    replicates: int = 400
    why: str = ("raxml workflow with bootstop, submitted cold then warm "
                "on one result cache: the only run of the DAG tier, "
                "cache, bootstop, consensus and cancellation")

    def setup(self, seed: int) -> Dict[str, Any]:
        from repro.serve import bootstop, cache, dag

        config = dag.DagConfig(
            workflow=dag.raxml_workflow(replicates=self.replicates),
            submissions=2, seed=seed, bootstop=bootstop.BootstopConfig(),
        )
        return {"dag": dag, "cache": cache, "config": config}

    def run(self, inp: Dict[str, Any]) -> Dict[str, Any]:
        result = inp["dag"].run_dag(inp["config"],
                                    cache=inp["cache"].ResultCache())
        out = _serve_outcome(result.serve)
        out.update(
            sim_makespan_s=result.makespan,
            final_digests=list(result.final_digests),
            conservation_ok=result.conservation_ok,
            bootstop_cancelled=result.bootstop_cancelled,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
        )
        return out

    def invariants(self, out: Dict[str, Any]) -> List[Tuple[str, bool]]:
        digests = out["final_digests"]
        return [
            ("cold and warm submissions agree",
             len(digests) == 2 and digests[0] == digests[1]),
            ("conservation_ok", out["conservation_ok"] and _conserved(out)),
            ("no job lost", out["lost"] == 0),
        ]

    def reference(self, out: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "final_digest": out["final_digests"][0],
            "sim_makespan_s": out["sim_makespan_s"],
            "completed": out["completed"],
            "bootstop_cancelled": out["bootstop_cancelled"],
        }


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (
        Fig8Sweep(),
        ServeWorkload(
            "serve-saturated", saturated_tenants, 72000.0,
            "the fleet loop under overload: 4 compiles serve ~13.5k jobs, "
            "so dispatch, admission and the kernel do the work",
        ),
        ServeWorkload(
            "serve-distinct", distinct_tenants, 10800.0,
            "unsaturated mix of ~140 distinct bags: blade-simulation "
            "compiles take the host time, the compile-miss counterpart",
        ),
        DagBootstop(),
    )
}


# -- wrappers around the public entry points -------------------------------

@contextlib.contextmanager
def _patched(replacements: Dict[Tuple[Any, str], Callable]) -> Iterator[None]:
    """Temporarily rebind names, restoring the originals on exit.

    A module-level function is rebound in every loaded ``repro`` module
    that holds it, so re-exports and ``from x import f`` callers see
    the replacement too.
    """
    undo = []
    try:
        for (owner, attr), new in replacements.items():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [
                    m for n, m in list(sys.modules.items())
                    if (n == "repro" or n.startswith("repro."))
                    and m.__dict__.get(attr) is original
                ]
            for o in owners:
                undo.append((o, attr, original))
                setattr(o, attr, new)
        yield
    finally:
        for o, attr, original in reversed(undo):
            setattr(o, attr, original)


def _note_run(attrs: Dict[str, Any], r) -> None:
    attrs.update(
        events=r.events_processed, offloads=r.offloads,
        ppe_fallbacks=r.ppe_fallbacks, llp_invocations=r.llp_invocations,
        spe_utilization=r.spe_utilization, raw_makespan=r.raw_makespan,
    )


def instrument(rec) -> contextlib.AbstractContextManager:
    """Record spans around every call into the layers' entry points."""
    from repro.core import runner
    from repro.serve import bootstop, cache, dag, fleet, service

    def hit(attrs, entry):
        attrs["hit"] = entry is not None

    def converged(attrs, flag):
        attrs["converged"] = bool(flag)

    spans = {
        (runner, "run_experiment"): ("run_experiment", _note_run),
        (service, "run_service"): ("run_service", None),
        (dag, "run_dag"): ("run_dag", None),
        (fleet.JobCompiler, "compile"): ("compile", None),
        (cache.ResultCache, "get"): ("cache.get", hit),
        (cache.ResultCache, "put"): ("cache.put", None),
        (bootstop.BootstopMonitor, "add"): ("bootstop.add", converged),
    }
    return _patched({
        (owner, attr): rec.wrap(name, getattr(owner, attr), note)
        for (owner, attr), (name, note) in spans.items()
    })


def metered(samples: List[Tuple[int, float]]
            ) -> contextlib.AbstractContextManager:
    """Run every blade simulation with a metrics registry attached.

    Appends ``(events, run.kernel.pool_hit_rate)`` per run to
    ``samples``.  Observability must not change any simulated outcome,
    which the caller checks.
    """
    from repro.core import runner
    from repro.obs.metrics import MetricsRegistry

    original = runner.run_experiment

    def run_metered(*args, **kwargs):
        registry = MetricsRegistry()
        kwargs["metrics"] = registry
        r = original(*args, **kwargs)
        samples.append((r.events_processed,
                        registry.get("run.kernel.pool_hit_rate").value))
        return r

    return _patched({(runner, "run_experiment"): run_metered})

"""Multi-blade cluster scaling (Section 5.5).

The paper's closing argument for MGPS: even though a 100-1000-bootstrap
analysis is task-rich on one Cell, scaling out *spreads* the bootstraps
— "running fewer bootstraps per Cell is better than clustering
bootstraps in as few Cells as possible.  With 100 bootstraps, MGPS with
multigrain (EDTLP-LLP) parallelism will outperform plain EDTLP if the
bootstraps are distributed between four or more dual-Cell blades."

A cluster here is N independent blades fed by an offline partition of
the bootstrap bag; each blade is simulated exactly as in
:func:`run_experiment` and the cluster makespan is the slowest blade's.
The partition comes from the fleet dispatch-policy registry
(:mod:`repro.serve.dispatch`) so the offline driver and the online
serving layer agree on what "static-block", "work-stealing" etc. mean;
the default ``static-block`` reproduces the historical contiguous block
distribution bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..cell.params import BladeParams
from ..serve.dispatch import resolve_dispatch
from ..workloads.traces import Workload
from .results import ScheduleResult
from .runner import run_experiment
from .schedulers import SchedulerSpec

__all__ = ["ClusterResult", "run_cluster_experiment"]


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster run."""

    scheduler: str
    total_bootstraps: int
    n_blades: int
    makespan: float                      # slowest blade, paper-scale seconds
    per_blade: Tuple[ScheduleResult, ...]
    dispatch: str = "static-block"

    @property
    def mean_spe_utilization(self) -> float:
        return sum(r.spe_utilization for r in self.per_blade) / len(
            self.per_blade
        )

    @property
    def total_llp_invocations(self) -> int:
        return sum(r.llp_invocations for r in self.per_blade)


def run_cluster_experiment(
    spec: SchedulerSpec,
    total_bootstraps: int,
    n_blades: int,
    blade: BladeParams = BladeParams(n_cells=2),
    tasks_per_bootstrap: int = 200,
    seed: int = 0,
    dispatch: str = "static-block",
) -> ClusterResult:
    """Simulate ``total_bootstraps`` spread over ``n_blades`` blades.

    Blades run independently (inter-node MPI only hands out disjoint
    bootstrap blocks up front), so the cluster makespan is the maximum
    blade makespan.  Per-blade workloads draw distinct trace seeds so no
    two blades see identical jitter.

    ``dispatch`` selects the partition from the fleet dispatch registry
    (see :func:`repro.serve.dispatch.available_dispatch_policies`); the
    default ``static-block`` is the historical contiguous layout.
    """
    policy = resolve_dispatch(dispatch).factory()
    blocks = policy.partition(total_bootstraps, n_blades)
    results: List[ScheduleResult] = []
    for blade_id, block in enumerate(blocks):
        wl = Workload(
            bootstraps=len(block),
            tasks_per_bootstrap=tasks_per_bootstrap,
            seed=seed + 104729 * blade_id,
        )
        results.append(run_experiment(spec, wl, blade=blade, seed=seed))
    return ClusterResult(
        scheduler=spec.name,
        total_bootstraps=total_bootstraps,
        n_blades=n_blades,
        makespan=max(r.makespan for r in results),
        per_blade=tuple(results),
        dispatch=dispatch,
    )

"""Simulated MPI substrate: communicator, master-worker, worker processes."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "comm": ("SimComm",),
    "master_worker": ("WorkDispenser",),
    "process": ("bsp_worker", "mpi_worker"),
})

"""A discrete-event model of the Cell Broadband Engine.

Substitutes for the (now unobtainable) Cell blade hardware the paper ran
on: a dual-thread SMT PPE with an OS run queue, eight SPEs with 256 KB
local stores and code-image management, MFC DMA engines implementing the
documented transfer rules, and the Element Interconnect Bus.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "eib": ("EIB",),
    "local_store": ("CodeImage", "LocalStore", "LocalStoreOverflow"),
    "machine": ("CellMachine", "SPEPool"),
    "mfc": ("MFC", "DmaRequest", "legal_transfer_size"),
    "params": ("BladeParams", "CellParams", "DEFAULT_BLADE", "DEFAULT_CELL"),
    "smt": ("CoreThread", "SMTCore"),
    "spe": ("SPE",),
})

"""A libspe2-flavoured programming façade over the simulated Cell.

The level a hand-written Cell application works at: SPE contexts,
program images, mailboxes, and SPU-side DMA — see
``examples/cellsdk_by_hand.py``.  The paper's runtime (:mod:`repro.core`)
automates everything this API makes manual.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "context": ("SpeContext", "spe_context_create"),
    "program": ("SpeProgram", "SpuRuntime"),
})

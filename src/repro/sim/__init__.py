"""A small deterministic discrete-event simulation kernel.

This package is the substrate under every experiment in the reproduction:
generator-based processes, an event calendar with deterministic
tie-breaking, counted resources, FIFO stores, broadcast gates, named RNG
streams and busy-time tracking.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "engine": ("EmptySchedule", "Environment"),
    "events": ("AllOf", "AnyOf", "Event", "Interrupt", "Timeout"),
    "process": ("Process",),
    "resources": ("Barrier", "Gate", "Request", "Resource", "Store"),
    "rng": ("RngStreams",),
    "trace": ("BusyTracker", "TraceRecord", "Tracer"),
})

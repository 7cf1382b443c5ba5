"""Comparator processor models for the cross-platform evaluation."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "base": ("SMTMultiprocessor",),
    "machines": ("POWER5", "XEON_2X_HT", "power5", "xeon"),
})

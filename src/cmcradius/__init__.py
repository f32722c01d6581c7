"""Numerical verification lab for radius bounds of nearly stable CMC hypersurfaces."""

import importlib

__version__ = "0.1.0"

# Submodules load on first use: `bound` and `cap` need no numpy.
_SUBMODULES = ("algebra", "bounds", "discrete", "mesh", "report", "spaceforms")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


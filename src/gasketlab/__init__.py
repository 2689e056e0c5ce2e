"""Circle packing fractals, their canonical energy forms and spectra.

Submodules load on first use (PEP 562): ``import gasketlab`` loads no numpy.
"""

import importlib

__all__ = ["carpet", "checks", "cli", "errors", "forms", "gasket", "geom", "spectra", "svg"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

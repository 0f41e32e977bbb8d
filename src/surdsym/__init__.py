"""surdsym: exact classification of indefinite binary quadratic forms by the
symmetry type of their continued-fraction periods.

Importing the package loads only the single-form modules (``forms``,
``exact``, ``cf``, ``periods``).  The census exports, and with them
``multiprocessing``, load on first access (PEP 562).
"""

from .forms import Form
from .cf import cf_surd, modular_cf_surd
from .periods import ClassReport, SymmetryType, classify_class

__version__ = "0.1.0"

__all__ = [
    "Form", "cf_surd", "modular_cf_surd", "ClassReport", "SymmetryType",
    "classify_class", "full_census", "stats_rows",
]


def __getattr__(name):
    # Not cached in the package: each access reads the census module's
    # current binding.
    if name in ("full_census", "stats_rows"):
        from . import census
        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

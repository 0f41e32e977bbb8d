"""surdsym: exact classification of indefinite binary quadratic forms by the
symmetry type of their continued-fraction periods."""

from .forms import Form
from .cf import cf_surd, modular_cf_surd
from .periods import ClassReport, SymmetryType, classify_class
from .census import full_census, stats_rows

__version__ = "0.1.0"

__all__ = [
    "Form", "cf_surd", "modular_cf_surd", "ClassReport", "SymmetryType",
    "classify_class", "full_census", "stats_rows",
]

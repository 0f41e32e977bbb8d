"""The package root: what ``import surdsym`` loads, and its exports."""

import json

from test_reduction import run_in_child

# Modules that classifying one form never needs.
NOT_AT_IMPORT = ("surdsym.census", "surdsym.reduction", "surdsym.oracle",
                 "surdsym.cli", "multiprocessing", "fractions", "dataclasses",
                 "inspect")


def test_import_loads_only_the_single_form_library():
    proc = run_in_child(
        "import json, sys\n"
        "import surdsym\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {m for m in loaded if m.startswith("surdsym")} == {
        "surdsym", "surdsym.forms", "surdsym.exact", "surdsym.cf",
        "surdsym.periods"}
    assert not loaded & set(NOT_AT_IMPORT)


def test_census_exports_resolve_on_first_use():
    proc = run_in_child(
        "import surdsym\n"
        "reports = surdsym.full_census(100)\n"
        "rows = surdsym.stats_rows(100)\n"
        "assert sum(map(len, reports.values())) == sum(r.total for r in rows)\n"
        "assert list(reports) == [r.delta for r in rows]\n"
        "namespace = {}\n"
        "exec('from surdsym import *', namespace)\n"
        "assert set(surdsym.__all__) <= set(namespace) <= set(dir(surdsym))\n"
        "assert not hasattr(surdsym, 'no_such_name')\n"
        "print(len(rows))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "50\n"


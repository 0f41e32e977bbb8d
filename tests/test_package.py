"""The package root: what ``import surdsym`` loads, and its exports."""

import ast
import json
import re
from pathlib import Path

import surdsym
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



# Public names that only the tests and benchmarks/ call.
UNCALLED_BUT_KEPT = {
    "period_to_forms",  # imported by benchmarks/, goes with ROADMAP item 1b
    "classify_period",  # imported by benchmarks/, goes with ROADMAP item 1b
    "classify_square",  # imported by benchmarks/, goes with ROADMAP item 1b
}


def test_every_public_engine_function_has_a_caller():
    """Every public top-level function and public method of cf, periods,
    census and reduction is referenced, as a name or an attribute, somewhere
    in surdsym's code (docstrings and comments do not count), or is named
    in README's "Library" section.  oracle, the reference module, and forms,
    the paper's vocabulary, are out of scope."""
    package = Path(surdsym.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\w+", library))
    defined = []
    for module in ("cf", "periods", "census", "reduction"):
        for node in trees[module].body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [f"{module}.{fn.name}" for fn in members
                        if isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")]
    assert len(defined) > 20
    uncalled = [name for name in defined
                if name.rpartition(".")[2] not in used | named
                | UNCALLED_BUT_KEPT]
    assert uncalled == []

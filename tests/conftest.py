"""Session wiring for acceptance criterion 6, the property suite.

Each property of test_properties.py runs once per pytest session.  When the
session holds criterion 6 but not the properties (``pytest
tests/test_acceptance.py``), they are collected here; the criterion is moved
after them and passes when every one of them passed.
"""
from pathlib import Path

import pytest

PROPERTIES = Path(__file__).with_name("test_properties.py")
CRITERION = "test_criterion_6_property_suite"
_outcomes = pytest.StashKey[dict]()


def pytest_configure(config):
    config.stash[_outcomes] = {}


@pytest.hookimpl(trylast=True)  # after -k and --deselect have filtered items
def pytest_collection_modifyitems(session, config, items):
    gates = [item for item in items if item.name == CRITERION]
    if not gates:
        return
    props = [item for item in items if item.path == PROPERTIES]
    if not props:
        parent = gates[0].getparent(pytest.Module).parent
        props = list(session.genitems(
            pytest.Module.from_parent(parent, path=PROPERTIES)))
        items[:0] = props
    for gate in gates:
        items.remove(gate)
    items.extend(gates)
    config.stash[_outcomes].update(dict.fromkeys(item.nodeid for item in props))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    outcomes = item.config.stash[_outcomes]
    if item.nodeid in outcomes and (report.when == "call" or report.failed):
        outcomes[item.nodeid] = report.passed
    return report


@pytest.fixture
def property_outcomes(request):
    """{node id: passed (None if it did not run)} for the session's properties."""
    return request.config.stash[_outcomes]

"""Table output against the whole-list reference renderers: the same bytes
for every format of table, stats and classify, on stdout and with --out."""

import pytest

from surdsym.census import full_census, stats_rows
from surdsym.cli import (NONZERO_FIELDS, STATS_FIELDS, ZERO_FIELDS,
                         _report_record, _stat_record, main)
from surdsym.forms import Form
from surdsym.periods import classify_class
from tables_by_whole_list import render

FORMATS = ("csv", "json", "md")


def stdout_of(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def census():
    return {delta_max: full_census(delta_max) for delta_max in (4, 2000)}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("delta_max", [4, 2000])
@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("fmt", FORMATS)
def test_table_matches_reference(capsys, census, fmt, zero, delta_max, jobs):
    records = [_report_record(r) for reports in census[delta_max].values()
               for r in reports if r.square == zero]
    assert records or (delta_max, zero) == (4, False)  # the empty table
    want = render(records, ZERO_FIELDS if zero else NONZERO_FIELDS, fmt)
    which = ["--which", "zero"] if zero else []
    got = stdout_of(capsys, "table", "--delta-max", str(delta_max),
                    "--jobs", jobs, "--format", fmt, *which)
    assert got == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_matches_reference(capsys, fmt):
    records = [_stat_record(row) for row in stats_rows(300)]
    assert stdout_of(capsys, "stats", "--delta-max", "300", "--format", fmt) \
        == render(records, STATS_FIELDS, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("form, fields", [((2, -1, -3), NONZERO_FIELDS),
                                          ((5, 7, 22), NONZERO_FIELDS),
                                          ((2, 0, 5), ZERO_FIELDS)])
def test_classify_matches_reference(capsys, fmt, form, fields):
    record = _report_record(classify_class(Form(*form)))
    assert stdout_of(capsys, "classify", *map(str, form), "--format", fmt) \
        == render([record], fields, fmt)


@pytest.mark.parametrize("argv", [
    *(("table", "--format", fmt) for fmt in FORMATS),
    ("table", "--which", "zero", "--format", "md"),
    ("stats", "--format", "json")])
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    argv = (*argv, "--delta-max", "300", "--jobs", "2")
    target = tmp_path / "table.out"
    assert stdout_of(capsys, *argv, "--out", str(target)) == ""
    assert target.read_bytes() == stdout_of(capsys, *argv).encode()

"""Table output against the whole-list reference renderers: the same bytes
for every format of table, stats and classify, on stdout and with --out;
and the bytes of every command pinned by their sha256."""

from hashlib import sha256

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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("delta_max", [300, 2000])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stats_matches_reference(capsys, fmt, delta_max, jobs):
    records = [_stat_record(row) for row in stats_rows(delta_max)]
    assert stdout_of(capsys, "stats", "--delta-max", str(delta_max),
                     "--jobs", jobs, "--format", fmt) \
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


# The first 16 hex digits of the sha256 of each command's stdout, pinned
# from an earlier version: the bytes of every table, stats and check
# (the same for any --jobs) and of the single-form commands.
PINNED_DIGESTS = [
    (("table", "--format", "csv"), "ab81fa0837843148"),
    (("table", "--format", "json"), "4dd9775d3a1088f1"),
    (("table", "--format", "md"), "e1d465edd6d74960"),
    (("table", "--which", "zero", "--format", "csv"), "6a1f791e55c367a0"),
    (("table", "--which", "zero", "--format", "json"), "b5e3ed3d18b3a8ba"),
    (("table", "--which", "zero", "--format", "md"), "c42cf48ceabf0585"),
    (("stats", "--format", "csv"), "1414a6ad229214ed"),
    (("stats", "--format", "json"), "7718167d8e181116"),
    (("check",), "4299d0fe38849ada"),
    (("classify", "2", "-1", "-3", "--format", "md"), "3850ecbc818135c6"),
    (("classify", "2", "-1", "-3", "--format", "csv"), "25a06b8b99736945"),
    (("classify", "2", "-1", "-3", "--format", "json"), "c38d4a1af078d7d4"),
    (("period", "2", "-1", "-3"), "d14216eb5d1dc6b5"),
    (("reduce", "2", "-1", "-3"), "d9279d32b383f1cd"),
    (("modular", "2", "-1", "-3"), "42453ad01436188f"),
    (("orbit", "2", "-1", "-3"), "87d80242f8bd1bcb"),
    (("classify", "5", "7", "22", "--format", "md"), "c80704590cde7bf2"),
    (("classify", "5", "7", "22", "--format", "csv"), "62697e218bc92fa5"),
    (("classify", "5", "7", "22", "--format", "json"), "665e104ec1481c96"),
    (("period", "5", "7", "22"), "7756e397b2e3a7d2"),
    (("reduce", "5", "7", "22"), "a3dce2cc1a17c94b"),
    (("modular", "5", "7", "22"), "0c906c2a1b099b13"),
    (("orbit", "5", "7", "22"), "d5223df8a42c21d3"),
    # Disguised forms of 106 bits whose preperiod reduce_to_H0 reads off
    # the walk of f, by each rewriting of its digits: a_1 >= 2, then a_1 = 1.
    (("reduce", "8217673018733628407887655561177",
      "55509172426419958943389186160330", "42715628453334219567514459656506"),
     "da52a9d5f647b7b9"),
    (("reduce", "-57074212240122951014887484012815",
      "-473799084087270499776345510643", "-10400328741799027818799154846265"),
     "88aae1534817c2e1"),
]


@pytest.mark.parametrize("argv, digest", PINNED_DIGESTS,
                         ids=["/".join(argv) for argv, _ in PINNED_DIGESTS])
def test_output_bytes_are_pinned(capsys, argv, digest):
    """Sweeps run to delta 3000 in a pool of two workers."""
    if argv[0] in ("table", "stats", "check"):
        argv = (*argv, "--delta-max", "3000", "--jobs", "2")
    out = stdout_of(capsys, *argv).encode()
    assert sha256(out).hexdigest()[:16] == digest

"""Command-line interface: output formats, exit codes, file output."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import surdsym.census
from surdsym.census import _windows, check_census
from surdsym.cli import _orbit_tour, build_parser, main
from surdsym.forms import Form, InternalError
from surdsym.reduction import reduced_cycle
from palindromes_by_rotation import least_rotation_by_rotation
from test_reduction import NONSQUARE_GRID
from tour_by_h0_walk import tour_by_h0_walk


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestClassify:
    def test_markdown_worked_example(self, capsys):
        rc, out, err = run(capsys, "classify", "2", "-1", "-3")
        assert rc == 0 and err == ""
        assert out == (
            "| delta | m | n  | k  | gamma   | p | t  | t_up | t_down "
            "| symmetry | star |\n"
            "| ----- | - | -- | -- | ------- | - | -- | ---- | ------ "
            "| -------- | ---- |\n"
            "| 17    | 2 | -1 | -3 | [1,1,3] | 3 | 10 | 5    | 5      "
            "| super    | 0    |\n")

    def test_csv_round_trips(self, capsys):
        rc, out, _ = run(capsys, "classify", "2", "-1", "-3",
                         "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["delta"] == "17" and rows[0]["gamma"] == "[1,1,3]"
        assert rows[0]["symmetry"] == "super" and rows[0]["star"] == "0"

    def test_json_round_trips(self, capsys):
        rc, out, _ = run(capsys, "classify", "2", "-1", "-3",
                         "--format", "json")
        assert rc == 0
        (rec,) = json.loads(out)
        assert rec["delta"] == 17 and rec["t"] == 10
        assert rec["gamma"] == "[1,1,3]"

    def test_square_form_uses_cf_columns(self, capsys):
        rc, out, _ = run(capsys, "classify", "1", "0", "3")
        assert rc == 0
        assert "| cf  | l |" in out
        assert "| 9     | 1 | 0 | 3 | [3] | 1 | 2 | 1    | 0      " in out

    def test_not_indefinite_is_an_error(self, capsys):
        rc, out, err = run(capsys, "classify", "1", "1", "1")
        assert rc == 1 and out == ""
        assert err == "error: form (1,1,1) is not indefinite (delta=-3)\n"


class TestSmallCommands:
    def test_period(self, capsys):
        rc, out, _ = run(capsys, "period", "2", "-1", "-3")
        assert rc == 0 and out == "preperiod []\nperiod [1,1,3]\n"

    def test_period_with_preperiod(self, capsys):
        rc, out, _ = run(capsys, "period", "1", "-1", "1")
        assert rc == 0 and out == "preperiod [0]\nperiod [1]\n"

    def test_period_zero_m_reroutes(self, capsys):
        rc, out, _ = run(capsys, "period", "0", "-2", "3")
        assert rc == 0 and out == "preperiod [-2,2]\nperiod []\n"

    def test_period_of_zero_form_is_an_error(self, capsys):
        rc, out, err = run(capsys, "period", "0", "0", "5")
        assert rc == 1 and out == ""
        assert err == ("error: form (0,0,5) has m = n = 0: its roots are 0 "
                       "and infinity, so xi_plus has no continued fraction\n")

    def test_counts(self, capsys):
        rc, out, _ = run(capsys, "counts", "2", "-1", "-3")
        assert rc == 0 and out == "t=10 t_up=5 t_down=5\n"

    def test_modular_pure(self, capsys):
        rc, out, _ = run(capsys, "modular", "2", "4", "-7")
        assert rc == 0 and out == "((3,5,3,2,2))\n"

    def test_modular_with_head(self, capsys):
        rc, out, _ = run(capsys, "modular", "2", "-1", "-3")
        assert rc == 0 and out == "[2] ((5,3,2,2,3))\n"

    def test_reduce(self, capsys):
        rc, out, _ = run(capsys, "reduce", "2", "4", "-7")
        assert rc == 0
        assert out == "form (2,-2,1)\nword A^2\ninvolution identity\n"


class TestOrbit:
    def test_cycle_tour(self, capsys):
        rc, out, _ = run(capsys, "orbit", "5", "-3", "-13")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].split("  ")[1] == "[2,1,4]"
        # every listed form lies on the H0 cycle of the input's class
        for ln in lines:
            m, n, k = map(int, ln.split("  ")[0].split())
            assert m > 0 > n

    def test_bounded_bfs(self, capsys):
        rc, out, _ = run(capsys, "orbit", "1", "-1", "-1",
                         "--all", "--bound", "4")
        assert rc == 0
        lines = out.strip().split("\n")
        assert "1 -1 -1  H0" in lines
        assert "-1 1 1  H0R" in lines
        assert all(len(ln.split("  ")) == 2 for ln in lines)
        assert len(lines) == len(set(lines)) > 4

    def test_all_requires_bound(self, capsys):
        rc, out, err = run(capsys, "orbit", "1", "-1", "-1", "--all")
        assert rc == 1 and err.startswith("error: --all requires --bound")
        rc, out, err = run(capsys, "orbit", "2", "-1", "-3", "--all",
                           "--bound", "0")
        assert rc == 1 and out == ""
        assert err == "error: coeff_bound must be positive\n"

    def test_square_normal_form(self, capsys):
        rc, out, _ = run(capsys, "orbit", "2", "2", "-5")
        assert rc == 0 and out == "2 0 3  normal form\n"

    @pytest.mark.parametrize("form", [("2", "2", "-5"), ("5", "-3", "-13")])
    def test_bound_requires_all(self, capsys, form):
        rc, out, err = run(capsys, "orbit", *form, "--bound", "3")
        assert rc == 1 and out == ""
        assert err == "error: --bound requires --all\n"

    def test_tour_matches_h0_walk_on_grid(self):
        for f in NONSQUARE_GRID:
            assert _orbit_tour(f) == tour_by_h0_walk(f), f

    def test_tour_of_huge_coefficients_is_fast(self):
        # The H0 cycle of this class has t = 4 * 10**12 forms.
        t0 = time.perf_counter()
        lines = _orbit_tour(Form(1, -10 ** 24 - 1, 0))
        assert time.perf_counter() - t0 < 0.05
        assert len(lines) == 2


class TestTable:
    def test_csv_delta_20(self, capsys):
        rc, out, _ = run(capsys, "table", "--delta-max", "20",
                         "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("delta,m,n,k,gamma,p,t,t_up,t_down,"
                            "symmetry,star")
        assert lines[1] == "5,1,-1,-1,[1],1,2,1,1,super,0"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {int(r["delta"]) for r in rows} == {5, 8, 12, 13, 17, 20}
        starred = [r for r in rows if r["star"] == "1"]
        assert len(starred) == 1 and starred[0]["delta"] == "20"

    def test_gamma_cells_quote_commas(self, capsys):
        rc, out, _ = run(capsys, "table", "--delta-max", "12",
                         "--format", "csv")
        assert rc == 0 and '"[1,2]"' in out

    def test_zero_table_lists_squares(self, capsys):
        rc, out, _ = run(capsys, "table", "--delta-max", "16",
                         "--which", "zero", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {int(r["delta"]) for r in rows} == {1, 4, 9, 16}
        assert all(r["n"] == "0" for r in rows)
        assert rows[0]["cf"] == "[]"  # the (0,0,1) row

    def test_jobs_do_not_change_bytes(self, capsys):
        rc1, out1, _ = run(capsys, "table", "--delta-max", "2000",
                           "--format", "csv", "--jobs", "1")
        rc2, out2, _ = run(capsys, "table", "--delta-max", "2000",
                           "--format", "csv", "--jobs", "3")
        assert rc1 == rc2 == 0 and out1 == out2

    def test_pool_gets_no_more_workers_than_windows(self, capsys,
                                                     monkeypatch):
        """A pool of 100,000 workers would ask the OS for as many
        processes.  The pool here is an in-process fake that records the
        size asked for, so no process starts."""
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, iterable, chunksize=None):
                return list(map(func, iterable))

        monkeypatch.setattr(surdsym.census, "Pool", InProcessPool)
        argv = ("table", "--delta-max", "300", "--format", "csv", "--jobs")
        rc, out, _ = run(capsys, *argv, "100000")
        assert sizes and max(sizes) <= len(_windows(300))
        assert (rc, out) == run(capsys, *argv, "1")[:2]

    @pytest.mark.parametrize("argv", [
        ("table", "--format", "csv"), ("table", "--format", "json"),
        ("table", "--format", "md"),
        ("table", "--which", "zero", "--format", "csv"),
        ("table", "--which", "zero", "--format", "json"),
        ("table", "--which", "zero", "--format", "md"),
        ("stats", "--format", "csv"), ("stats", "--format", "json"),
        ("check",)])
    def test_sweep_bytes_equal_for_jobs_1_2_3(self, capsys, argv):
        outs = [run(capsys, *argv, "--delta-max", "2000", "--jobs", jobs)
                for jobs in ("1", "2", "3")]
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("argv, keys", [
        (("table",), "delta m n k t t_up t_down symmetry star gamma p"),
        (("table", "--which", "zero"),
         "delta m n k t t_up t_down symmetry star cf l"),
        (("stats",), "delta square total count_super frac_super count_k frac_k "
                     "count_mpn frac_mpn count_anti frac_anti count_asymm "
                     "frac_asymm")])
    def test_json_key_order(self, capsys, argv, keys):
        rc, out, _ = run(capsys, *argv, "--delta-max", "20", "--format", "json")
        assert rc == 0
        assert all(list(rec) == keys.split() for rec in json.loads(out))

    def test_bad_delta_max(self, capsys):
        rc, _, err = run(capsys, "table", "--delta-max", "0")
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.parametrize("command", ["table", "stats", "check"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs(self, capsys, command, jobs):
        rc, out, err = run(capsys, command, "--delta-max", "50",
                           "--jobs", jobs)
        assert rc == 1 and out == ""
        assert err == "error: --jobs must be >= 1\n"

    def test_markdown_renders(self, capsys):
        rc, out, _ = run(capsys, "table", "--delta-max", "8")
        assert rc == 0
        assert out.startswith("| delta |")
        assert out.count("\n") == 4  # header, rule, two classes


class TestStats:
    def test_csv_shape_and_exact_fractions(self, capsys):
        rc, out, _ = run(capsys, "stats", "--delta-max", "60",
                         "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["delta"] for r in rows][:4] == ["1", "4", "5", "8"]
        for r in rows:
            fracs = [Fraction(r[f"frac_{s}"])
                     for s in ("super", "k", "mpn", "anti", "asymm")]
            counts = [int(r[f"count_{s}"])
                      for s in ("super", "k", "mpn", "anti", "asymm")]
            total = int(r["total"])
            assert sum(fracs) == 1
            assert sum(counts) == total
            assert fracs == [Fraction(c, total) for c in counts]
        nine = next(r for r in rows if r["delta"] == "9")
        assert nine["square"] == "1" and nine["frac_k"] == "2/3"

    def test_json_fractions_are_strings(self, capsys):
        rc, out, _ = run(capsys, "stats", "--delta-max", "9",
                         "--format", "json")
        assert rc == 0
        recs = json.loads(out)
        assert recs[-1]["frac_k"] == "2/3"

    def test_default_format_is_csv(self, capsys):
        assert (run(capsys, "stats", "--delta-max", "60") ==
                run(capsys, "stats", "--delta-max", "60", "--format", "csv"))


def _largest_process_kib(tmp_path, *argv) -> int:
    """The largest resident set, in KiB, of the CLI run with argv in a
    fresh interpreter and its pool: the interpreter's own high-water mark
    (VmHWM, which exec resets) and its workers' (RUSAGE_CHILDREN)."""
    src = str(Path(surdsym.census.__file__).resolve().parents[1])
    code = (
        "import re, resource, sys\n"
        "from surdsym.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "hwm = int(re.search(r'VmHWM:\\s+(\\d+)', status).group(1))\n"
        "kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(max(hwm, kids))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv,
                           "--out", str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_stats_memory_stays_flat(tmp_path):
    """Windows are sieved in the workers and results are written as they
    come, so the largest process of ``stats --jobs 2`` grows by at most a
    quarter from delta <= 10**4 to 4 * 10**4 (it doubled when the parent
    sieved the whole range and held every result)."""
    small, large = (_largest_process_kib(tmp_path, "stats", "--delta-max",
                                         str(n), "--jobs", "2")
                    for n in (10_000, 40_000))
    assert large <= 1.25 * small, (small, large)


class TestSumRule:
    """The sum-rule gate of ``surdsym check``."""

    def test_count_matches_library(self, capsys):
        deltas, checked, violations = check_census(600)
        rc, out, err = run(capsys, "check", "--delta-max", "600")
        assert rc == 0 and err == "" and violations == []
        assert out == (f"checked {deltas} discriminants and {checked} "
                       f"super/anti/(m+n) classes with delta <= 600: "
                       f"0 violations\n")

    def test_jobs_do_not_change_bytes(self, capsys):
        assert (run(capsys, "check", "--delta-max", "600", "--jobs", "1") ==
                run(capsys, "check", "--delta-max", "600", "--jobs", "3"))

    def test_violation_exits_2(self, capsys, monkeypatch):
        """Each printed period is the representative's minus period, from
        the step after it: a rotation of its reduced cycle's period."""
        monkeypatch.setattr(surdsym.census, "check_sum_rule",
                            lambda runs, symmetry: False)
        rc, out, _ = run(capsys, "check", "--delta-max", "13")
        assert rc == 2
        assert out == (
            "VIOLATION delta=5 gate=sum-rule rep=(1,-1,-1) symmetry=super "
            "period=((3))\n"
            "VIOLATION delta=8 gate=sum-rule rep=(1,-2,0) symmetry=super "
            "period=((2,4))\n"
            "VIOLATION delta=13 gate=sum-rule rep=(1,-3,-1) symmetry=super "
            "period=((2,2,5))\n"
            "checked 7 discriminants and 3 super/anti/(m+n) classes with "
            "delta <= 13: 3 violations\n")
        for rep, period in (((1, -1, -1), (3,)), ((1, -2, 0), (2, 4)),
                            ((1, -3, -1), (2, 2, 5))):
            cycle = reduced_cycle(Form(*rep)).modular_period
            assert least_rotation_by_rotation(period) == \
                least_rotation_by_rotation(cycle)

    def test_check_runs_no_regular_walk(self, capsys, monkeypatch):
        """With the regular preperiod walk, the reduced cycle and the reduced
        representative raising, wherever a surdsym module binds them, the
        checker's answers and bytes are unchanged, serial and in workers."""
        expected = (check_census(600),
                    run(capsys, "check", "--delta-max", "600"))

        def no_regular_walk(*args):
            raise AssertionError(f"a regular walk from {args}")

        names = ("_preperiod_walk", "reduced_cycle", "_reduced_representative")
        patched = 0
        for module in [m for name, m in sys.modules.items()
                       if name.split(".")[0] == "surdsym"]:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_regular_walk)
                    patched += 1
        assert patched >= 5  # cf, cli and reduction bind the three names
        assert (check_census(600),
                run(capsys, "check", "--delta-max", "600", "--jobs", "2")) \
            == expected
        assert expected[0][2] == [] and expected[1][0] == 0


class TestCheck:
    def test_bad_delta_max(self, capsys):
        rc, out, err = run(capsys, "check", "--delta-max", "0")
        assert rc == 1 and out == ""
        assert err == "error: --delta-max must be >= 1\n"

    def test_takes_only_the_sweep_options(self):
        sub = build_parser()._subparsers._group_actions[0].choices["check"]
        assert {o for a in sub._actions for o in a.option_strings} == \
            {"-h", "--help", "--delta-max", "--jobs", "--out"}

    def test_violations_go_to_out_and_exit_2(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setattr(surdsym.census, "h0_point_count", lambda d: 0)
        target = tmp_path / "check.txt"
        rc, out, _ = run(capsys, "check", "--delta-max", "5",
                         "--out", str(target))
        assert rc == 2 and out == ""
        assert target.read_text() == (
            "VIOLATION delta=4 gate=h0-points sum_t=1 expected=0\n"
            "VIOLATION delta=5 gate=h0-points sum_t=2 expected=0\n"
            "checked 3 discriminants and 1 super/anti/(m+n) classes with "
            "delta <= 5: 2 violations\n")

    def test_failed_run_leaves_no_out_file(self, capsys, monkeypatch,
                                           tmp_path):
        def broken(reports):
            raise InternalError("gate broke")
        monkeypatch.setattr(surdsym.census, "_gate_violations", broken)
        rc, out, err = run(capsys, "check", "--delta-max", "50",
                           "--out", str(tmp_path / "check.txt"))
        assert rc == 2 and out == "" and err == "internal error: gate broke\n"
        assert os.listdir(tmp_path) == []


USAGE_ERRORS = [
    ["table", "--delta-max", "10", "--format", "xml"],
    ["stats", "--delta-max", "10", "--format", "md"],
    ["classify", "1", "2"],
    ["table", "--delta-max", "abc"],
    ["sumrule"],
    ["sumrule", "--delta-max", "10"],
    ["check"],
    ["check", "--delta-max", "10", "--format", "csv"],
    ["frobnicate"],
    [],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS,
                         ids=[" ".join(a) or "(none)" for a in USAGE_ERRORS])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert err.startswith("usage: surdsym")


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: surdsym")
    if argv[0] == "check":  # every gate of census._gate_violations
        gates = "".join(out.split())  # argparse may wrap at a hyphen
        for gate in ("h0-points", "t-balance", "square-type", "sum-rule",
                     "t-up", "ambiguous", "parity"):
            assert gate in gates, gate


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_1_quietly(jobs):
    """A reader that closes the pipe after one line ends the run with exit
    1 and nothing on stderr, pool and all."""
    src = str(Path(surdsym.census.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "surdsym.cli", "table", "--delta-max", "3000",
         "--format", "csv", "--jobs", jobs],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"delta,m,n,k")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


class TestOutAndEntry:
    def test_out_writes_file_and_silences_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        rc, out, _ = run(capsys, "table", "--delta-max", "20",
                         "--format", "csv", "--out", str(target))
        assert rc == 0 and out == ""
        text = target.read_text()
        assert text.startswith("delta,m,n,k,gamma")
        assert "5,1,-1,-1,[1],1,2,1,1,super,0" in text
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_text("old bytes\n")
        real_fdopen = os.fdopen

        class HalfWriter:
            """Writes half the text, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(os, "fdopen",
                            lambda *a, **kw: HalfWriter(real_fdopen(*a, **kw)))
        rc, out, err = run(capsys, "table", "--delta-max", "20",
                           "--format", "csv", "--out", str(target))
        assert rc == 1 and out == ""
        assert err == "error: no space left on device\n"
        assert target.read_text() == "old bytes\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_out_path_that_cannot_be_written(self, capsys, tmp_path):
        """--out into a missing directory, or onto a directory, exits 1
        with an error line, and leaves no temp file beside the target."""
        target = tmp_path / "dir"
        target.mkdir()
        for out_path in (tmp_path / "missing" / "table.csv", target):
            rc, out, err = run(capsys, "table", "--delta-max", "20",
                               "--out", str(out_path))
            assert rc == 1 and out == "" and err.startswith("error: "), err
            assert os.listdir(tmp_path) == ["dir"]
            assert os.listdir(target) == []

    def test_failure_mid_stream_keeps_old_file(self, capsys, monkeypatch,
                                               tmp_path):
        """A sweep that fails after its first windows were written exits 2
        and leaves the old --out file and no temp file; on stdout the rows
        written before the failure stay."""
        real = surdsym.census.census_for_delta

        def broken(delta, states=None):
            if delta > 1500:
                raise InternalError(f"broke at {delta}")
            return real(delta, states)
        monkeypatch.setattr(surdsym.census, "census_for_delta", broken)
        target = tmp_path / "table.csv"
        target.write_text("old bytes\n")
        argv = ("table", "--delta-max", "3000", "--format", "csv", "--jobs", "1")
        rc, out, err = run(capsys, *argv, "--out", str(target))
        assert rc == 2 and out == "" and err.startswith("internal error: broke")
        assert target.read_text() == "old bytes\n"
        assert os.listdir(tmp_path) == ["table.csv"]
        rc, out, _ = run(capsys, *argv)
        assert rc == 2 and out.startswith("delta,m,n,k,gamma")
        assert "\n1000," in out and "\n1501," not in out

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        names = set(sub.choices)
        assert names == {"classify", "period", "counts", "reduce",
                         "modular", "orbit", "table", "stats", "check"}

    @pytest.mark.skipif(shutil.which("surdsym") is None,
                        reason="console script not installed")
    def test_console_script(self):
        proc = subprocess.run(["surdsym", "counts", "2", "-1", "-3"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "t=10 t_up=5 t_down=5\n"

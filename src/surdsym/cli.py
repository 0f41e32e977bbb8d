"""Command-line interface: classify, period, counts, reduce, modular, orbit,
table, stats, check.

Exit codes: 0 success, 1 input error (an --out that cannot be written and
a reader that closes stdout too), 2 internal-consistency failure.
All enumeration output is deterministic (delta ascending, representatives in
lexicographic order) and byte-stable across --jobs settings.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence

# census (and multiprocessing with it) is imported here, not when a sweep
# command runs: the benchmark's tracer wraps only the modules that are
# loaded when it installs.
from .census import StatRow, _stat_rows, _sweep, check_census
from .cf import (_period_walk, _preperiod_walk, _state_form, cf_surd,
                 modular_cf_surd)
from .exact import is_square
from .forms import (Form, InternalError, antipodal, complementary,
                    discriminant, domain_of, require_indefinite, word_str)
from .oracle import orbit_bfs
from .periods import ClassReport, classify_class, normalize_square_form
from .reduction import reduce_to_H0


def _seq(xs: Sequence[int], left: str = "[", right: str = "]") -> str:
    return left + ",".join(map(str, xs)) + right


NONZERO_FIELDS = ("delta", "m", "n", "k", "gamma", "p", "t", "t_up", "t_down",
                  "symmetry", "star")
ZERO_FIELDS = ("delta", "m", "n", "k", "cf", "l", "t", "t_up", "t_down",
               "symmetry", "star")
STATS_FIELDS = ("delta", "square", "total",
                "count_super", "count_k", "count_mpn", "count_anti", "count_asymm",
                "frac_super", "frac_k", "frac_mpn", "frac_anti", "frac_asymm")

# JSON objects keep their established key order, which is not the column
# order: a report's period fields come last, and each count is followed by
# its fraction.
JSON_KEYS = {
    NONZERO_FIELDS: NONZERO_FIELDS[:4] + NONZERO_FIELDS[6:] + NONZERO_FIELDS[4:6],
    ZERO_FIELDS: ZERO_FIELDS[:4] + ZERO_FIELDS[6:] + ZERO_FIELDS[4:6],
    STATS_FIELDS: STATS_FIELDS[:3] + tuple(
        f for pair in zip(STATS_FIELDS[3:8], STATS_FIELDS[8:]) for f in pair),
}


def _report_record(r: ClassReport) -> tuple:
    """One table row, in NONZERO_FIELDS or ZERO_FIELDS order."""
    rep = r.representative
    word = r.cf_of_k_over_m if r.square else r.gamma
    return (r.delta, rep.m, rep.n, rep.k, _seq(word), r.p_or_l,
            r.t, r.t_up, r.t_down, r.symmetry.code, 1 if r.star else 0)


def _report_rows(fmt: str, zero: bool, reports: Sequence[ClassReport]) -> str:
    """``table``'s sweep emit, run in the worker: the rendered rows of one
    discriminant's class reports.  The non-zero table renders no row of a
    square discriminant, whose classes the sweep still computes."""
    fields = ZERO_FIELDS if zero else NONZERO_FIELDS
    return _render([_report_record(r) for r in reports if r.square == zero],
                   fields, fmt)


def _render(records: Sequence[tuple], fields: Sequence[str], fmt: str) -> str:
    """Some rows of a table, rendered as text without its header or frame.

    csv: one line per row.  json: each row's object as it stands in the
    table's list, indented by two spaces, joined by ",\n".  md: each row's
    cells joined by tabs (no cell holds one), one line per row, for
    ``_table`` to pad once the widest cell of every part is known.
    """
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(records)
        return buf.getvalue()
    if fmt == "json":
        keys = JSON_KEYS[fields]
        pick = itemgetter(*(fields.index(k) for k in keys))
        objects = (json.dumps(dict(zip(keys, pick(rec))), indent=2)
                   for rec in records)
        return ",\n".join("  " + obj.replace("\n", "\n  ") for obj in objects)
    if fmt == "md":
        return "\n".join("\t".join(map(str, rec)) for rec in records)
    raise ValueError(f"unknown format {fmt!r}")


def _table(fields: Sequence[str], fmt: str,
           parts: Iterable[str]) -> Iterator[str]:
    """The chunks of a whole table: its header, then each part (a
    ``_render`` text) in order, framed for fmt; never joined.  csv and json
    pass each part on as it comes.  md first reads every part and splits it
    into cells for the widest cell of each column, then splits it again to
    write it padded as one chunk: it keeps the parts as text, as a string
    per cell would take about twice the memory."""
    texts = (text for text in parts if text)
    if fmt == "csv":
        yield _render([fields], fields, fmt)
        yield from texts
    elif fmt == "json":
        i = -1
        for i, text in enumerate(texts):
            yield ",\n" if i else "[\n"
            yield text
        yield "\n]\n" if i >= 0 else "[]\n"
    else:
        texts = list(texts)
        widths = list(map(len, fields))
        for text in texts:
            columns = zip(*(row.split("\t") for row in text.split("\n")))
            widths = [max(w, *map(len, column)) for w, column in zip(widths, columns)]

        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |\n"
        yield line(fields) + line(["-" * w for w in widths])
        for text in texts:
            yield "".join(line(row.split("\t")) for row in text.split("\n"))


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write each chunk to stdout, or to out via a temp file: no partial
    file is left."""
    if not out:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                               prefix=".surdsym-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0o600 -> the mode open() gives
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _form_args(args) -> Form:
    return Form(args.m, args.n, args.k)


def cmd_classify(args) -> int:
    report = classify_class(_form_args(args))
    fields = ZERO_FIELDS if report.square else NONZERO_FIELDS
    _emit(_table(fields, args.format,
                 [_render([_report_record(report)], fields, args.format)]),
          args.out)
    return 0


def cmd_period(args) -> int:
    f = _form_args(args)
    require_indefinite(f)
    if f.m == f.n == 0:
        raise ValueError(f"form {f} has m = n = 0: its roots are 0 and "
                         f"infinity, so xi_plus has no continued fraction")
    if f.m == 0:
        f = complementary(f)  # same class, m != 0
    exp = cf_surd(f)
    _emit([f"preperiod {_seq(exp.preperiod)}\nperiod {_seq(exp.period)}\n"], args.out)
    return 0


def cmd_counts(args) -> int:
    report = classify_class(_form_args(args))
    _emit([f"t={report.t} t_up={report.t_up} t_down={report.t_down}\n"], args.out)
    return 0


def cmd_reduce(args) -> int:
    f2, word, tag = reduce_to_H0(_form_args(args))
    _emit([f"form {f2!r}\nword {word_str(word)}\ninvolution {tag}\n"], args.out)
    return 0


def cmd_modular(args) -> int:
    mcf = modular_cf_surd(_form_args(args))
    text = _seq(mcf.period, "((", "))")
    if not mcf.is_purely_periodic:
        text = f"{_seq(mcf.preperiod)} {text}"
    _emit([text + "\n"], args.out)
    return 0


def _orbit_tour(f: Form) -> List[str]:
    """Run-boundary forms of the H0 cycle through f, with their periods.

    Peeling the CF digits of xi_plus from the H0 form f by alternating A and
    B runs passes the j-th state form, antipodal for odd j; from the period
    start on, these are the run starts in cycle order (2P of them for an odd
    period length P)."""
    if f.m * f.n >= 0:
        f = reduce_to_H0(f)[0]
    if f.m < 0:  # H0R member: complementary partner lies in the same class
        f = complementary(f)
    d = discriminant(f)
    ps, qs, preperiod = _preperiod_walk(-f.k, 2 * f.m, d)
    ps, qs, period = _period_walk(ps[-1], qs[-1], d)
    n = len(period)
    lines = []
    for i in range(n if n % 2 == 0 else 2 * n):
        g = _state_form(ps[i % n], qs[i % n], qs[(i - 1) % n])
        g = antipodal(g) if (len(preperiod) + i) % 2 else g
        lines.append(f"{g.m} {g.n} {g.k}  {_seq(period[i % n:] + period[:i % n])}")
    return lines


def cmd_orbit(args) -> int:
    f = _form_args(args)
    d = require_indefinite(f)
    if args.bound is not None and not args.all:
        raise ValueError("--bound requires --all")
    if args.all:
        if args.bound is None:
            raise ValueError("--all requires --bound")
        lines = [f"{g.m} {g.n} {g.k}  {domain_of(g).value}"
                 for g in orbit_bfs(f, args.bound)]
    elif is_square(d):
        rep = normalize_square_form(f)
        lines = [f"{rep.m} {rep.n} {rep.k}  normal form"]
    else:
        lines = _orbit_tour(f)
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _check_sweep_args(args) -> None:
    if args.delta_max < 1:
        raise ValueError("--delta-max must be >= 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")


def cmd_table(args) -> int:
    _check_sweep_args(args)
    zero = args.which == "zero"
    fields = ZERO_FIELDS if zero else NONZERO_FIELDS
    # Without --which zero the sweep still computes every square class, and
    # _report_rows renders none of them: the benchmark's traced test counts
    # those classes (ROADMAP item 1).
    done = _sweep(args.delta_max, args.jobs,
                  partial(_report_rows, args.format, zero), squares_only=zero)
    _emit(_table(fields, args.format, (part for _, part in done)), args.out)
    return 0


def _stat_record(row: StatRow) -> tuple:
    """One stats row, in STATS_FIELDS order."""
    return (row.delta, 1 if row.square else 0, row.total, *row.counts,
            *(str(fr) for fr in row.fractions))


def cmd_stats(args) -> int:
    _check_sweep_args(args)
    rows = _stat_rows(args.delta_max, args.jobs)
    _emit(_table(STATS_FIELDS, args.format,
                 (_render([_stat_record(r)], STATS_FIELDS, args.format)
                  for r in rows)), args.out)
    return 0


def cmd_check(args) -> int:
    """Exit 2 when a gate fails: the census disagrees with a fact derived
    without it, which is an internal-consistency failure."""
    _check_sweep_args(args)
    deltas, checked, lines = check_census(args.delta_max, jobs=args.jobs)
    summary = (f"checked {deltas} discriminants and {checked} super/anti/(m+n) "
               f"classes with delta <= {args.delta_max}: {len(lines)} violations")
    _emit([line + "\n" for line in lines + [summary]], args.out)
    return 2 if lines else 0


def _add_form_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, leaving exit code 2 to internal-consistency
    failures; subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="surdsym",
        description="Classify classes of indefinite binary quadratic forms by "
                    "the symmetry of their continued-fraction periods.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, form=True, fmt=(), sweep=False):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if form:
            _add_form_arguments(p)
        if fmt:  # the first choice is the default
            p.add_argument("--format", choices=fmt, default=fmt[0])
        if sweep:
            p.add_argument("--delta-max", type=int, required=True)
            p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, metavar="FILE")
        p.set_defaults(func=func)
        return p

    add("classify", cmd_classify, "full class report for one form",
        fmt=("md", "csv", "json"))
    add("period", cmd_period, "regular CF preperiod and period of xi_plus")
    add("counts", cmd_counts, "t, t_up, t_down of the class")
    add("reduce", cmd_reduce, "reduce to a form with mn <= 0")
    add("modular", cmd_modular, "minus (modular) CF of xi_plus")
    p_orbit = add("orbit", cmd_orbit, "cycle tour (or --all: bounded BFS orbit)")
    p_orbit.add_argument("--bound", type=int)
    p_orbit.add_argument("--all", action="store_true")
    p_table = add("table", cmd_table, "class table for all delta <= --delta-max",
                  form=False, fmt=("md", "csv", "json"), sweep=True)
    p_table.add_argument("--which", choices=("nonzero", "zero"), default="nonzero")
    add("stats", cmd_stats, "symmetry-type counts and fractions per delta",
        form=False, fmt=("csv", "json"), sweep=True)
    add("check", cmd_check, "check every class with delta <= --delta-max "
        "against its gates: h0-points, t-balance, square-type, sum-rule, "
        "t-up, ambiguous and parity", form=False, sweep=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush
        # at exit does not raise again (the recipe in the signal module's
        # docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, OSError) as exc:  # OSError: a bad --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

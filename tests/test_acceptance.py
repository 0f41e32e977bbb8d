"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints a single ``criterion N: PASS`` line (visible under
``pytest -s``) after its assertions succeed, and fails loudly otherwise.
"""

import csv
import time
from fractions import Fraction

from surdsym.census import (check_census, first_occurrence, full_census,
                            stats_rows)
from surdsym.cf import (cf_period_to_modular_period, modular_cf_surd,
                        period_to_forms)
from surdsym.cli import main as cli_main
from surdsym.exact import is_square
from surdsym.forms import Form
from surdsym.oracle import h0_class_key, verify_counts, verify_symmetry
from surdsym.periods import SymmetryType, canonical_rotation, classify_class
from surdsym.reduction import reduced_cycle

from goldens import NONSQUARE_ROWS, SQUARE_ROWS

S = SymmetryType


def _line(n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_nonsquare_golden_table():
    t0 = time.monotonic()
    census = full_census(100)
    index = {(d, r.representative): r
             for d, reports in census.items() if not is_square(d)
             for r in reports}
    mismatches = []
    for row in NONSQUARE_ROWS:
        delta, rep, gamma, p, t_up, t_down, sym, star = row
        report = index.pop((delta, h0_class_key(Form(*rep))), None)
        if report is None:
            mismatches.append((row, "class not found"))
            continue
        got = (canonical_rotation(report.gamma), report.p_or_l,
               report.t_up, report.t_down, report.symmetry.value,
               0 if report.primitive else 1)
        want = (canonical_rotation(gamma), p, t_up, t_down, sym, star)
        if got != want:
            mismatches.append((row, got))
    elapsed = time.monotonic() - t0
    ok = not mismatches and not index and elapsed < 1.0
    _line(1, ok, f"{len(NONSQUARE_ROWS)} non-square classes, delta <= 100, "
                 f"{len(mismatches)} mismatches, {len(index)} extras, "
                 f"{elapsed:.2f}s (< 1s)")


def test_criterion_2_square_golden_table():
    t0 = time.monotonic()
    census = full_census(100)
    by_key = {}
    for d, reports in census.items():
        if is_square(d):
            for r in reports:
                by_key[(d, r.representative.m)] = r
    mismatches = []
    for row in SQUARE_ROWS:
        delta, rep, cf, l, t, t_up, t_down, sym, star = row
        report = by_key.pop((delta, rep[0]), None)
        got = None if report is None else (
            report.cf_of_k_over_m, report.p_or_l, report.t,
            report.t_up, report.t_down, report.symmetry.value,
            0 if report.primitive else 1)
        if got != (tuple(cf), l, t, t_up, t_down, sym, star):
            mismatches.append((row, got))
    elapsed = time.monotonic() - t0
    ok = not mismatches and not by_key and elapsed < 1.0
    _line(2, ok, f"{len(SQUARE_ROWS)} square-delta rows, delta <= 100, "
                 f"{len(mismatches)} mismatches, {len(by_key)} extras, "
                 f"{elapsed:.2f}s (< 1s)")


def test_criterion_3_worked_example():
    r = classify_class(Form(2, -1, -3))
    checks = [
        canonical_rotation(r.gamma) == (1, 1, 3),
        r.t == 10 and r.t_up == 5 and r.t_down == 5,
        r.symmetry is S.SUPERSYMMETRIC,
    ]
    mcf = modular_cf_surd(Form(2, 4, -7))
    checks.append(mcf.is_purely_periodic and mcf.period == (3, 5, 3, 2, 2))
    cycle = reduced_cycle(Form(2, 4, -7))
    checks.append(len(cycle.forms) == 5 and
                  canonical_rotation(cycle.modular_period) ==
                  canonical_rotation(mcf.period))
    checks.append(cf_period_to_modular_period((1, 1, 3, 1, 1, 3)) ==
                  (3, 5, 3, 2, 2))
    _line(3, all(checks),
          "classify (2,-1,-3): period [1,1,3], t=10, super; "
          "modular (2,4,-7): ((3,5,3,2,2)); reduced cycle length 5; "
          "period-to-modular conversion exact")


def test_criterion_4_first_occurrence_sweep():
    rows = stats_rows(400)
    by_delta = {r.delta: r for r in rows}
    checks = []
    # the classes built from the named period rotations exist at 148/221/396
    for word, delta, sym in (((1, 2, 3), 148, S.ANTISYMMETRIC),
                             ((1, 2, 2, 1), 221, S.M_PLUS_N_SYMMETRIC),
                             ((1, 1, 2, 3), 396, S.ASYMMETRIC)):
        f, _ = period_to_forms(word)
        rep = classify_class(f)
        checks.append(rep.delta == delta and rep.symmetry is sym and
                      canonical_rotation(rep.gamma) == canonical_rotation(word))
        checks.append(by_delta[delta].count_of(sym) > 0)
    # below 100, non-square discriminants show only super- and k-symmetric
    checks.append(all(r.count_of(s) == 0
                      for r in rows if not r.square and r.delta <= 100
                      for s in (S.M_PLUS_N_SYMMETRIC, S.ANTISYMMETRIC,
                                S.ASYMMETRIC)))
    # the named classes are not the minimal ones: the sweep itself puts the
    # true non-square firsts at 136 (m+n), 145 (anti) and 316 (asymmetric)
    checks.append(first_occurrence(rows, S.M_PLUS_N_SYMMETRIC) == 136)
    checks.append(first_occurrence(rows, S.ANTISYMMETRIC) == 145)
    checks.append(first_occurrence(rows, S.ASYMMETRIC) == 316)
    _line(4, all(checks),
          "named classes present at delta 148/221/396 with the stated "
          "period rotations; delta <= 100 non-square all super/k; minimal "
          "non-square firsts at 136 (m+n), 145 (anti), 316 (asymm)")


def test_criterion_5_sum_rule_to_ten_thousand():
    t0 = time.monotonic()
    deltas, checked, violations = check_census(10_000, jobs=4)
    elapsed = time.monotonic() - t0
    ok = checked > 0 and not violations and elapsed < 60.0
    _line(5, ok, f"sum(c_i) == 3t for all {checked} super/anti/(m+n) "
                 f"classes, and the genus, parity, H0-point and square-type "
                 f"gates on all {deltas} discriminants, delta <= 10^4, "
                 f"{len(violations)} violations, {elapsed:.1f}s (< 60s, jobs=4)")


def test_criterion_6_property_suite(property_outcomes):
    """The properties run once per session, as tests of their own; the
    conftest schedules this gate after them (see tests/conftest.py)."""
    passed = sum(ok is True for ok in property_outcomes.values())
    total = len(property_outcomes)
    _line(6, total > 0 and passed == total,
          f"randomized property suite (>= 500 cases each): "
          f"{passed} of {total} properties passed")


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    census = full_census(500)
    classes = mismatches = 0
    for d, reports in census.items():
        square = is_square(d)
        bound = 2 * d + 16
        for r in reports:
            classes += 1
            if verify_symmetry(r.representative, bound) != r.symmetry:
                mismatches += 1
            if verify_counts(r.representative, bound).ordered_counts(square) \
                    != (r.t, r.t_up, r.t_down):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _line(7, ok, f"brute-force symmetry and count oracles agree on all "
                 f"{classes} classes with delta <= 500, {elapsed:.1f}s (< 30s)")


def test_criterion_8_stats_csv(tmp_path):
    out = tmp_path / "stats.csv"
    rc = cli_main(["stats", "--delta-max", "9999", "--jobs", "4",
                   "--format", "csv", "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    names = ("super", "k", "mpn", "anti", "asymm")
    bad = 0
    for r in rows:
        counts = [int(r[f"count_{s}"]) for s in names]
        fracs = [Fraction(r[f"frac_{s}"]) for s in names]
        if sum(counts) != int(r["total"]) or sum(fracs) != 1:
            bad += 1
        if fracs != [Fraction(c, int(r["total"])) for c in counts]:
            bad += 1
    ok = rc == 0 and bad == 0 and len(rows) > 4000
    _line(8, ok, f"stats CSV for delta < 10^4: {len(rows)} discriminants, "
                 f"every class in exactly one type, exact fractions sum to 1")

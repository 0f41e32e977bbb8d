"""Census sweeps: per-discriminant enumeration, stats, and the checker's
gates (the sum rule, genus theory, period parity, H0 points, square types)."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

import surdsym.census
from surdsym.census import (SYMMETRY_ORDER, StatRow, _gate_violations,
                            _reduced_states, _shard, _sweep, _type_counts,
                            _windows, check_census,
                            census_for_delta, census_square,
                            first_occurrence, full_census, stats_rows,
                            valid_deltas)
from surdsym.exact import is_square
from surdsym.forms import Form, content, discriminant, is_primitive, scale
from surdsym.oracle import (ambiguous_classes, h0_class_key, h0_point_count,
                            square_symmetry)
from surdsym.periods import SymmetryType, canonical_rotation, classify_class
from surdsym.reduction import _SUM_RULE_TYPES, check_sum_rule, reduced_cycle

from h0_points_by_trial_division import h0_points_by_trial_division
from states_by_divisors import smallest_prime_factors, states_by_divisors


def nonsquare_deltas(delta_max):
    return [d for d in valid_deltas(delta_max) if not is_square(d)]


@pytest.fixture(scope="module")
def census():
    return full_census(150)


@pytest.fixture(scope="module")
def rows():
    return stats_rows(400)


class TestValidDeltas:
    def test_small_list(self):
        assert valid_deltas(20) == [1, 4, 5, 8, 9, 12, 13, 16, 17, 20]

    def test_square_filter(self):
        assert nonsquare_deltas(20) == [5, 8, 12, 13, 17, 20]
        assert [d for d in valid_deltas(20) if is_square(d)] == [1, 4, 9, 16]

    def test_all_residues_valid(self):
        for d in valid_deltas(500):
            assert d % 4 in (0, 1)


class TestCensusRows:
    def test_rows_match_direct_classification(self, census):
        """Every census row agrees with classifying its representative."""
        for d, reports in census.items():
            for r in reports:
                direct = classify_class(r.representative)
                assert direct.delta == r.delta == d
                assert direct.symmetry == r.symmetry
                assert (direct.t, direct.t_up, direct.t_down) == \
                    (r.t, r.t_up, r.t_down)
                assert direct.p_or_l == r.p_or_l
                assert direct.primitive == r.primitive
                if r.gamma is not None:
                    assert canonical_rotation(direct.gamma) == \
                        canonical_rotation(r.gamma)
                else:
                    assert direct.cf_of_k_over_m == r.cf_of_k_over_m

    def test_representatives_distinct_and_on_delta(self, census):
        for d, reports in census.items():
            reps = [r.representative for r in reports]
            assert len(set(reps)) == len(reps)
            for f in reps:
                assert discriminant(f) == d

    def test_scaled_rows_descale_to_primitives(self, census):
        """Non-primitive rows are lam * (a primitive class of delta/lam^2)."""
        for d, reports in census.items():
            for r in reports:
                if r.primitive:
                    assert content(r.representative) == 1 or r.representative.m == 0
                    if r.representative.m or r.representative.n:
                        assert is_primitive(r.representative)
                    continue
                lam = content(r.representative)
                if r.representative == Form(0, 0, r.representative.k):
                    lam = r.representative.k
                assert lam > 1 and d % (lam * lam) == 0
                base = Form(r.representative.m // lam,
                            r.representative.n // lam,
                            r.representative.k // lam)
                assert discriminant(base) == d // (lam * lam)

    def test_counts_by_hand_for_delta_20(self, census):
        """delta=20 carries one primitive class and one scaled delta=5 class."""
        rows = census[20]
        prim = [r for r in rows if r.primitive]
        scaled = [r for r in rows if not r.primitive]
        assert len(scaled) == 1 and content(scaled[0].representative) == 2
        assert len(prim) >= 1

    def test_square_census_star_pattern(self, census):
        """delta=16: m in 0..3, starred exactly when gcd(m, 4) > 1."""
        rows = census[16]
        assert [r.representative.m for r in rows] == [0, 1, 2, 3]
        assert [r.primitive for r in rows] == [False, True, False, True]

    def test_jobs_do_not_change_results(self):
        assert full_census(120, jobs=1) == full_census(120, jobs=4)

    def test_rejects_bad_jobs(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                full_census(50, jobs=jobs)
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                check_census(50, jobs=jobs)

    def test_rejects_bad_delta_max(self):
        with pytest.raises(ValueError):
            full_census(0)

    def test_primitive_census_delta_17(self):
        rows = census_for_delta(17)
        assert len(rows) == 1
        assert rows[0].symmetry is SymmetryType.SUPERSYMMETRIC
        assert (rows[0].t, rows[0].t_up, rows[0].t_down) == (10, 5, 5)

    def test_classify_class_matches_square_census(self):
        for k in range(1, 61):
            rows = census_square(k * k)
            for m in range(k):
                assert classify_class(Form(m, 0, k)) == rows[m]

    def test_square_census_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            census_square(5)


def primitive_h0_form_count(delta):
    """Number of primitive (m, n, k) with m > 0 > n and k**2 - 4mn = delta,
    by trial division."""
    count = 0
    kmax = isqrt(delta - 1)
    for k in range(-kmax, kmax + 1):
        if (delta - k * k) % 4:
            continue
        v = (delta - k * k) // 4
        for m in range(1, isqrt(v) + 1):
            if v % m == 0 and gcd(gcd(m, v // m), k) == 1:
                count += 1 if m * m == v else 2
    return count


class TestPrimitiveEngine:
    def test_rows_match_independent_derivations_to_3000(self):
        """Each primitive row's representative is the least form of its H0
        cycle walked step by step; its period, counts and type are those of
        the continued fraction of that representative; and the rows' H0
        cycles together hold every primitive H0 form of the discriminant."""
        for d in nonsquare_deltas(3000):
            rows = [r for r in census_for_delta(d) if r.primitive]
            for r in rows:
                rep = r.representative
                assert h0_class_key(rep) == rep, (d, rep)
                direct = classify_class(rep)
                assert (r.gamma, r.p_or_l, r.t, r.t_up, r.t_down,
                        r.symmetry) == \
                    (direct.gamma, direct.p_or_l, direct.t, direct.t_up,
                     direct.t_down, direct.symmetry), (d, rep)
            assert sum(r.t for r in rows) == primitive_h0_form_count(d), d


class TestReducedStates:
    @pytest.fixture(scope="class")
    def table(self):
        return _reduced_states(1, 10_000)

    def test_sieve_matches_divisor_listing_to_10000(self, table):
        """The sieve's states of each non-square delta are those found by
        listing the divisors of (delta - P**2) / 4, each once; and its
        primitive states, gcd(a, c, P) = 1, are the listing's primitive ones."""
        spf = smallest_prime_factors(10_000 // 4)
        for d in nonsquare_deltas(10_000):
            pairs = list(zip(table[d][::2], table[d][1::2]))
            assert len(pairs) == len(set(pairs)), d
            listed = states_by_divisors(d, spf)
            assert set(pairs) == listed, d

            def primitive(states):
                return {(p, q) for p, q in states
                        if gcd(gcd(q // 2, (d - p * p) // (2 * q)), p) == 1}
            assert primitive(pairs) == primitive(listed) == \
                states_by_divisors(d, spf, primitive_only=True), d

    def test_windows_match_the_full_table(self, table):
        assert set(table) == set(valid_deltas(10_000))
        for lo, hi in ((1, 1), (1, 60), (37, 37), (500, 777), (4096, 4100),
                       (9973, 10_000)):
            window = _reduced_states(lo, hi)
            assert set(window) == {d for d in valid_deltas(hi) if d >= lo}
            for d, states in window.items():
                assert states == table[d], (lo, hi, d)

    def test_lone_delta_matches_the_sweep(self):
        for d, reports in full_census(2000).items():
            if not is_square(d):
                assert census_for_delta(d) == reports, d

    def test_scaled_classes_are_scaled_primitive_classes_to_3000(self):
        """The classes that delta's cycles of content s > 1 give are the
        primitive classes of each valid delta / s**2, scaled by s: the same
        period, counts and type."""
        for d in nonsquare_deltas(3000):
            scaled = []
            for s in range(2, isqrt(d) + 1):
                if d % (s * s) == 0 and (d // (s * s)) % 4 in (0, 1):
                    scaled += [r._replace(representative=scale(r.representative, s),
                                          delta=d, primitive=False)
                               for r in census_for_delta(d // (s * s))
                               if r.primitive]
            assert [r for r in census_for_delta(d) if not r.primitive] == \
                sorted(scaled, key=lambda r: r.representative), d

    def test_shard_drains_its_table(self, monkeypatch):
        """A shard takes every delta's states out of its window's table as
        it passes that delta, the unread states of square deltas too."""
        tables = []

        def kept_reduced_states(lo, hi):
            tables.append(_reduced_states(lo, hi))
            return tables[-1]
        monkeypatch.setattr(surdsym.census, "_reduced_states", kept_reduced_states)
        rows = _shard(_type_counts, False, (1, 300))
        assert [d for d, _ in rows] == valid_deltas(300)
        assert tables == [{}]

    def test_windows_tile_the_sweep(self):
        """The windows cover [1, delta_max] in order, without gaps or
        overlaps, and there are at least two from delta_max = 2 on.  The
        sweep to 10**4, serial or in a pool, yields every valid delta once,
        in order, or every square one with ``squares_only``; there windows
        end at 50**2 and 100**2 and one starts at 63**2, so a square falls
        on a window's edge."""
        for delta_max in (1, 2, 5, 20, 300, 10_000, 160_000, 10 ** 6):
            windows = _windows(delta_max)
            assert windows[0][0] == 1 and windows[-1][1] == delta_max
            assert all(lo <= hi for lo, hi in windows)
            assert all(a[1] + 1 == b[0] for a, b in zip(windows, windows[1:]))
            assert len(windows) >= min(delta_max, 8), delta_max
        for jobs in (1, 2):
            assert [d for d, _ in _sweep(10_000, jobs, _type_counts)] == \
                valid_deltas(10_000), jobs
            assert [d for d, _ in _sweep(10_000, jobs, _type_counts,
                                         squares_only=True)] == \
                [k * k for k in range(1, 101)], jobs


class TestStats:
    def test_row_shape(self, rows):
        deltas = [r.delta for r in rows]
        assert deltas == valid_deltas(400)
        for r in rows:
            assert isinstance(r, StatRow)
            assert r.square == is_square(r.delta)
            assert len(r.counts) == len(SYMMETRY_ORDER) == len(r.fractions)
            assert sum(r.counts) == r.total > 0

    def test_fractions_sum_to_one_exactly(self, rows):
        for r in rows:
            assert sum(r.fractions, Fraction(0)) == 1
            for c, fr in zip(r.counts, r.fractions):
                assert fr == Fraction(c, r.total)

    def test_first_occurrences(self, rows):
        S = SymmetryType
        firsts = {s: first_occurrence(rows, s) for s in SYMMETRY_ORDER}
        assert firsts == {S.SUPERSYMMETRIC: 5, S.K_SYMMETRIC: 12,
                          S.M_PLUS_N_SYMMETRIC: 136, S.ANTISYMMETRIC: 145,
                          S.ASYMMETRIC: 316}
        with_sq = {s: next(r.delta for r in rows if r.count_of(s) > 0)
                   for s in SYMMETRY_ORDER}
        assert with_sq == {S.SUPERSYMMETRIC: 1, S.K_SYMMETRIC: 9,
                           S.M_PLUS_N_SYMMETRIC: 25, S.ANTISYMMETRIC: 145,
                           S.ASYMMETRIC: 49}

    def test_first_occurrence_none_when_absent(self):
        short = stats_rows(50)
        assert first_occurrence(short, SymmetryType.ANTISYMMETRIC) is None

    def test_small_deltas_only_super_and_k(self, rows):
        """Non-square delta <= 100 shows only super- and k-symmetric classes."""
        S = SymmetryType
        for r in rows:
            if r.square or r.delta > 100:
                continue
            assert r.count_of(S.M_PLUS_N_SYMMETRIC) == 0
            assert r.count_of(S.ANTISYMMETRIC) == 0
            assert r.count_of(S.ASYMMETRIC) == 0


class TestSumRule:
    def test_sweep_holds_to_600(self):
        deltas, checked, violations = check_census(600)
        assert (deltas, violations) == (len(valid_deltas(600)), [])
        assert checked > 0

    def test_jobs_match_serial(self):
        assert check_census(300, jobs=1) == check_census(300, jobs=3)

    def test_sweep_matches_checking_the_census_to_3000(self):
        """The checker's sum-rule count equals checking every class of the
        census one by one, in delta and representative order."""
        census = full_census(3000)
        checked, failures = 0, []
        for reports in census.values():
            for r in reports:
                if not r.square and r.symmetry in _SUM_RULE_TYPES:
                    checked += 1
                    if not check_sum_rule(reduced_cycle(r.representative),
                                          r.symmetry):
                        failures.append(r)
        assert (checked, failures) == (1409, [])
        assert check_census(3000, jobs=2) == (1500, checked, [])


def test_ambiguous_classes_by_hand():
    # 20 = 4 * 5 (n = 5 is 1 mod 4, mu = 1): one class of its own and 5's,
    # scaled; 60 = 4 * 15 (n = 3 mod 4, mu = 3): four, and 15 is not valid.
    assert [ambiguous_classes(d) for d in (5, 8, 12, 20, 60)] == [1, 1, 2, 2, 4]
    for bad in (0, 3, 4, 9, -5):
        with pytest.raises(ValueError):
            ambiguous_classes(bad)


def test_h0_point_count_by_hand():
    # 5: k = +-1 give (5 - 1) / 4 = 1, one divisor each.  12: k = 0 gives
    # 3 (two divisors) and k = +-2 give 2 (two each).  17: k = +-1 give 4
    # (three each), k = +-3 give 2 (two each); its one class has t = 10.
    # 4: k = 0 gives 1 (one divisor).  9: k = +-1 give 2 (two each); k = +-3
    # would give the boundary forms with mn = 0, which k**2 < delta leaves out.
    assert [h0_point_count(d) for d in (5, 12, 17, 4, 9)] == [2, 6, 10, 1, 4]
    for bad in (0, 3, -5):
        with pytest.raises(ValueError):
            h0_point_count(bad)


def test_h0_point_count_matches_trial_division_to_5000():
    """The divisor-count table gives the trial-division count on every
    valid delta <= 5000, square ones included."""
    bad = [d for d in valid_deltas(5000)
           if h0_point_count(d) != h0_points_by_trial_division(d)]
    assert bad == []


def test_square_symmetry_by_hand():
    # 2**2 = -1 (mod 5), 1**2 = 1 (mod 4), and (4, 10) is twice (2, 5).
    S = SymmetryType
    assert [square_symmetry(m, k) for m, k in
            ((0, 4), (2, 4), (1, 4), (2, 5), (4, 10), (2, 7))] == \
        [S.SUPERSYMMETRIC, S.SUPERSYMMETRIC, S.K_SYMMETRIC,
         S.M_PLUS_N_SYMMETRIC, S.M_PLUS_N_SYMMETRIC, S.ASYMMETRIC]
    for m, k in ((3, 3), (-1, 4), (0, 0)):
        with pytest.raises(ValueError):
            square_symmetry(m, k)


@pytest.fixture(scope="module")
def checked_to_20000():
    """The checker's one run over every valid delta <= 2 * 10**4."""
    return check_census(20_000, jobs=2)


def _violations(check, gate, square=None):
    """The checker's VIOLATION lines of one gate; with ``square`` set, only
    those of square or of non-square delta."""
    return [line for line in check[2] if line.split()[2] == f"gate={gate}"
            and square in (None, is_square(int(line.split()[1][6:])))]


def test_checker_covers_every_delta_to_20000(checked_to_20000):
    """Every valid delta <= 2 * 10**4 is checked, and every super/anti/(m+n)
    class, scaled ones included, passes the sum rule."""
    deltas, classes, _ = checked_to_20000
    assert (deltas, classes) == (len(valid_deltas(20_000)), 11_353)
    assert _violations(checked_to_20000, "sum-rule") == []


def test_t_up_and_t_balance_hold_to_20000(checked_to_20000):
    """Every super/anti/(m+n) class has as many reduced forms as its t_up,
    and the t_up of each delta's classes sum to their t_down."""
    assert _violations(checked_to_20000, "t-up") == []
    assert _violations(checked_to_20000, "t-balance") == []


def test_ambiguous_classes_match_the_stats_to_20000(checked_to_20000):
    """Genus theory's count of self-inverse classes, scaled ones included,
    equals the super + k classes of every non-square delta <= 2 * 10**4."""
    assert _violations(checked_to_20000, "ambiguous") == []


def test_h0_point_count_matches_the_census_to_20000(checked_to_20000):
    """The t of every row of a non-square delta, scaled rows included, sums
    to the number of H0 forms of delta, counted by divisor sums."""
    assert _violations(checked_to_20000, "h0-points", square=False) == []


def test_h0_point_count_matches_the_square_census_to_20000(checked_to_20000):
    """The t of the k rows of delta = k**2 sum to its H0 points too."""
    assert _violations(checked_to_20000, "h0-points", square=True) == []


def test_square_symmetry_matches_the_census_to_20000(checked_to_20000):
    """Every row of square delta <= 2 * 10**4 has the type that the
    congruences m**2 = -1, 1 (mod k) give, with gcd(m, k) divided out."""
    assert _violations(checked_to_20000, "square-type") == []


def test_one_parity_per_delta_to_20000(checked_to_20000):
    """All primitive classes of one delta share the parity of their period
    length; odd-parity delta have only super and anti classes; even-parity
    delta have 0 or 2**(mu - 1) m+n classes, mu from genus theory."""
    assert _violations(checked_to_20000, "parity") == []


@pytest.fixture(scope="module")
def small_census():
    return full_census(320)


class TestGatesFire:
    """Each gate reports a doctored report of one delta, and only that gate
    does, but for a dropped row, which two gates report: 316 has two k
    classes and four asymm ones, all of even period length; 148 two super
    classes (one scaled) and two anti ones."""

    def gates(self, reports):
        return [line.split()[2] for line in _gate_violations(reports)[1]]

    def test_true_reports_pass(self, small_census):
        for d in (25, 148, 316):
            assert _gate_violations(small_census[d])[1] == []

    def test_wrong_symmetry(self, small_census):
        rows = list(small_census[316])
        assert rows[0].symmetry is SymmetryType.K_SYMMETRIC
        rows[0] = rows[0]._replace(symmetry=SymmetryType.ASYMMETRIC)
        assert _gate_violations(rows)[1] == [
            "VIOLATION delta=316 gate=ambiguous super+k=1 expected=2"]

    def test_wrong_t(self, small_census):
        rows = list(small_census[316])
        rows[1] = rows[1]._replace(t=rows[1].t + 2)
        assert self.gates(rows) == ["gate=h0-points"]

    def test_dropped_row(self, small_census):
        rows = list(small_census[316])
        assert rows[1].symmetry is SymmetryType.ASYMMETRIC
        del rows[1]
        assert self.gates(rows) == ["gate=h0-points", "gate=t-balance"]

    def test_row_of_the_other_parity(self, small_census):
        rows = list(small_census[316])
        rows[1] = rows[1]._replace(p_or_l=rows[1].p_or_l + 1)
        assert self.gates(rows) == ["gate=parity"]

    def test_wrong_square_type(self, small_census):
        rows = list(small_census[25])
        assert rows[2].representative == Form(2, 0, 5)
        rows[2] = rows[2]._replace(symmetry=SymmetryType.ASYMMETRIC)
        assert _gate_violations(rows)[1] == [
            "VIOLATION delta=25 gate=square-type rep=(2,0,5) symmetry=asymm "
            "expected=m+n"]

    def test_sum_rule(self, small_census, monkeypatch):
        monkeypatch.setattr(surdsym.census, "check_sum_rule",
                            lambda cycle, symmetry: False)
        checked, lines = _gate_violations(small_census[148])
        assert checked == 4
        assert self.gates(small_census[148]) == ["gate=sum-rule"] * 4
        assert lines[1] == ("VIOLATION delta=148 gate=sum-rule rep=(2,-18,-2) "
                            "symmetry=super period=((3,2,2,2,2,3,7))")

    def test_t_up_off_by_one(self, small_census):
        """A sum-rule class whose t_up is one off fails the t-up gate, which
        compares it with the length of its reduced cycle; with t_down one
        off as well, the t-balance gate passes."""
        rows = list(small_census[148])
        assert rows[1].representative == Form(2, -18, -2)
        rows[1] = rows[1]._replace(t_up=rows[1].t_up + 1)
        assert self.gates(rows) == ["gate=t-balance", "gate=t-up"]
        rows[1] = rows[1]._replace(t_down=rows[1].t_down + 1)
        assert _gate_violations(rows)[1] == [
            "VIOLATION delta=148 gate=t-up rep=(2,-18,-2) t_up=8 "
            "reduced_forms=7"]

    def test_t_up_and_t_down_swapped(self, small_census):
        rows = list(small_census[316])
        assert (rows[1].t_up, rows[1].t_down) == (5, 8)
        rows[1] = rows[1]._replace(t_up=8, t_down=5)
        assert _gate_violations(rows)[1] == [
            "VIOLATION delta=316 gate=t-balance sum_t_up=54 sum_t_down=48"]


def test_t_balance_catches_a_swap_on_odd_state_classes(monkeypatch):
    """A census that swaps t_up and t_down on the class read off the odd
    states of each even cycle fails the t-balance gate on most delta
    <= 3000, where the true census passes it on all."""
    odd_states = [False]
    least_member = surdsym.census._least_member
    counts = surdsym.census._counts_nonsquare

    def marking_least_member(a_runs, ps, qs, digits):
        odd_states[0] = a_runs.start == 1
        return least_member(a_runs, ps, qs, digits)

    def swapping_counts(gamma, odd):
        t, t_up, t_down = counts(gamma, odd)
        return (t, t_down, t_up) if odd_states[0] else (t, t_up, t_down)

    monkeypatch.setattr(surdsym.census, "_least_member", marking_least_member)
    monkeypatch.setattr(surdsym.census, "_counts_nonsquare", swapping_counts)
    _, _, lines = check_census(3000)
    failed = {line.split()[1] for line in lines
              if line.split()[2] == "gate=t-balance"}
    assert len(failed) > 1000

"""Census sweeps: per-discriminant enumeration, stats, and the sum rule."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from surdsym.census import (SYMMETRY_ORDER, StatRow, _families,
                            census_for_delta, census_nonsquare_primitive,
                            census_square, first_occurrence, full_census,
                            stats_rows, sum_rule_sweep, valid_deltas)
from surdsym.exact import is_square
from surdsym.forms import Form, content, discriminant, is_primitive
from surdsym.oracle import ambiguous_classes, h0_class_key
from surdsym.periods import SymmetryType, canonical_rotation, classify_class
from surdsym.reduction import _SUM_RULE_TYPES, check_sum_rule, reduced_cycle


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
        assert valid_deltas(20, include_square=False) == [5, 8, 12, 13, 17, 20]
        assert valid_deltas(20, include_nonsquare=False) == [1, 4, 9, 16]

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
                sum_rule_sweep(50, jobs=jobs)

    def test_rejects_bad_delta_max(self):
        with pytest.raises(ValueError):
            full_census(0)

    def test_primitive_census_delta_17(self):
        rows = census_nonsquare_primitive(17)
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
        for d in valid_deltas(3000, include_square=False):
            rows = census_nonsquare_primitive(d)
            for r in rows:
                rep = r.representative
                assert h0_class_key(rep) == rep, (d, rep)
                direct = classify_class(rep)
                assert (r.gamma, r.p_or_l, r.t, r.t_up, r.t_down,
                        r.symmetry) == \
                    (direct.gamma, direct.p_or_l, direct.t, direct.t_up,
                     direct.t_down, direct.symmetry), (d, rep)
            assert sum(r.t for r in rows) == primitive_h0_form_count(d), d


class TestFamilies:
    def test_families_partition_and_hold_their_sources(self):
        """Each valid delta <= 10**4 is in exactly one item; squares are
        alone; every valid delta / s**2 of a member is in its family."""
        items = _families(10_000)
        assert [item[0] for item in items] == sorted(item[0] for item in items)
        members = [d for item in items for d in item]
        assert sorted(members) == valid_deltas(10_000)
        for item in items:
            if is_square(item[0]):
                assert len(item) == 1
                continue
            assert not any(is_square(d) for d in item)
            for d in item:
                s = 2
                while s * s <= d:
                    if d % (s * s) == 0 and (d // (s * s)) % 4 in (0, 1):
                        assert d // (s * s) in item, (item[0], d, s)
                    s += 1

    def test_kinds_filter_the_items(self):
        assert _families(100, include_square=False) == \
            [f for f in _families(100) if not is_square(f[0])]
        assert _families(100, include_nonsquare=False) == \
            [(k * k,) for k in range(1, 11)]


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
        with_sq = {s: first_occurrence(rows, s, include_square=True)
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
        checked, failures = sum_rule_sweep(600)
        assert checked > 0
        assert failures == []

    def test_jobs_match_serial(self):
        assert sum_rule_sweep(300, jobs=1) == sum_rule_sweep(300, jobs=3)

    def test_sweep_matches_checking_the_census_to_3000(self):
        """The sharded check equals checking every class of the census one
        by one, in delta and representative order."""
        census = full_census(3000, include_square=False)
        checked, failures = 0, []
        for reports in census.values():
            for r in reports:
                if r.symmetry in _SUM_RULE_TYPES:
                    checked += 1
                    if not check_sum_rule(reduced_cycle(r.representative),
                                          r.symmetry):
                        failures.append(r)
        assert (checked, failures) == (1409, [])
        assert sum_rule_sweep(3000, jobs=2) == (checked, [])


def test_ambiguous_classes_match_the_stats_to_20000():
    """Genus theory's count of self-inverse classes, scaled ones included,
    equals the super + k classes of every non-square delta <= 2 * 10**4."""
    S = SymmetryType
    bad = [r.delta for r in stats_rows(20_000, jobs=2) if not r.square and
           ambiguous_classes(r.delta) !=
           r.count_of(S.SUPERSYMMETRIC) + r.count_of(S.K_SYMMETRIC)]
    assert bad == []


def test_ambiguous_classes_by_hand():
    # 20 = 4 * 5 (n = 5 is 1 mod 4, mu = 1): one class of its own and 5's,
    # scaled; 60 = 4 * 15 (n = 3 mod 4, mu = 3): four, and 15 is not valid.
    assert [ambiguous_classes(d) for d in (5, 8, 12, 20, 60)] == [1, 1, 2, 2, 4]
    for bad in (0, 3, 4, 9, -5):
        with pytest.raises(ValueError):
            ambiguous_classes(bad)

"""Golden tests: the frozen class data for all discriminants up to 100.

Non-square rows are matched by class identity (the frozen rows and the census
may pick different representatives of the same class), with the period
compared up to cyclic rotation and everything else exactly.  Square rows are
matched by (delta, m) since representatives (m, 0, k) are canonical.
"""

from math import isqrt

import pytest

from goldens import NONSQUARE_ROWS, SQUARE_ROWS
from surdsym.census import full_census
from surdsym.forms import Form, discriminant
from surdsym.oracle import h0_class_key
from surdsym.periods import canonical_rotation


@pytest.fixture(scope="module")
def census():
    return full_census(100)


def rotations_equal(a, b):
    if len(a) != len(b):
        return False
    return canonical_rotation(a) == canonical_rotation(b)


class TestGoldenDataIntegrity:
    def test_every_nonsquare_rep_has_stated_delta(self):
        for d, rep, *_ in NONSQUARE_ROWS:
            assert discriminant(Form(*rep)) == d, (d, rep)
            assert isqrt(d) ** 2 != d

    def test_every_square_rep_has_stated_delta(self):
        for d, rep, *_ in SQUARE_ROWS:
            m, n, k = rep
            assert n == 0 and 0 <= m < k and k * k == d, (d, rep)

    def test_counts_are_consistent(self):
        for d, rep, gamma, p, t_up, t_down, sym, star in NONSQUARE_ROWS:
            assert p == len(gamma)
            assert t_up >= 1 and t_down >= 1
        for d, rep, cf, l, t, t_up, t_down, sym, star in SQUARE_ROWS:
            assert l == len(cf)
            assert t == (t_up + t_down + 1 if rep[0] else 0)


class TestNonsquareTable:
    def test_same_delta_set(self, census):
        golden = {d for d, *_ in NONSQUARE_ROWS}
        mine = {d for d in census if isqrt(d) ** 2 != d}
        assert golden == mine

    def test_same_class_count_per_delta(self, census):
        per_delta = {}
        for d, *_ in NONSQUARE_ROWS:
            per_delta[d] = per_delta.get(d, 0) + 1
        for d, n in per_delta.items():
            assert len(census[d]) == n, d

    def test_every_row_matches_a_class(self, census):
        for d, rep, gamma, p, t_up, t_down, sym, star in NONSQUARE_ROWS:
            key = h0_class_key(Form(*rep))
            match = [r for r in census[d] if r.representative == key]
            assert len(match) == 1, (d, rep)
            r = match[0]
            assert rotations_equal(gamma, r.gamma), (d, rep, gamma, r.gamma)
            assert p == r.p_or_l, (d, rep)
            assert (t_up, t_down) == (r.t_up, r.t_down), (d, rep)
            assert t_up + t_down == r.t, (d, rep)
            assert sym == r.symmetry.code, (d, rep)
            assert star == (not r.primitive), (d, rep)

    def test_classes_are_distinct(self, census):
        keys = [(d, h0_class_key(Form(*rep))) for d, rep, *_ in NONSQUARE_ROWS]
        assert len(keys) == len(set(keys))


class TestSquareTable:
    def test_same_delta_set(self, census):
        golden = {d for d, *_ in SQUARE_ROWS}
        mine = {d for d in census if isqrt(d) ** 2 == d}
        assert golden == mine

    def test_all_rows_reproduced(self, census):
        golden = {(d, rep[0]): (cf, l, t, tu, td, sym, star)
                  for d, rep, cf, l, t, tu, td, sym, star in SQUARE_ROWS}
        produced = {(d, r.representative.m): r
                    for d in census if isqrt(d) ** 2 == d
                    for r in census[d]}
        assert set(golden) == set(produced)
        for key, (cf, l, t, tu, td, sym, star) in golden.items():
            r = produced[key]
            assert cf == r.cf_of_k_over_m, key
            assert l == r.p_or_l, key
            assert (t, tu, td) == (r.t, r.t_up, r.t_down), key
            assert sym == r.symmetry.code, key
            assert star == (not r.primitive), key

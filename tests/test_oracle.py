"""Unit tests for the brute-force orbit oracle."""

import pytest

from domain_by_roots import domain_by_roots
from surdsym.forms import (DomainLabel, Form, antipodal, complementary,
                           conjugate, domain_of)
from surdsym.oracle import (OracleInconclusive, h0_cycle_walk, orbit_bfs,
                            verify_counts, verify_symmetry)
from surdsym.periods import SymmetryType


class TestOrbitBFS:
    def test_contains_involution_partners(self):
        forms = set(orbit_bfs(Form(1, -1, 1), 50))
        assert Form(1, -1, -1) in forms
        assert Form(-1, 1, 1) in forms

    def test_closed_under_complementary(self):
        forms = set(orbit_bfs(Form(2, -1, -3), 60))
        in_range = [f for f in forms if f.max_abs() <= 30]
        for f in in_range:
            assert complementary(f) in forms

    def test_contains_section_tour(self):
        forms = set(orbit_bfs(Form(5, -3, -13), 50))
        for g in (Form(5, -9, 7), Form(3, -9, -11), Form(3, -5, 13),
                  Form(9, -5, -7), Form(9, -3, 11)):
            assert g in forms

    def test_deterministic(self):
        assert orbit_bfs(Form(2, -1, -3), 40) == orbit_bfs(Form(2, -1, -3), 40)


class TestH0CycleWalk:
    def test_worked_example_length(self):
        cycle, word = h0_cycle_walk(Form(2, -2, 1))
        assert len(cycle) == 10
        assert len(set(cycle)) == 10
        assert sum(e for _, e in word) == 10

    def test_ab_split_matches_counts(self):
        cycle, word = h0_cycle_walk(Form(2, -1, 2))
        assert len(cycle) == 3
        assert sum(e for g, e in word if g == "B") == 2
        assert sum(e for g, e in word if g == "A") == 1

    def test_small_cycle(self):
        cycle, word = h0_cycle_walk(Form(1, -1, -1))
        assert len(cycle) == 2

    def test_all_members_in_h0(self):
        cycle, _ = h0_cycle_walk(Form(3, -11, -2))
        assert all(g.m > 0 > g.n for g in cycle)

    def test_rejects_non_h0(self):
        with pytest.raises(ValueError):
            h0_cycle_walk(Form(2, 4, -7))


class TestDomainFast:
    def test_matches_definitional_on_grid(self):
        """The domain test the oracle tallies with agrees with exact root
        comparisons."""
        span = range(-7, 8)
        for m in span:
            for n in span:
                for k in span:
                    if k * k - 4 * m * n <= 0:
                        continue
                    assert domain_of(Form(m, n, k)) == domain_by_roots(m, n, k)


class TestVerifySymmetry:
    def test_examples(self):
        assert verify_symmetry(Form(1, -2, -3)) is SymmetryType.SUPERSYMMETRIC
        assert verify_symmetry(Form(5, -15, 18)) is SymmetryType.ASYMMETRIC
        assert verify_symmetry(Form(1, -2, -5)) is SymmetryType.K_SYMMETRIC

    def test_named_rare_types(self):
        assert verify_symmetry(Form(7, -3, -8)) is SymmetryType.ANTISYMMETRIC
        assert verify_symmetry(Form(3, -11, -2)) is SymmetryType.M_PLUS_N_SYMMETRIC

    def test_square_delta(self):
        assert verify_symmetry(Form(1, 0, 2)) is SymmetryType.SUPERSYMMETRIC
        assert verify_symmetry(Form(1, 0, 3)) is SymmetryType.K_SYMMETRIC
        assert verify_symmetry(Form(2, 0, 5)) is SymmetryType.M_PLUS_N_SYMMETRIC
        assert verify_symmetry(Form(2, 0, 7)) is SymmetryType.ASYMMETRIC
        assert verify_symmetry(Form(0, 0, 3)) is SymmetryType.SUPERSYMMETRIC

    def test_tiny_bound_inconclusive(self):
        with pytest.raises(OracleInconclusive):
            verify_symmetry(Form(4, -4, 3), coeff_bound=5)


class TestVerifyCounts:
    def test_delta_17(self):
        c = verify_counts(Form(2, -2, 1))
        assert c.t == 10
        assert c.h0 == c.h0r == 10
        assert c.habar == 5

    def test_delta_33_split(self):
        c = verify_counts(Form(2, -1, 5))
        assert c.h0 == 10
        assert (c.ha, c.hb) == (6, 4)
        assert c.ordered_counts(square=False) == (10, 6, 4)

    def test_delta_5(self):
        assert verify_counts(Form(1, -1, -1)).h0 == 2

    def test_square_ordered_counts_swap_sides(self):
        c = verify_counts(Form(1, 0, 3))
        assert (c.ha, c.hb) == (0, 1)
        assert c.ordered_counts(square=True) == (2, 1, 0)

    def test_h0r_mirrors_h0(self):
        # every H0 member's antipodal partner lies in H0R
        c = verify_counts(Form(5, -3, -13))
        assert c.h0 == c.h0r

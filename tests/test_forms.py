"""Unit tests for forms, generators, involutions and domains."""

import pickle
import random

import pytest

from domain_by_roots import domain_by_roots
from surdsym.forms import (INVOLUTION_NAMES, DomainLabel, Form, adjoint,
                           antipodal, apply_word,
                           complementary, conjugate, content, discriminant,
                           domain_of, gen_power, involution, is_primitive,
                           scale, word_str)

SAMPLE_FORMS = [
    Form(2, -1, -3), Form(5, -3, -13), Form(1, -1, 1), Form(2, 4, -7),
    Form(5, 7, 22), Form(3, 5, -9), Form(-4, 2, 9), Form(1, 0, 3),
    Form(7, -3, -8), Form(2, -18, -1), Form(-2, -5, -11), Form(6, -2, 6),
]


class TestFormBasics:
    def test_repr(self):
        assert repr(Form(2, -1, -3)) == "(2,-1,-3)"

    def test_ordering_is_lexicographic(self):
        assert Form(1, -4, -1) < Form(2, -1, -3)
        assert sorted([Form(2, 0, 0), Form(1, 9, 9)])[0] == Form(1, 9, 9)

    def test_immutable(self):
        f = Form(2, -1, -3)
        with pytest.raises(AttributeError):
            f.m = 3
        assert f == Form(2, -1, -3)

    def test_sorts_as_its_coefficients(self):
        forms = SAMPLE_FORMS + [Form(2, -1, 5), Form(2, -2, -3), Form(-4, 2, 8)]
        assert [f.coeffs() for f in sorted(forms)] == sorted(f.coeffs() for f in forms)

    def test_equal_forms_hash_equal(self):
        for f in SAMPLE_FORMS:
            g = Form(*f.coeffs())
            assert g == f and hash(g) == hash(f)

    def test_pickle_round_trip(self):
        for f in SAMPLE_FORMS:
            g = pickle.loads(pickle.dumps(f))
            assert type(g) is Form and g == f and repr(g) == repr(f)

    def test_max_abs(self):
        assert Form(2, -1, -3).max_abs() == 3
        assert Form(-9, 4, 1).max_abs() == 9

    def test_discriminant(self):
        assert discriminant(Form(2, -1, -3)) == 17
        assert discriminant(Form(1, 0, 3)) == 9
        assert discriminant(Form(5, -3, -13)) == 229


class TestInvolutions:
    def test_all_are_involutions(self):
        for f in SAMPLE_FORMS:
            for name in INVOLUTION_NAMES:
                assert involution(involution(f, name), name) == f

    def test_named_helpers(self):
        f = Form(2, -1, -3)
        assert complementary(f) == Form(-1, 2, 3)
        assert conjugate(f) == Form(2, -1, 3)
        assert adjoint(f) == Form(1, -2, -3)
        assert antipodal(f) == Form(1, -2, 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            involution(Form(1, -1, 1), "transpose")

    def test_discriminant_preserved(self):
        for f in SAMPLE_FORMS:
            d = discriminant(f)
            for name in INVOLUTION_NAMES:
                assert discriminant(involution(f, name)) == d

    def test_composition_identities(self):
        for f in SAMPLE_FORMS:
            assert adjoint(conjugate(f)) == antipodal(f)
            assert conjugate(adjoint(f)) == antipodal(f)
            assert conjugate(antipodal(f)) == adjoint(f)
            assert involution(complementary(f), "opposite") == adjoint(f)


class TestGenerators:
    def test_a_and_b_closed_forms(self):
        f = Form(2, -1, -3)
        assert gen_power(f, "A", 1) == Form(2, -2, 1)
        assert gen_power(f, "B", 1) == Form(-2, -1, -5)
        assert gen_power(f, "R", 1) == Form(-1, 2, 3)

    def test_inverses(self):
        for f in SAMPLE_FORMS:
            assert gen_power(gen_power(f, "A", 1), "A-", 1) == f
            assert gen_power(gen_power(f, "B", 1), "B-", 1) == f
            assert gen_power(gen_power(f, "R", 1), "R", 1) == f

    def test_gen_power_matches_iteration(self):
        for f in SAMPLE_FORMS:
            for g in ("A", "B"):
                cur = f
                for e in range(1, 6):
                    cur = gen_power(cur, g, 1)
                    assert gen_power(f, g, e) == cur
                cur = f
                for e in range(1, 6):
                    cur = gen_power(cur, g + "-", 1)
                    assert gen_power(f, g, -e) == cur
                assert gen_power(f, g, 0) == f

    def test_discriminant_preserved(self):
        for f in SAMPLE_FORMS:
            d = discriminant(f)
            for g in ("A", "B", "R", "A-", "B-"):
                assert discriminant(gen_power(f, g, 1)) == d

    def test_apply_word(self):
        f = Form(2, 4, -7)
        assert apply_word(f, [("A", 2)]) == gen_power(f, "A", 2)
        w = [("A", 1), ("R", 1), ("B", 2)]
        g = gen_power(f, "A", 1)
        g = gen_power(g, "R", 1)
        g = gen_power(g, "B", 2)
        assert apply_word(f, w) == g

    def test_word_str(self):
        assert word_str(()) == "(empty)"
        assert word_str((("A", 2),)) == "A^2"
        assert word_str((("A", 1), ("R", 1))) == "A R"


class TestDomains:
    def test_h0(self):
        assert domain_of(Form(2, -1, -3)) == DomainLabel.H0
        assert domain_of(Form(5, -3, -13)) == DomainLabel.H0

    def test_h0r(self):
        assert domain_of(Form(-1, 2, 3)) == DomainLabel.H0R

    def test_reduced_forms_are_in_habar(self):
        assert domain_of(Form(1, 2, -5)) == DomainLabel.HABAR
        assert domain_of(Form(2, 4, -7)) == DomainLabel.HABAR

    def test_boundary(self):
        assert domain_of(Form(1, 0, 3)) == DomainLabel.BOUNDARY
        assert domain_of(Form(0, -2, 3)) == DomainLabel.BOUNDARY

    def test_domain_fast_equivalence_on_grid(self):
        """The integer sign tests agree with exact root comparisons."""
        span = range(-6, 7)
        n_checked = 0
        for m in span:
            for n in span:
                for k in span:
                    if k * k - 4 * m * n <= 0:
                        continue
                    f = Form(m, n, k)
                    assert domain_of(f) == domain_by_roots(m, n, k), f
                    n_checked += 1
        assert n_checked > 1000

    def test_matches_root_comparison_on_large_coefficients(self):
        """Seeded random forms with coefficients up to 10**12, drawn with
        log-uniform sizes, and forms with a root placed on +-1."""
        rng = random.Random(12)
        seen = set()
        for _ in range(20000):
            m, n, k = (rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 12))
                       for _ in range(3))
            if k * k - 4 * m * n <= 0:
                continue
            label = domain_of(Form(m, n, k))
            assert label == domain_by_roots(m, n, k), (m, n, k)
            seen.add(label)
        assert seen == set(DomainLabel)
        for _ in range(2000):
            # m*t**2 + k*t + n with k = -s*(m + n) has the root t = s = +-1;
            # with m*n > 0 the form lies on the boundary
            s, sign = rng.choice((-1, 1)), rng.choice((-1, 1))
            m, n = (sign * rng.randrange(1, 10 ** 12) for _ in range(2))
            k = -s * (m + n)
            if k * k - 4 * m * n <= 0:
                continue
            assert domain_of(Form(m, n, k)) == domain_by_roots(m, n, k) \
                == DomainLabel.BOUNDARY, (m, n, k)

    def test_all_six_domains_inhabited(self):
        seen = set()
        span = range(-8, 9)
        for m in span:
            for n in span:
                for k in span:
                    if k * k - 4 * m * n > 0:
                        seen.add(domain_of(Form(m, n, k)))
        expected = {DomainLabel.H0, DomainLabel.H0R, DomainLabel.HA,
                    DomainLabel.HABAR, DomainLabel.HB, DomainLabel.HBBAR,
                    DomainLabel.BOUNDARY}
        assert expected <= seen


class TestContentScale:
    def test_content(self):
        assert content(Form(2, -1, -3)) == 1
        assert content(Form(4, -2, -6)) == 2
        assert content(Form(0, 0, 3)) == 3

    def test_is_primitive(self):
        assert is_primitive(Form(2, -1, -3))
        assert not is_primitive(Form(4, -2, -6))

    def test_scale(self):
        assert scale(Form(2, -1, -3), 2) == Form(4, -2, -6)
        assert discriminant(scale(Form(2, -1, -3), 3)) == 9 * 17

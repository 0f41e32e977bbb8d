"""Unit tests for period word predicates, counts, and class reports."""

import itertools
import time

import pytest

from palindromes_by_rotation import (bipalindromic_by_rotation,
                                     least_rotation_by_rotation,
                                     palindromic_by_rotation)
from surdsym.census import census_square
from surdsym.cf import cf_surd
from surdsym.exact import is_square
from surdsym.forms import Form, discriminant
from surdsym.oracle import orbit_bfs
from surdsym.periods import (ClassificationError, ClassReport, SymmetryType,
                             canonical_rotation, classify_class,
                             classify_period, classify_square,
                             _counts_nonsquare,
                             is_bipalindromic, is_palindromic_cyclic,
                             is_primitive_period, normalize_square_form)
from test_reduction import NONSQUARE_GRID, run_in_child

SUPER = SymmetryType.SUPERSYMMETRIC
K = SymmetryType.K_SYMMETRIC
MPN = SymmetryType.M_PLUS_N_SYMMETRIC
ANTI = SymmetryType.ANTISYMMETRIC
ASYM = SymmetryType.ASYMMETRIC


class TestRotationsAndPredicates:
    def test_canonical_rotation(self):
        assert canonical_rotation((3, 1, 2)) == (1, 2, 3)
        assert canonical_rotation((2, 1, 2, 1)) == (1, 2, 1, 2)
        assert canonical_rotation((5,)) == (5,)

    def test_primitive_period(self):
        assert is_primitive_period((1, 2, 3))
        assert is_primitive_period((1,))
        assert not is_primitive_period((1, 2, 1, 2))
        assert not is_primitive_period((2, 2))

    def test_palindromic_cyclic(self):
        assert is_palindromic_cyclic((1, 1, 3))       # rotation (1,3,1)
        assert is_palindromic_cyclic((1, 2, 2, 1))    # already its own reverse
        assert is_palindromic_cyclic((5,))
        assert not is_palindromic_cyclic((1, 2, 3))
        # (2,1) reversed is (1,2), a rotation of (2,1) but no rotation is
        # its own reverse: achirality is not cyclic palindromicity
        assert not is_palindromic_cyclic((2, 1))

    def test_bipalindromic(self):
        assert is_bipalindromic((2, 1))       # split into (2) and (1)
        assert is_bipalindromic((5, 2, 1, 2))  # (5) + (2,1,2)
        assert not is_bipalindromic((1, 2, 3))
        assert not is_bipalindromic((1, 2, 2, 1))

    def test_predicates_match_rotation_reference(self):
        # every word over {1,2,3} of length <= 10, primitive or not, and
        # over digits a byte cannot hold, negative or past the last code
        # point, of length <= 6
        words = [w for n in range(11)
                 for w in itertools.product((1, 2, 3), repeat=n)]
        words += [w for n in range(7)
                  for w in itertools.product((1, 300, -2, 2 ** 70), repeat=n)]
        for w in words:
            assert is_palindromic_cyclic(w) == palindromic_by_rotation(w), w
            assert is_bipalindromic(w) == bipalindromic_by_rotation(w), w
            assert canonical_rotation(w) == least_rotation_by_rotation(w), w

    def test_long_words_take_linear_time(self):
        """classify_period and canonical_rotation on words of about 10**5
        digits, whose types follow from their construction, in a child
        process with a timeout: each word in well under a second.  Random
        halves u and v over {1, 2, 3} (with 1000 for v) give u + u[::-1]
        (m+n), (5,) + u + (7,) + u[::-1] (k), u + v (asymm) and
        (4,) + u + v (anti)."""
        code = (
            "import random, time\n"
            "from surdsym.periods import canonical_rotation, classify_period\n"
            "rng = random.Random(7)\n"
            "u = tuple(rng.choice((1, 2, 3)) for _ in range(50000))\n"
            "v = tuple(rng.choice((1, 2, 3, 1000)) for _ in range(50000))\n"
            "for w in (u + u[::-1], (5,) + u + (7,) + u[::-1], u + v,\n"
            "          (4,) + u + v):\n"
            "    t = time.perf_counter()\n"
            "    kind = classify_period(w).code\n"
            "    least = canonical_rotation(w)\n"
            "    print(kind, time.perf_counter() - t, least[0] == min(w))\n")
        proc = run_in_child(code)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [kind for kind, _, _ in rows] == ["m+n", "k", "asymm", "anti"]
        assert all(float(seconds) < 1 and starts == "True"
                   for _, seconds, starts in rows), rows

    def test_classify_period_all_five(self):
        assert classify_period((1, 1, 3)) is SUPER          # palindromic, odd
        assert classify_period((1, 2, 2, 1)) is MPN         # palindromic, even
        assert classify_period((2, 1)) is K                 # bipalindromic
        assert classify_period((1, 2, 3)) is ANTI           # nonpal, odd
        assert classify_period((1, 1, 2, 3)) is ASYM        # nonpal, even

    def test_classify_period_input_validation(self):
        with pytest.raises(ValueError):
            classify_period(())
        with pytest.raises(ValueError):
            classify_period((1, 0, 2))
        with pytest.raises(ValueError):
            classify_period((1, 2, 1, 2))  # imprimitive


class TestCountsNonsquare:
    def test_table_convention(self):
        assert _counts_nonsquare((5, 2, 1, 2), True) == (10, 6, 4)
        assert _counts_nonsquare((2, 1), True) == (3, 2, 1)
        assert _counts_nonsquare((1, 1, 3), True) == (10, 5, 5)

    def test_odd_period_doubles(self):
        t, up, down = _counts_nonsquare((1, 2, 3), True)
        assert t == 12 and up == down == 6

    def test_start_parity_flips_ordered_pair(self):
        t_o, up_o, down_o = _counts_nonsquare((2, 1), True)
        t_e, up_e, down_e = _counts_nonsquare((2, 1), False)
        assert t_o == t_e
        assert (up_o, down_o) == (down_e, up_e)


def _square(m, k):
    return classify_class(Form(m, 0, k))


class TestSquareClasses:
    def test_counts_square_examples(self):
        counts = {(r.representative.m, k): (r.t, r.t_up, r.t_down)
                  for k in (2, 3, 5) for r in census_square(k * k)}
        assert counts[0, 3] == (0, 0, 0)
        assert counts[1, 3] == (2, 1, 0)
        assert counts[2, 3] == (2, 0, 1)
        assert counts[2, 5] == (3, 1, 1)
        assert counts[1, 2] == (1, 0, 0)

    def test_classify_square_examples(self):
        for m, k, sym in ((0, 4, SUPER), (2, 4, SUPER),  # m = k/2
                          (1, 4, K), (2, 5, MPN), (2, 7, ASYM)):
            assert _square(m, k).symmetry is sym
            assert classify_square(m, k) is sym
            assert classify_square(m, -k) is sym

    def test_classify_square_rejects_bad_pairs(self):
        for m, k in ((0, 0), (3, 3), (-1, 4), (5, -4)):
            with pytest.raises(ValueError):
                classify_square(m, k)

    def test_square_cf_display(self):
        assert _square(0, 3).cf_of_k_over_m == ()
        assert _square(1, 3).cf_of_k_over_m == (3,)
        assert _square(2, 3).cf_of_k_over_m == (1, 1, 1)
        assert _square(2, 5).cf_of_k_over_m == (2, 2)

    def test_display_value(self):
        from fractions import Fraction
        from cf_helpers import cf_value
        from surdsym.cf import CFExpansion
        for k in range(2, 12):
            for r in census_square(k * k)[1:]:
                disp = r.cf_of_k_over_m
                assert cf_value(CFExpansion(disp, ())) == \
                    Fraction(k, r.representative.m)


class TestNormalizeSquareForm:
    def test_already_normal(self):
        assert normalize_square_form(Form(1, 0, 3)) == Form(1, 0, 3)

    def test_worked_example(self):
        assert normalize_square_form(Form(2, 2, -5)) == Form(2, 0, 3)

    def test_m_reduced_mod_k(self):
        g = normalize_square_form(Form(5, 0, 3))
        assert g == Form(2, 0, 3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            normalize_square_form(Form(2, -1, -3))

    @pytest.mark.parametrize("f, rep", [
        ((0, 2, 7), (4, 0, 7)), ((0, 2, -7), (2, 0, 7)),
        ((0, -2, 7), (3, 0, 7)), ((0, -2, -7), (5, 0, 7)),
        ((0, 3, 7), (5, 0, 7)), ((0, 3, -7), (3, 0, 7)),
        ((3, 0, 7), (3, 0, 7)), ((3, 0, -7), (5, 0, 7)),
        ((-2, 0, 7), (5, 0, 7)), ((-2, 0, -7), (3, 0, 7)),
        ((0, 0, 5), (0, 0, 5)), ((0, 0, -5), (0, 0, 5))])
    def test_m_or_n_zero(self, f, rep):
        assert normalize_square_form(Form(*f)) == Form(*rep)

    def test_matches_bfs_on_grid(self):
        """Every square-delta form with |m|, |n| <= 12 and |k| <= 25 gets the
        one (m', 0, k' > 0) member, m' taken mod k', of its bounded BFS orbit.
        Forms of one BFS component share the orbit, so each component is
        searched once per bound."""
        forms = [Form(m, n, k) for m in range(-12, 13) for n in range(-12, 13)
                 for k in range(-25, 26)
                 if k * k - 4 * m * n > 0 and is_square(k * k - 4 * m * n)]
        assert len(forms) == 5042
        grid = set(forms)
        known = {}
        for f in forms:
            bound = max(4 * discriminant(f), 2 * f.max_abs(), 16)
            if (bound, f) not in known:
                orbit = orbit_bfs(f, bound)
                reps = {Form(g.m % g.k, 0, g.k) for g in orbit
                        if g.n == 0 and g.k > 0}
                assert len(reps) == 1, (f, reps)
                known.update(((bound, g), reps) for g in orbit if g in grid)
            assert known[(bound, f)] == {normalize_square_form(f)}, f

    def test_large_coefficients_answer_fast(self):
        # delta = 49, in the class of (3, 0, 7); a bounded BFS never finished
        start = time.perf_counter()
        r = classify_class(Form(6963662, 21085771815, 766378987))
        assert time.perf_counter() - start < 0.05
        assert r.representative == Form(3, 0, 7)


class TestClassifyClass:
    def test_nonsquare_worked_example(self):
        r = classify_class(Form(2, -1, -3))
        assert r.delta == 17
        assert r.gamma == (1, 1, 3)
        assert r.p_or_l == 3
        assert (r.t, r.t_up, r.t_down) == (10, 5, 5)
        assert r.symmetry is SUPER
        assert r.primitive
        assert not r.square
        assert not r.star

    def test_mpn_worked_example(self):
        r = classify_class(Form(5, -7, 9))
        assert r.delta == 221
        assert canonical_rotation(r.gamma) == (1, 1, 2, 2)
        assert r.symmetry is MPN

    def test_square_worked_example(self):
        r = classify_class(Form(1, 0, 3))
        assert r.square
        assert r.delta == 9
        assert r.cf_of_k_over_m == (3,)
        assert r.p_or_l == 1
        assert (r.t, r.t_up, r.t_down) == (2, 1, 0)
        assert r.symmetry is K

    def test_square_normalizes_first(self):
        r = classify_class(Form(2, 2, -5))
        assert r.representative == Form(2, 0, 3)
        assert r.delta == 9
        assert r.symmetry is K

    def test_scaled_class(self):
        r = classify_class(Form(2, -2, 2))
        assert r.delta == 20
        assert not r.primitive
        assert r.star

    def test_not_indefinite(self):
        with pytest.raises(ValueError):
            classify_class(Form(1, 1, 1))

    def test_parity_of_preperiod_respected(self):
        # (2,-1,-3) is purely periodic (preperiod length 0, even parity);
        # its table-mate (2,-2,1) = A(2,-1,-3) has preperiod [1] (odd).
        r_even = classify_class(Form(2, -1, -3))
        r_odd = classify_class(Form(2, -2, 1))
        assert r_even.delta == r_odd.delta == 17
        assert (r_even.t, r_even.t_up) == (r_odd.t, r_odd.t_up)

    def test_walk_words_pass_the_public_checks_on_grid(self):
        """classify_class reads a walk's period without re-validating it; on
        every non-square form with |m|, |n| <= 12 and |k| <= 25 the period is
        primitive, the validating classify_period agrees with the report,
        and so do the counts for the parity of the preperiod."""
        for f in NONSQUARE_GRID:
            r = classify_class(f)
            assert is_primitive_period(r.gamma), f
            assert r.symmetry is classify_period(r.gamma), f
            odd = len(cf_surd(f).preperiod) % 2 == 1
            assert (r.t, r.t_up, r.t_down) == _counts_nonsquare(r.gamma, odd), f


class TestClassificationExclusivity:
    def test_primitive_words_get_exactly_one_type(self):
        import itertools
        seen = set()
        for n in range(1, 7):
            for digits in itertools.product((1, 2, 3), repeat=n):
                if not is_primitive_period(digits):
                    continue
                sym = classify_period(digits)  # must not raise
                seen.add(sym)
                pal = is_palindromic_cyclic(digits)
                bip = is_bipalindromic(digits)
                assert not (pal and bip), digits
        assert seen == {SUPER, K, MPN, ANTI, ASYM}

"""Unit tests for regular and minus continued fractions of surds."""

import math
import re
from fractions import Fraction

import pytest

import surdsym.cf
from cf_helpers import cf_digits, cf_value, period_of_class, regular_walk
from minus_walk_by_states import minus_walk_by_states, state_form
from regular_walk_by_states import regular_walk_by_states
from surdsym.census import _reduced_states
from surdsym.cf import (CFExpansion, ModularCF, SquareDiscriminantError,
                        _digits, _minus_walk, _period_walk, _preperiod_walk,
                        _state_form, cf_period_to_modular_period, cf_rational,
                        cf_surd, modular_cf_surd, period_to_forms)
from surdsym.exact import is_square
from surdsym.forms import (INVOLUTION_NAMES, Form, InternalError, antipodal,
                           apply_word, complementary, conjugate, discriminant,
                           gen_power, involution)
from surdsym.periods import classify_class, classify_square
from surdsym.reduction import CycleForms, reduce_classical
from test_query_references import LONG_PERIOD, LONG_PERIOD_DISGUISED
from test_reduction import NONSQUARE_GRID, run_in_child


def _above(p, q, d, c):
    """(p + sqrt(d))/q > c for non-square d > 0, decided from the bracket
    isqrt(d) < sqrt(d) < isqrt(d) + 1: sqrt(d) > t iff t <= isqrt(d)."""
    t = c * q - p
    return t <= math.isqrt(d) if q > 0 else t > math.isqrt(d)


def _assert_walk_floors(p, q, d):
    """Every digit of the walk from (p, q) is the floor of its state, the
    states are distinct, and each steps to the next, the last to the start;
    the walk is the state table's."""
    states, digits, start = regular_walk(p, q, d)
    assert (states, digits, start) == regular_walk_by_states(p, q, d)
    assert states[0] == (p, q)
    assert len(set(states)) == len(states) == len(digits)
    assert 0 <= start < len(digits)
    after = states[1:] + states[start:start + 1]
    for j, (ps, qs) in enumerate(states):
        assert qs != 0 and (d - ps * ps) % qs == 0, (p, q, d, j)
        a = digits[j]
        assert _above(ps, qs, d, a) and not _above(ps, qs, d, a + 1), \
            (p, q, d, j)
        nxt = a * qs - ps
        assert (nxt, (d - nxt * nxt) // qs) == after[j], (p, q, d, j)
    return states, digits, start


class TestRationalCF:
    def test_euclid_canonical(self):
        assert cf_rational(10, 7).preperiod == (1, 2, 3)
        assert cf_rational(3, 1).preperiod == (3,)
        assert cf_rational(0, 5).preperiod == (0,)
        assert cf_rational(-7, 2).preperiod == (-4, 2)

    def test_canonical_last_digit_not_one(self):
        for num in range(-30, 31):
            for den in range(1, 12):
                cf = cf_rational(num, den)
                assert cf.is_finite
                if len(cf.preperiod) > 1:
                    assert cf.preperiod[-1] >= 2

    def test_round_trip(self):
        for num in range(-30, 31):
            for den in range(1, 12):
                cf = cf_rational(num, den)
                assert cf_value(cf) == Fraction(num, den)

    def test_rejects_bad_den(self):
        with pytest.raises(ValueError):
            cf_rational(1, 0)
        with pytest.raises(ValueError):
            cf_rational(1, -2)


class TestParityVariant:
    """A square class's report reads k/m off its Euclidean word and the twin
    of the other length, [..., a] = [..., a - 1, 1]; the even-length word's
    digits at odd and even positions, less one each, are t_up and t_down."""

    def test_toggle(self):
        r = classify_class(Form(7, 0, 10))  # 10/7 = [1,2,3], odd length
        assert cf_rational(10, 7).preperiod == (1, 2, 3)
        assert r.cf_of_k_over_m == (1, 2, 2, 1)
        assert cf_value(CFExpansion(r.cf_of_k_over_m, ())) == Fraction(10, 7)
        assert (r.t_up, r.t_down) == (1 + 2 - 1, 2 + 1 - 1)

    def test_toggle_back(self):
        r = classify_class(Form(1, 0, 3))  # 3/1 = [3] = [2,1]
        assert r.cf_of_k_over_m == (3,)
        assert (r.t, r.t_up, r.t_down) == (2, 2 - 1, 1 - 1)

    def test_every_rational_above_one_has_both_variants(self):
        for k in range(2, 61):
            for m in range(1, k):
                canon = cf_rational(k, m).preperiod
                twin = canon[:-1] + (canon[-1] - 1, 1)
                assert canon[-1] >= 2
                assert len(canon) % 2 != len(twin) % 2
                for word in (canon, twin):
                    assert cf_value(CFExpansion(word, ())) == Fraction(k, m)
                even = twin if len(canon) % 2 else canon
                r = classify_class(Form(m, 0, k))
                assert r.cf_of_k_over_m in (canon, twin)
                assert r.p_or_l == len(r.cf_of_k_over_m)
                assert (r.t_up, r.t_down) == (sum(even[0::2]) - 1,
                                              sum(even[1::2]) - 1)

    def test_one_has_no_even_variant(self):
        # k/m = 1 = [1] would need m = k, which no representative has.
        with pytest.raises(ValueError):
            classify_square(1, 1)


class TestCFSurd:
    def test_worked_example(self):
        cf = cf_surd(Form(2, -1, -3))
        assert cf.preperiod == ()
        assert cf.period == (1, 1, 3)

    def test_golden_ratio_class(self):
        # (1,-1,1): xi+ = (-1+sqrt5)/2 ~ 0.618, integer part 0 then all ones
        cf = cf_surd(Form(1, -1, 1))
        assert cf.preperiod == (0,)
        assert cf.period == (1,)

    def test_preperiod_nonempty(self):
        cf = cf_surd(Form(2, 4, -7))
        assert len(cf.preperiod) > 0
        assert sorted(cf.period) == [1, 1, 3]  # delta 17 class

    def test_square_delta_finite(self):
        cf = cf_surd(Form(1, 0, 3))
        assert cf.is_finite
        assert cf.period == ()

    def test_digit_stream(self):
        cf = cf_surd(Form(2, -1, -3))
        assert cf_digits(cf, 7) == (1, 1, 3, 1, 1, 3, 1)

    def test_matches_float_expansion(self):
        for f in (Form(2, -1, -3), Form(5, -3, -13), Form(3, -11, -2),
                  Form(1, -4, -1), Form(7, -3, -8)):
            cf = cf_surd(f)
            x = (-f.k + math.sqrt(discriminant(f))) / (2 * f.m)
            for digit in cf_digits(cf, 8):
                assert digit == math.floor(x)
                x = 1.0 / (x - digit)


class TestRegularWalk:
    def test_first_digit_is_floor_on_grid(self):
        """Both signs of q, every q | d - p**2 with |q| <= 60."""
        n_neg = 0
        for d in (2, 3, 5, 7, 10, 13, 48, 97, 101, 1000003):
            for p in range(-15, 16):
                v = d - p * p
                for q in range(1, 61):
                    if v % q:
                        continue
                    for sq in (q, -q):
                        _, digits, _ = _assert_walk_floors(p, sq, d)
                        assert digits[0] == math.floor((p + math.sqrt(d)) / sq)
                        n_neg += sq < 0
        assert n_neg > 500

    def test_floor_near_ten_to_thirty(self):
        """d = 10**30 + 1 = x**2 + 1, where sqrt(d) = [x; 2x, 2x, ...].
        Shifts, negations and reciprocals of sqrt(d) keep the period (2x,)
        and give states with q < 0 and |q| far beyond 2**64."""
        x = 10 ** 15
        d = x * x + 1
        states, digits, start = _assert_walk_floors(0, 1, d)
        assert digits == (x, 2 * x) and start == 1
        seeds = [(0, 1)]
        for _ in range(6):
            p, q = seeds[-1]
            seeds.append((p + 7 * q, q))            # xi + 7
            seeds.append((p, -q))                   # -xi
            seeds.append((-p, (d - p * p) // q))    # 1 / xi
        assert any(q < 0 for _, q in seeds)
        assert max(abs(q) for _, q in seeds) > 10 ** 25
        for p, q in seeds:
            _, digits, start = _assert_walk_floors(p, q, d)
            assert digits[start:] == (2 * x,), (p, q)

    def test_matches_the_state_table_on_grid(self):
        """On every non-square form with |m|, |n| <= 12 and |k| <= 25, the
        walk from (-k, 2m) gives the state table's states, digits and
        period start.  The grid holds every involution of its forms, so
        this covers the walks of reduce_to_H0 on the grid as well."""
        grid = set(NONSQUARE_GRID)
        for f in NONSQUARE_GRID:
            assert {involution(f, w) for w in INVOLUTION_NAMES} <= grid, f
            args = (-f.k, 2 * f.m, discriminant(f))
            assert regular_walk(*args) == regular_walk_by_states(*args), f

    def test_matches_the_state_table_on_census_states(self):
        """From every reduced state the census sieves for non-square
        delta <= 2000, the walk is the state table's, with period start 0."""
        walked = 0
        for d, flat in _reduced_states(1, 2000).items():
            if is_square(d):
                continue
            pairs = iter(flat)
            for p, q in zip(pairs, pairs):
                walk = regular_walk(p, q, d)
                assert walk == regular_walk_by_states(p, q, d), (p, q, d)
                assert walk[2] == 0, (p, q, d)
                walked += 1
        assert walked > 10000

    def test_period_walk_needs_a_reduced_state(self):
        """The period walk starts only from a reduced state: (-3, 4) of
        radicand 17 is not one, though 4 | 17 - 9; its walk's first
        reduced state, (3, 2), is."""
        with pytest.raises(InternalError, match="not on a cycle"):
            _period_walk(-3, 4, 17)
        assert _preperiod_walk(-3, 4, 17) == (((-3, 4), (3, 2)), (0,))
        assert _period_walk(3, 2, 17) == (((3, 2), (3, 4), (1, 4)), (3, 1, 1))


def _recomputed_state_form(p, q, d):
    """The form of state (p, q) from its own coefficients: Q/2, then
    (P**2 - d) / (2Q), then -P."""
    return Form(q // 2, (p * p - d) // (2 * q), -p)


class TestStateForm:
    def test_neighbour_q_form_on_grid(self):
        """On every non-square form with |m|, |n| <= 12 and |k| <= 25, the
        form read off each state of the regular walk and the Q of the state
        before it (any state before it, at the period start) is the
        recomputed one, and the first state's form is the form walked."""
        checked = 0
        for f in NONSQUARE_GRID:
            d = discriminant(f)
            states, _, start = regular_walk(-f.k, 2 * f.m, d)
            assert _state_form(*states[0], -2 * f.n) == f
            for j in range(1, len(states)):
                assert _state_form(*states[j], states[j - 1][1]) \
                    == _recomputed_state_form(*states[j], d), (f, j)
                checked += 1
            assert _state_form(*states[start], states[-1][1]) \
                == _recomputed_state_form(*states[start], d), f
        assert checked > 100000


def r_a_minus_2_power(f, big):
    """(R A^-2)^big applied to f, from the matrix
    T^big = [[1 + big, big], [-big, 1 - big]] of the word (checked against
    apply_word at big = 1000), in O(1) arithmetic steps."""
    a, b, c, d = 1 + big, big, -big, 1 - big
    m, n, k = f
    return Form(m * a * a + n * c * c + k * a * c,
                m * b * b + n * d * d + k * b * d,
                2 * m * a * b + 2 * n * c * d + k * (a * d + b * c))


def _expand_minus_walk(f):
    """The run walk of f as (period forms, digits, digit index of the
    period start), the forms as the lazy sequence a reduced cycle reads.
    Every run has a count of at least 1, and only runs of 2s more than 1;
    each period run has its first form."""
    runs, firsts, start = _minus_walk(f)
    assert all(count >= 1 and (count == 1 or b == 2) for b, count in runs), f
    assert len(firsts) == len(runs) - start
    counts = tuple(count for _, count in runs)
    return (CycleForms(firsts, counts[start:]), _digits(runs),
            sum(counts[:start]))


def _assert_minus_walk_matches_states(f):
    """The form walk of f against the (P, Q) state walk: the same digits and
    period start.  Stepping from f by R(A^b) for each digit b passes the
    form of each state, and from the period start on the walk's forms, each
    built as the lazy sequence iterates it; the step after the last digit
    returns to the period's first form."""
    d = discriminant(f)
    forms, digits, start = _expand_minus_walk(f)
    states, ref_digits, ref_start = minus_walk_by_states(-f.k, 2 * f.m, d)
    assert (digits, start) == (ref_digits, ref_start), f
    assert len(forms) == len(digits) - start
    g = f
    period = iter(forms)
    for j, (b, (p, q)) in enumerate(zip(digits, states)):
        assert g == Form(*state_form(p, q, d)), (f, j)
        if j >= start:
            h = next(period)
            assert type(h) is Form and h == g, (f, j)
        g = gen_power(gen_power(g, "A", b), "R", 1)
    assert next(period, None) is None, f
    assert g == forms[0], f
    return forms, digits, start


class TestMinusWalk:
    def test_forms_match_the_state_walk_on_grid(self):
        """On every non-square form with |m|, |n| <= 12 and |k| <= 25."""
        walked = 0
        for f in NONSQUARE_GRID:
            walked += len(_assert_minus_walk_matches_states(f)[0])
        assert walked > 400000

    def test_long_preperiod(self):
        """(R A^-2)^1000 applied to (1, 1, -3): a minus preperiod of 1001
        digits, 0 and then 999 2s and a 5.  reduce_classical takes its
        conjugate, and its complementary form, whose preperiod of 1000
        digits makes a word of 2000 steps."""
        f = apply_word(Form(1, 1, -3), (("A-", 2), ("R", 1)) * 1000)
        _, digits, start = _assert_minus_walk_matches_states(f)
        assert start == 1001 and digits[:start] == (0,) + (2,) * 999 + (5,)
        for g, steps in ((conjugate(f), 6), (complementary(f), 2000)):
            forms, _, start = _assert_minus_walk_matches_states(g)
            h, word = reduce_classical(g)
            assert h == forms[0] == Form(1, 1, -3)
            assert apply_word(g, word) == h and len(word) == 2 * start == steps

    def test_runs_that_cross_the_period_start(self):
        """On the grid, some walks reach their first reduced form inside a
        run of 2s that began in the preperiod, and some period runs hold
        the first reduced form, where the cycle closes.
        test_forms_match_the_state_walk_on_grid checks the walk on all of
        them."""
        entered = closed = 0
        for f in NONSQUARE_GRID:
            _, digits, start = _expand_minus_walk(f)
            if 0 < start and digits[start - 1] == digits[start] == 2:
                entered += 1
            if digits[-1] == digits[start] == 2:
                closed += 1
        assert entered > 1000 and closed > 100

    def test_preperiod_run_with_c_positive(self):
        """A form with c = m + n + k = 1 > 0, k + 2m = -2000 and delta = 8:
        its first 998 digits are 2s, one run with no reduced form in it,
        whose length is the floor of a negative denominator."""
        f = Form(999998, 1001999, -2001996)
        assert f.m + f.n + f.k == 1 and f.k + 2 * f.m == -2000
        assert discriminant(f) == 8
        _, digits, start = _assert_minus_walk_matches_states(f)
        assert digits[:999] == (2,) * 998 + (3,) and start == 999

    def test_preperiod_run_of_a_million(self):
        """(R A^-2)^M applied to (1, 1, -3): a preperiod of 0, M - 1 2s and
        a 5, taken in one stride, then the period (3,)."""
        f0 = Form(1, 1, -3)
        assert r_a_minus_2_power(f0, 1000) == apply_word(
            f0, (("A-", 2), ("R", 1)) * 1000)
        big = 10 ** 6
        runs, firsts, start = _minus_walk(r_a_minus_2_power(f0, big))
        assert runs == ((0, 1), (2, big - 1), (5, 1), (3, 1)) and start == 3
        assert firsts == (f0,)


class TestStepBound:
    """A walk that can never close raises InternalError at its step bound,
    2 delta + 64 bits of its largest coefficient, instead of growing
    without end.  Each runs in a child process with a timeout and a 1 GB
    address-space cap."""

    def _assert_stops(self, code):
        proc = run_in_child(
            "import math, surdsym.cf as cf\n"
            "from surdsym.forms import Form, InternalError\n" + code)
        assert proc.returncode == 0, proc.stderr
        assert "did not close within its step bound" in proc.stdout

    def test_minus_walk_that_cannot_close(self):
        """With is_reduced true of every form, the minus walk of the
        unreduced (2, -1, -3) starts its period at that form, which lies
        outside the cycle and never comes back."""
        self._assert_stops(
            "cf.is_reduced = lambda m, n, k: True\n"
            "try:\n"
            "    cf.modular_cf_surd(Form(2, -1, -3))\n"
            "except InternalError as e:\n"
            "    print(e)\n")

    def test_regular_walk_that_cannot_close(self):
        """With isqrt one too large, the regular walk of xi_plus(2, -1, -3)
        takes wrong digits and never meets the state it took as reduced."""
        self._assert_stops(
            "cf.isqrt = lambda d: math.isqrt(d) + 1\n"
            "try:\n"
            "    cf.cf_surd(Form(2, -1, -3))\n"
            "except InternalError as e:\n"
            "    print(e)\n")


class TestPeriodOfClass:
    def test_first_occurrence_rotation(self):
        assert period_of_class(Form(2, -1, -3)) == (1, 1, 3)
        assert period_of_class(Form(2, -1, 5)) == (5, 2, 1, 2)

    def test_square_delta_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            period_of_class(Form(1, 0, 3))

    def test_inverse_pair_reversal(self):
        for f in (Form(2, -1, -3), Form(2, -1, 5), Form(3, -11, -2),
                  Form(7, -3, -8), Form(5, -3, -13)):
            gamma = period_of_class(f)
            gamma_inv = period_of_class(Form(f.m, f.n, -f.k))
            n = len(gamma)
            assert len(gamma_inv) == n
            rev = tuple(reversed(gamma))
            assert any(gamma_inv == rev[i:] + rev[:i] for i in range(n))


class TestModularCF:
    def test_pure_on_reduced(self):
        mcf = modular_cf_surd(Form(2, 4, -7))
        assert mcf.is_purely_periodic
        assert mcf.period == (3, 5, 3, 2, 2)

    def test_not_pure_off_reduced(self):
        mcf = modular_cf_surd(Form(2, -1, -3))
        assert not mcf.is_purely_periodic

    def test_all_digits_at_least_two(self):
        for f in (Form(2, 4, -7), Form(1, 2, -5), Form(5, -3, -13)):
            mcf = modular_cf_surd(f)
            assert all(c >= 2 for c in mcf.period)
            assert all(c >= 2 for c in mcf.preperiod[1:])  # head may be small

    def test_square_delta_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            modular_cf_surd(Form(1, 0, 3))

    def test_matches_float_expansion(self):
        """b = ceil(x), then x -> 1 / (b - x); m < 0 gives a negative q."""
        for f in (Form(2, -1, -3), Form(-2, 1, -3), Form(-5, 3, 13),
                  Form(-3, -2, 8), Form(2, 4, -7)):
            mcf = modular_cf_surd(f)
            x = (-f.k + math.sqrt(discriminant(f))) / (2 * f.m)
            for b in (mcf.preperiod + mcf.period * 3)[:8]:
                assert b == math.ceil(x), f
                x = 1.0 / (b - x)


class TestDigitCap:
    """modular_cf_surd and reduce_classical count the digits of the minus
    walk's runs before they expand them, and raise ValueError past
    cf.DIGIT_CAP.  (R A^-2)^M (1, 1, -3) has M + 2 of them, M - 1 in its
    preperiod's run of 2s, and its complementary form M in its preperiod."""

    def test_the_cap_is_the_last_digit_count_allowed(self, monkeypatch):
        monkeypatch.setattr(surdsym.cf, "DIGIT_CAP", 1000)
        f0 = Form(1, 1, -3)
        mcf = modular_cf_surd(r_a_minus_2_power(f0, 998))
        assert len(mcf.preperiod) + len(mcf.period) == 1000
        with pytest.raises(ValueError, match="has 1001 digits"):
            modular_cf_surd(r_a_minus_2_power(f0, 999))
        _, word = reduce_classical(complementary(r_a_minus_2_power(f0, 1000)))
        assert len(word) == 2000
        with pytest.raises(ValueError, match="has 1001 digits"):
            reduce_classical(complementary(r_a_minus_2_power(f0, 1001)))

    def test_modular_of_a_trillion_digits_exits_1_at_once(self):
        """In a child process with 1 GB of address space, so that expanding
        the digits fails by MemoryError instead of taking the machine."""
        f = r_a_minus_2_power(Form(1, 1, -3), 10 ** 12)
        proc = run_in_child(
            "import sys, time\n"
            "from surdsym.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(['modular', *sys.argv[1:]])\n"
            "print(code, time.perf_counter() - t0)\n", *f)
        code, seconds = proc.stdout.split()
        assert code == "1" and float(seconds) < 0.5
        assert proc.stderr == (
            f"error: the minus continued fraction of {f!r} has "
            f"{10 ** 12 + 2} digits to expand, more than the cap of "
            f"{surdsym.cf.DIGIT_CAP}\n")

    def test_reduce_classical_of_a_trillion_digits_raises(self):
        f = complementary(r_a_minus_2_power(Form(1, 1, -3), 10 ** 12))
        proc = run_in_child(
            "import sys\n"
            "from surdsym.forms import Form\n"
            "from surdsym.reduction import reduce_classical\n"
            "try:\n"
            "    reduce_classical(Form(*map(int, sys.argv[1:])))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n", *f)
        assert proc.returncode == 0, proc.stderr
        assert f"has {10 ** 12} digits to expand" in proc.stdout


class TestWalkCap:
    """The period loops of _period_walk and _minus_walk take at most
    cf._walk_cap(d) steps, cf.WALK_CAP up to 64 bits of discriminant and
    fewer in proportion past it, and raise ValueError past it."""

    F = period_to_forms((1, 2, 3, 4, 5, 6, 7, 8, 9))[0]

    def test_the_cap_scales_past_64_bits(self):
        cap = surdsym.cf.WALK_CAP
        assert surdsym.cf._walk_cap(2 ** 63) == cap
        assert surdsym.cf._walk_cap(2 ** 127) == cap // 2
        assert surdsym.cf._walk_cap(discriminant(LONG_PERIOD)) == \
            cap * 64 // 1996

    def test_the_cap_is_the_last_state_count_allowed(self, monkeypatch):
        d = discriminant(self.F)
        key = (-self.F.k, 2 * self.F.m, d)
        states, digits = _period_walk(*key)
        assert len(states) == len(digits) == 9
        monkeypatch.setattr(surdsym.cf, "WALK_CAP", 9)
        assert _period_walk(*key) == (states, digits)
        monkeypatch.setattr(surdsym.cf, "WALK_CAP", 8)
        with pytest.raises(ValueError, match=f"the regular period of radicand "
                           f"{d} is longer than the cap of 8 states"):
            _period_walk(*key)

    def test_the_cap_is_the_last_run_count_allowed(self, monkeypatch):
        """From a form outside the cycle: its preperiod's runs do not
        count."""
        f = gen_power(self.F, "B", 5)
        walk = runs, _, start = _minus_walk(f)
        assert start == 3 and len(runs) == 20
        monkeypatch.setattr(surdsym.cf, "WALK_CAP", 17)
        assert _minus_walk(f) == walk
        monkeypatch.setattr(surdsym.cf, "WALK_CAP", 16)
        with pytest.raises(ValueError, match=rf"the minus period of "
                           rf"{re.escape(repr(f))} is longer than the cap "
                           r"of 16 runs"):
            _minus_walk(f)

    @pytest.mark.parametrize("f", [LONG_PERIOD, LONG_PERIOD_DISGUISED],
                             ids=["found", "disguised"])
    @pytest.mark.parametrize("command, walk", [
        ("counts", "regular"), ("period", "regular"), ("orbit", "regular"),
        ("classify", "regular"), ("modular", "minus")])
    def test_a_period_too_long_to_walk_exits_1(self, command, walk, f):
        """In a child process with 1 GB of address space, where a walk of
        the whole period would run out of memory: exit 1 with one error
        line.  main took 0.13-0.26 s (0.51 s for modular) on two vCPUs; the
        test allows 5 s."""
        proc = run_in_child(
            "import sys, time\n"
            "from surdsym.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main([sys.argv[1], '--', *sys.argv[2:]])\n"
            "print(code, time.perf_counter() - t0)\n", command, *f)
        code, seconds = proc.stdout.split()
        assert code == "1" and float(seconds) < 5
        cap = surdsym.cf._walk_cap(discriminant(f))
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: the {walk} period of ")
        assert proc.stderr.endswith(f" is longer than the cap of {cap} "
                                    f"{'runs' if walk == 'minus' else 'states'}\n")


class TestPeriodConversion:
    def test_worked_example(self):
        assert cf_period_to_modular_period((1, 1, 3, 1, 1, 3)) == (3, 5, 3, 2, 2)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            cf_period_to_modular_period((1, 1, 3))

    def test_length_is_t_up(self):
        # length of the modular period equals the sum of even-position runs
        pi = (1, 2, 3, 4)
        out = cf_period_to_modular_period(pi)
        assert len(out) == 2 + 4
        assert sum(out) == (1 + 3) + 2 * (2 + 4)

    def test_agrees_with_direct_expansion(self):
        from surdsym.reduction import reduced_cycle
        for f in (Form(2, -1, -3), Form(5, -3, -13), Form(2, -1, 5),
                  Form(3, -11, -2)):
            cyc = reduced_cycle(f)
            gamma = period_of_class(f)
            pi = gamma if len(gamma) % 2 == 0 else gamma + gamma
            # some rotation of the aligned conversion equals the cycle's period
            conv = None
            for i in range(len(pi)):
                rot = pi[i:] + pi[:i]
                try:
                    c = cf_period_to_modular_period(rot)
                except ValueError:
                    continue
                n = len(c)
                if any(c[j:] + c[:j] == cyc.modular_period for j in range(n)):
                    conv = c
                    break
            assert conv is not None, f


class TestPeriodToForms:
    def test_named_periods(self):
        f, g = period_to_forms((1, 2, 3))
        assert discriminant(f) == 148
        assert g == antipodal(f)
        f2, _ = period_to_forms((1, 2, 2, 1))
        assert discriminant(f2) == 221
        f3, _ = period_to_forms((1, 1, 2, 3))
        assert discriminant(f3) == 396

    def test_produces_class_with_that_period(self):
        for s in ((1, 2, 3), (1, 2, 2, 1), (1, 1, 2, 3), (2, 1, 4)):
            f, _ = period_to_forms(s)
            gamma = period_of_class(f)
            n = len(s)
            assert len(gamma) == n
            assert any(gamma == s[i:] + s[:i] for i in range(n))

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            period_to_forms((2, 1, 2, 1))

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            period_to_forms(())
        with pytest.raises(ValueError):
            period_to_forms((1, 0, 2))

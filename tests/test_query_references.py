"""The single-form query path against its references: ``reduce_to_H0``
against the forward scan of the regular walk's states, the preperiod of
conjugate(f) that it reads off f's walk against the walk of conjugate(f),
the reduced representative, the first form of ``reduced_cycle``, against
the state table of the whole walk, and
the two state loops of ``cf._minus_walk``, with its period runs' starts
replayed by ``cf._run_starts``, against one loop on forms, on the test grid,
on seeded disguised forms of 100-400 bits, on forms a few generator powers
from a reduced one, and on cycles that close inside a run of 2s."""

import random
from collections import Counter
from math import isqrt

import pytest

from surdsym.cf import (_preperiod_walk, _state_form, is_primitive_period,
                        period_to_forms)
from surdsym.forms import (Form, INVOLUTION_NAMES, apply_word, discriminant,
                           gen_power, involution, is_reduced)
from surdsym.reduction import _conjugate_preperiod, reduce_to_H0, reduced_cycle

from cf_helpers import minus_walk, minus_walk_with_starts
from h0_peel_by_forward_scan import h0_peel_by_forward_scan
from minus_walk_by_one_loop import minus_walk_by_one_loop
from regular_walk_by_states import regular_walk_by_states
from test_reduction import NONSQUARE_GRID, run_in_child

SEEDS = (1, 2, 3)
DIGITS = (1, 1, 1, 2, 2, 3, 4, 7, 12, 40, 300)


def disguised_forms(seed: int, count: int):
    """``count`` forms with 100-400-bit coefficients: the form of a random
    primitive period word of 1-40 digits, moved by a random word of
    positive powers of A and B, alternating, with R between some of them,
    until its largest coefficient has a drawn 100-370 bits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = tuple(rng.choice(DIGITS) for _ in range(rng.randint(1, 40)))
        if not is_primitive_period(word):
            continue
        f = period_to_forms(word)[0]
        if f.max_abs().bit_length() > 300:
            continue
        target = max(rng.randint(100, 370), f.max_abs().bit_length() + 30)
        gen = rng.choice("AB")
        while f.max_abs().bit_length() < target:
            if rng.random() < 0.25:
                f = gen_power(f, "R", 1)
            f = gen_power(f, gen, rng.choice(DIGITS))
            gen = "B" if gen == "A" else "A"
        assert f.max_abs().bit_length() <= 400
        out.append(f)
    return out


@pytest.fixture(scope="module")
def seeded_forms():
    """The seeded disguised forms and their images under every involution."""
    forms = [f for seed in SEEDS for f in disguised_forms(seed, 100)]
    return [involution(f, which) for f in forms for which in INVOLUTION_NAMES]


def test_disguised_forms_are_large():
    forms = disguised_forms(SEEDS[0], 100)
    assert all(100 <= f.max_abs().bit_length() <= 400 for f in forms)
    assert sum(f.m * f.n > 0 for f in forms) > 50


class TestReduceToH0:
    def test_matches_the_forward_scan_on_grid(self):
        peeled = 0
        for f in NONSQUARE_GRID:
            assert reduce_to_H0(f) == h0_peel_by_forward_scan(f), f
            peeled += f.m * f.n > 0
        assert peeled > 6000

    def test_matches_the_forward_scan_on_disguised_forms(self, seeded_forms):
        for f in seeded_forms:
            out = reduce_to_H0(f)
            assert out == h0_peel_by_forward_scan(f), f
            assert out[1], f  # every one has mn > 0 and is peeled


# A form whose regular period is far too long to walk (its discriminant is
# about 3.6 * 10**600), and its disguise, with 1,102-bit coefficients, all
# negative, which reduce_to_H0 takes to its conjugate.
LONG_PERIOD = Form(10 ** 300 + 7, 10 ** 299 + 3, -(2 * 10 ** 300 + 11))
LONG_PERIOD_DISGUISED = apply_word(
    LONG_PERIOD, (("B", 3), ("A", 5), ("B", 2), ("A", 7), ("B", 1), ("A", 4)) * 5)


@pytest.mark.parametrize("f, tag", [(LONG_PERIOD, "identity"),
                                    (LONG_PERIOD_DISGUISED, "conjugate")])
def test_reduce_never_walks_the_period(f, tag):
    """reduce_to_H0 walks preperiods only: in a child capped at 1 GB of
    address space, where the walk of the period would run out of memory,
    it answers within a second, as the forward scan does."""
    expected = h0_peel_by_forward_scan(f)
    assert expected[2] == tag
    proc = run_in_child(
        "import sys, time\n"
        "from surdsym.forms import Form\n"
        "from surdsym.reduction import reduce_to_H0\n"
        "f = Form(*map(int, sys.argv[1:]))\n"
        "start = time.perf_counter()\n"
        "out = reduce_to_H0(f)\n"
        "print(time.perf_counter() - start)\n"
        "print(repr(out))\n", *f)
    assert proc.returncode == 0, proc.stderr
    seconds, out = proc.stdout.splitlines()
    assert float(seconds) < 1
    assert out == repr(expected)


def representative_by_states(f: Form) -> Form:
    """The reduced representative by its definition, on the state table of the
    whole regular walk of xi_plus(f): f itself if it is reduced, else the
    state form at the first even index at or past the period start, pulled
    back by A^-1."""
    if is_reduced(*f):
        return f
    d = discriminant(f)
    states, _, start = regular_walk_by_states(-f.k, 2 * f.m, d)
    # The table holds one period: a period of one state stands for both.
    p, q = states[start + start % 2 % (len(states) - start)]
    return gen_power(_state_form(p, q, (d - p * p) // q), "A", -1)


class TestReducedRepresentative:
    def test_matches_the_state_table_on_grid(self):
        for f in NONSQUARE_GRID:
            assert reduced_cycle(f).forms[0] == representative_by_states(f), f

    def test_matches_the_state_table_on_disguised_forms(self, seeded_forms):
        for f in seeded_forms:
            assert reduced_cycle(f).forms[0] == representative_by_states(f), f

    @pytest.mark.parametrize("generator, preperiod", [("B", 3), ("R", 1)])
    def test_never_walks_the_period(self, generator, preperiod):
        """From B and R of LONG_PERIOD, whose preperiods have 3 and 1
        digits, an odd count, _reduced_representative steps once past the
        first reduced state: in a child capped at 1 GB of address space it
        answers within a second, as the state table's first states give."""
        f = gen_power(LONG_PERIOD, generator, 1)
        d = discriminant(f)
        ps, qs, digits = _preperiod_walk(-f.k, 2 * f.m, d, isqrt(d))
        assert len(digits) == preperiod
        proc = run_in_child(
            "import sys, time\n"
            "from math import isqrt\n"
            "from surdsym.forms import Form, discriminant\n"
            "from surdsym.reduction import _reduced_representative\n"
            "f = Form(*map(int, sys.argv[1:]))\n"
            "d = discriminant(f)\n"
            "start = time.perf_counter()\n"
            "h = _reduced_representative(f, d, isqrt(d))\n"
            "print(time.perf_counter() - start)\n"
            "print(repr(h))\n", *f)
        assert proc.returncode == 0, proc.stderr
        seconds, out = proc.stdout.splitlines()
        assert float(seconds) < 1
        # The state after the first reduced one, its Q by a division.
        p, q = ps[-1], qs[-1]
        a = (p + isqrt(d)) // q
        p_next = a * q - p
        expected = gen_power(_state_form(p_next, (d - p_next ** 2) // q, q),
                             "A", -1)
        assert is_reduced(*expected) and out == repr(expected)


def conjugate_branch(f: Form) -> str:
    """The branch ``_conjugate_preperiod`` takes for f (m * n > 0 and
    m * k > 0), once its digits and states are checked against the walk
    of conjugate(f): "a1>=2 J=<J>" or "a1=1 J=<J>" where it rewrites the
    digits of f's walk up to J (a head of J + 1 or J - 1 digits) and walks
    a tail of at most three, or "fallback" where it walks conjugate(f)
    itself."""
    d = discriminant(f)
    head, (ps, qs, digits) = _conjugate_preperiod(f, d, isqrt(d))
    conjugate_ps, conjugate_qs, conjugate_digits = _preperiod_walk(
        f.k, 2 * f.m, d, isqrt(d))
    assert head + digits == conjugate_digits, f
    assert ps == conjugate_ps[len(head):], f
    assert qs == conjugate_qs[len(head):], f
    if not head:
        return "fallback"
    assert len(digits) <= 3, f
    a_1 = _preperiod_walk(-f.k, 2 * f.m, d, isqrt(d))[2][1]
    return f"a1>=2 J={len(head) - 1}" if a_1 >= 2 else f"a1=1 J={len(head) + 1}"


class TestConjugatePreperiod:
    def test_seeded_forms_read_it_off_f(self, seeded_forms):
        branches = Counter(conjugate_branch(f) for f in seeded_forms
                           if f.m * f.n > 0 and f.m * f.k > 0)
        by_a_1 = Counter(b.split()[0] for b in branches.elements())
        assert by_a_1 == {"a1=1": 487, "a1>=2": 113}

    def test_grid_walks_the_conjugate(self):
        """On the grid J never reaches 2."""
        branches = Counter(conjugate_branch(f) for f in NONSQUARE_GRID
                           if f.m * f.n > 0 and f.m * f.k > 0)
        assert branches == {"fallback": 3340}

    @pytest.mark.parametrize("powers, form, branch", [
        ("A3 B2", Form(66, 11, 54), "a1=1 J=3"),
        ("B2 A1 B1", Form(-37, -13, -44), "a1>=2 J=2"),
        ("A3 B1 A1 B1", Form(167, 66, 210), "a1>=2 J=3"),
        ("A3 B1 A1 B2", Form(443, 66, 342), "a1=1 J=5"),
        ("A2", Form(2, 3, 6), "fallback"),      # J = 0
        ("B2", Form(-6, -1, -6), "fallback"),   # J = 1
        ("B3", Form(-13, -1, -8), "fallback"),  # J = 2 with a_1 = 1
    ])
    def test_forms_a_few_powers_from_a_reduced_one(self, powers, form, branch):
        f = period_to_forms((1, 2))[0]
        for power in powers.split():
            f = gen_power(f, power[0], int(power[1:]))
        assert f == form
        assert conjugate_branch(f) == branch
        assert reduce_to_H0(f) == h0_peel_by_forward_scan(f)


def minus_walk_with_forms(f: Form):
    """``cf._minus_walk`` of f with the state (P, Q, M) that starts each
    period run, replayed from the period's first state by
    ``cf._run_starts``, made the form (Q / 2, M / 2, -P) that
    ``minus_walk_by_one_loop`` walks."""
    runs, starts, start = minus_walk_with_starts(f)
    return runs, tuple(_state_form(p, q, -m) for p, q, m in starts), start


class TestMinusWalk:
    def test_matches_one_loop_on_grid(self):
        for f in NONSQUARE_GRID:
            assert minus_walk_with_forms(f) == minus_walk_by_one_loop(f), f

    def test_matches_one_loop_on_disguised_forms(self, seeded_forms):
        for f in seeded_forms:
            assert minus_walk_with_forms(f) == minus_walk_by_one_loop(f), f

    @pytest.mark.parametrize("period", [(1, 9), (1, 40), (2, 7, 1, 30),
                                        (3, 1, 1, 1, 25)])
    def test_matches_one_loop_inside_a_run(self, period):
        """From every member of these cycles, and from R of each, which
        enters the cycle from outside.  From a member inside a run of 2s
        the cycle closes inside that run, so that its period's first and
        last runs are both runs of 2s."""
        inside = 0
        for f in period_to_forms(period):
            for g in reduced_cycle(f).forms:
                for h in (g, gen_power(g, "R", 1)):
                    assert minus_walk_with_forms(h) == \
                        minus_walk_by_one_loop(h), h
                runs, _, start = minus_walk(g)
                inside += runs[start][0] == runs[-1][0] == 2
        assert inside > 0

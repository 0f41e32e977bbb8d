"""The single-form query path against its references: ``reduce_to_H0``
against the forward scan of the regular walk's states, and the two loops
of ``cf._minus_walk`` against one loop, on the test grid, on seeded
disguised forms of 100-400 bits, and on cycles that close inside a run of
2s."""

import random

import pytest

from surdsym.cf import _minus_walk, is_primitive_period, period_to_forms
from surdsym.forms import Form, INVOLUTION_NAMES, gen_power, involution
from surdsym.reduction import reduce_to_H0, reduced_cycle

from h0_peel_by_forward_scan import h0_peel_by_forward_scan
from minus_walk_by_one_loop import minus_walk_by_one_loop
from test_reduction import NONSQUARE_GRID

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


class TestMinusWalk:
    def test_matches_one_loop_on_grid(self):
        for f in NONSQUARE_GRID:
            assert _minus_walk(f) == minus_walk_by_one_loop(f), f

    def test_matches_one_loop_on_disguised_forms(self, seeded_forms):
        for f in seeded_forms:
            assert _minus_walk(f) == minus_walk_by_one_loop(f), f

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
                    assert _minus_walk(h) == minus_walk_by_one_loop(h), h
                runs, _, start = _minus_walk(g)
                inside += runs[start][0] == runs[-1][0] == 2
        assert inside > 0

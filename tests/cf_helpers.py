"""Continued-fraction helpers that only the suite uses.

The value of a finite expansion, the first digits of an expansion, the
period of a class's regular expansion, the regular walk with its two halves
joined, the minus walk of a form with its discriminant's checks and square
root taken for it, with or without its period runs' starts replayed, the
classical reduction of a form by its minus-CF preperiod, and a reset of the
walk's memo are used by tests alone; the program never needs them, so they
live here rather than in ``surdsym.cf``.
"""
from fractions import Fraction
from math import isqrt
from typing import Tuple

from surdsym.cf import (CFExpansion, _minus_walk, _period_walk,
                        _preperiod_walk, _require_nonsquare, _run_starts,
                        cf_surd, modular_cf_surd)
from surdsym.forms import Form, GeneratorWord, apply_word


def cf_value(cf: CFExpansion) -> Fraction:
    """Exact value of a finite expansion."""
    if cf.period:
        raise ValueError("cf_value needs a finite expansion")
    if not cf.preperiod:
        raise ValueError("empty expansion has no value")
    val = Fraction(cf.preperiod[-1])
    for a in reversed(cf.preperiod[:-1]):
        if val == 0:
            raise ValueError("ill-formed expansion: zero complete quotient")
        val = a + 1 / val
    return val


def cf_digits(cf: CFExpansion, count: int) -> Tuple[int, ...]:
    """First ``count`` digits of cf, cycling the period as needed."""
    out = list(cf.preperiod[:count])
    while len(out) < count:
        if not cf.period:
            raise ValueError(f"finite expansion has only {len(cf.preperiod)} digits")
        out.extend(cf.period[: count - len(out)])
    return tuple(out)


def period_of_class(f: Form) -> Tuple[int, ...]:
    """The periodic part of cf_surd(f); requires a non-square discriminant."""
    _require_nonsquare(f)
    return cf_surd(f).period


def regular_walk(p: int, q: int, d: int):
    """(states, digits, start) of the whole regular walk from (p, q), as
    ``regular_walk_by_states`` gives them: the period is ``digits[start:]``."""
    r = isqrt(d)
    ps, qs, preperiod = _preperiod_walk(p, q, d, r)
    cycle_ps, cycle_qs, period = _period_walk(ps[-1], qs[-1], d, r)
    states = tuple(zip(ps[:-1] + cycle_ps, qs[:-1] + cycle_qs))
    return states, preperiod + period, len(preperiod)


def minus_walk(f: Form):
    """``cf._minus_walk`` of f, given f's discriminant and its isqrt as
    ``modular_cf_surd`` gives them; a square discriminant raises
    SquareDiscriminantError."""
    return _minus_walk(f, *_require_nonsquare(f))


def minus_walk_with_starts(f: Form):
    """(runs, starts, start): ``minus_walk`` of f with the period's first
    state replaced by the state (P, Q, M) that starts each period run, as
    ``cf._run_starts`` replays them from it."""
    runs, first, start = minus_walk(f)
    return runs, _run_starts(first, runs[start:]), start


def reduce_classical(f: Form) -> Tuple[Form, GeneratorWord]:
    """The classical reduction of f, on the public API alone: the word
    R A^{b_M} ... R A^{b_0} over the minus-CF preperiod b_0 ... b_M of
    xi_plus(f), and the reduced form apply_word(f, word) it reaches."""
    word = tuple(step for b in modular_cf_surd(f).preperiod
                 for step in (("A", b), ("R", 1)))
    return apply_word(f, word), word


def clear_walk_memos() -> None:
    """Empty the regular walk's one memo, that of its preperiod."""
    _preperiod_walk.cache_clear()

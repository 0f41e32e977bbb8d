"""Continued-fraction helpers that only the suite uses.

The value of a finite expansion, the first digits of an expansion, the
period of a class's regular expansion, the regular walk with its two halves
joined, and a reset of the walk's memo are used by tests alone; the
program never needs them, so they live here rather than in ``surdsym.cf``.
"""
from fractions import Fraction
from typing import Tuple

from surdsym.cf import (CFExpansion, _period_walk, _preperiod_walk,
                        _require_nonsquare, cf_surd)
from surdsym.forms import Form


def cf_value(cf: CFExpansion) -> Fraction:
    """Exact value of a finite expansion."""
    if not cf.is_finite:
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
    ps, qs, preperiod = _preperiod_walk(p, q, d)
    cycle_ps, cycle_qs, period = _period_walk(ps[-1], qs[-1], d)
    states = tuple(zip(ps[:-1] + cycle_ps, qs[:-1] + cycle_qs))
    return states, preperiod + period, len(preperiod)


def clear_walk_memos() -> None:
    """Empty the regular walk's one memo, that of its preperiod."""
    _preperiod_walk.cache_clear()

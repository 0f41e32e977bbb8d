"""The memo on cf._regular_walk: one regular walk per form query, the same
answers with a cold and a warm cache, immutable cached walks, and a cache
that never grows past its constant size."""

from surdsym.census import census_for_delta
from surdsym.cf import _WALK_MEMO_SIZE, _regular_walk, cf_surd
from surdsym.cli import _orbit_tour
from surdsym.forms import Form, discriminant
from surdsym.periods import classify_class
from surdsym.reduction import (is_reduced, reduce_to_H0, reduced_cycle,
                               reduced_representative)
from test_reduction import NONSQUARE_GRID

QUERY = (classify_class, reduce_to_H0, reduced_cycle)

GRID = [f for f in (Form(m, n, k) for m in range(-12, 13)
                    for n in range(-12, 13) for k in range(-25, 26))
        if discriminant(f) > 0]


def outcome(fn, f):
    """fn(f), or the type and message of the error it raises."""
    try:
        return fn(f)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def cold_answers(f):
    """The query's answers, each computed from an empty cache."""
    out = []
    for fn in QUERY:
        _regular_walk.cache_clear()
        out.append(outcome(fn, f))
    return out


def warm_answers(f):
    """The query's answers in query order, the cache kept between calls."""
    return [outcome(fn, f) for fn in QUERY]


def assert_cold_equals_warm(forms):
    _regular_walk.cache_clear()
    warm = [warm_answers(f) for f in forms]
    assert _regular_walk.cache_info().hits > 0
    for f, answers in zip(forms, warm):
        assert cold_answers(f) == answers, f


def test_cold_and_warm_cache_agree_on_grid():
    assert len(GRID) == 25026
    assert_cold_equals_warm(GRID)


def test_a_query_walks_the_expansion_of_f_once():
    """classify_class and reduced_cycle (through reduced_representative)
    share one walk of f, although reduce_to_H0 walks another form between
    them; a query makes at most one other walk, which stops at the end of
    the preperiod of conjugate(f) or the like."""
    shared = 0
    for f in NONSQUARE_GRID:
        _regular_walk.cache_clear()
        warm_answers(f)
        info = _regular_walk.cache_info()
        assert info.misses <= 2, f
        if not is_reduced(*f):
            assert info.hits >= 1, f
            shared += 1
    assert shared > 15000


def test_cached_walk_is_immutable():
    f = Form(5, -3, -13)
    key = (-f.k, 2 * f.m, discriminant(f))
    _regular_walk.cache_clear()
    states, digits, start = walk = _regular_walk(*key)
    hash(walk)  # every part is a tuple of ints or of int pairs
    assert isinstance(states, tuple) and isinstance(digits, tuple)
    # The callers leave the cached walk as a fresh walk gives it.
    cf_surd(f)
    classify_class(f)
    reduce_to_H0(f)
    reduced_representative(f)
    reduced_cycle(f)
    _orbit_tour(f)
    assert _regular_walk(*key) is walk
    assert walk == _regular_walk.__wrapped__(*key)


def test_cache_stays_at_its_constant_size():
    assert _WALK_MEMO_SIZE >= 2
    _regular_walk.cache_clear()
    for f in NONSQUARE_GRID[:200]:
        warm_answers(f)
        assert _regular_walk.cache_info().currsize <= _WALK_MEMO_SIZE
    census_for_delta(9997)
    info = _regular_walk.cache_info()
    assert info.maxsize == _WALK_MEMO_SIZE
    assert info.currsize == _WALK_MEMO_SIZE

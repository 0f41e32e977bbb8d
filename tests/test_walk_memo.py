"""The regular walk's one memo, on its preperiod, cf._preperiod_walk: one
regular walk of f per form query, the same answers with a cold and a warm
cache, immutable cached walks, and a cache that never grows past its
constant size.  The period walk, cf._period_walk, keeps no memo: a query
walks f's period at most once, and reduction never walks one.  Nor does a
query take the square root of its discriminant more than once per entry
point."""

import sys
from math import isqrt

import pytest

import surdsym.cf
import surdsym.periods
import surdsym.reduction
from cf_helpers import clear_walk_memos
from surdsym.census import census_for_delta
from surdsym.cf import _WALK_MEMO_SIZE, _period_walk, _preperiod_walk, cf_surd
from surdsym.cli import _orbit_tour
from surdsym.forms import INVOLUTION_NAMES, Form, discriminant, involution
from surdsym.periods import classify_class
from surdsym.reduction import is_reduced, reduce_to_H0, reduced_cycle
from test_query_references import SEEDS, disguised_forms
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
    """The query's answers, each computed from empty caches."""
    out = []
    for fn in QUERY:
        clear_walk_memos()
        out.append(outcome(fn, f))
    return out


def warm_answers(f):
    """The query's answers in query order, the caches kept between calls."""
    return [outcome(fn, f) for fn in QUERY]


def assert_cold_equals_warm(forms):
    clear_walk_memos()
    warm = [warm_answers(f) for f in forms]
    assert _preperiod_walk.cache_info().hits > 0
    for f, answers in zip(forms, warm):
        assert cold_answers(f) == answers, f


def test_cold_and_warm_cache_agree_on_grid():
    assert len(GRID) == 25026
    assert_cold_equals_warm(GRID)


@pytest.fixture
def preperiod_misses(monkeypatch):
    """The walks that miss the preperiod memo, in call order, as
    (key, digits): every module that calls ``_preperiod_walk`` in a query
    calls it through a recorder."""
    missed = []

    def recorder(*key):
        before = _preperiod_walk.cache_info().misses
        walk = _preperiod_walk(*key)
        if _preperiod_walk.cache_info().misses > before:
            missed.append((key, walk[2]))
        return walk

    for module in (surdsym.cf, surdsym.periods, surdsym.reduction):
        monkeypatch.setattr(module, "_preperiod_walk", recorder)
    return missed


@pytest.fixture
def period_walks(monkeypatch):
    """The keys of the period walks, in call order: ``classify_class``, the
    one caller in a query, and ``cf_surd`` call ``_period_walk`` through a
    recorder."""
    walked = []

    def recorder(*key):
        walked.append(key)
        return _period_walk(*key)

    for module in (surdsym.cf, surdsym.periods):
        monkeypatch.setattr(module, "_period_walk", recorder)
    return walked


def test_a_query_walks_the_expansion_of_f_once(preperiod_misses, period_walks):
    """classify_class and reduced_cycle (through its reduced representative)
    share one walk of f's preperiod, although reduce_to_H0 walks another
    preperiod between them, and only classify_class walks the period: at
    most one period walk and two preperiod walks per query.  The first
    preperiod walk is f's."""
    shared = 0
    for f in NONSQUARE_GRID:
        clear_walk_memos()
        preperiod_misses.clear()
        period_walks.clear()
        warm_answers(f)
        assert len(period_walks) <= 1, f
        assert len(preperiod_misses) <= 2, f
        d = discriminant(f)
        assert preperiod_misses[0][0] == (-f.k, 2 * f.m, d, isqrt(d)), f
        if not is_reduced(*f):
            assert _preperiod_walk.cache_info().hits >= 1, f
            shared += 1
    assert shared > 15000


def test_reduce_reads_the_conjugate_preperiod_off_f(preperiod_misses,
                                                    period_walks):
    """On the seeded disguised forms with m, n, k of one sign, reduce_to_H0
    takes the conjugate and reads its preperiod off f's walk: the query's
    second preperiod walk has at most three digits, where the preperiod of
    conjugate(f) itself has tens."""
    forms = [involution(f, which) for seed in SEEDS
             for f in disguised_forms(seed, 100) for which in INVOLUTION_NAMES]
    conjugate_tag = [f for f in forms if f.m * f.n > 0 and f.m * f.k > 0]
    assert len(conjugate_tag) == 600
    for f in conjugate_tag:
        clear_walk_memos()
        preperiod_misses.clear()
        period_walks.clear()
        warm_answers(f)
        assert len(period_walks) == 1, f
        assert len(preperiod_misses) == 2, f
        assert len(preperiod_misses[1][1]) <= 3, f
        d = discriminant(f)
        conjugate_walk = _preperiod_walk(f.k, 2 * f.m, d, isqrt(d))
        assert len(conjugate_walk[2]) > 3, f


def test_reduction_walks_no_regular_period(monkeypatch):
    """With cf._period_walk raising, reduce_to_H0 and reduced_cycle (with
    its reduced representative) each answer from a cold memo, as they do
    with it, on the grid and on the seeded disguised forms.  The name is
    patched in reduction too, so that an import of it there cannot hide a
    walk."""
    forms = NONSQUARE_GRID + [f for seed in SEEDS
                              for f in disguised_forms(seed, 100)]
    calls = (reduce_to_H0, reduced_cycle)
    expected = [[fn(f) for fn in calls] for f in forms]

    def no_period_walk(*key):
        raise AssertionError(f"a period walk from {key}")

    monkeypatch.setattr(surdsym.cf, "_period_walk", no_period_walk)
    monkeypatch.setattr(surdsym.reduction, "_period_walk", no_period_walk,
                        raising=False)
    for f, answers in zip(forms, expected):
        for fn, answer in zip(calls, answers):
            clear_walk_memos()
            assert fn(f) == answer, (fn.__name__, f)


def test_cached_walk_is_immutable():
    f = Form(5, -3, -13)
    d = discriminant(f)
    key = (-f.k, 2 * f.m, d, isqrt(d))
    clear_walk_memos()
    ps, qs, digits = walk = _preperiod_walk(*key)
    hash(walk)  # every part is a tuple of ints
    assert all(isinstance(part, tuple) for part in walk)
    # The callers leave the cached walk as a fresh walk gives it.
    cf_surd(f)
    classify_class(f)
    reduce_to_H0(f)
    reduced_cycle(f)
    _orbit_tour(f)
    assert _preperiod_walk(*key) is walk
    assert walk == _preperiod_walk.__wrapped__(*key)


def test_cache_stays_at_its_constant_size():
    """The memo stays full and no larger: the grid's queries fill it, and
    census_for_delta, which walks periods only, leaves it as it is."""
    assert _WALK_MEMO_SIZE >= 2
    clear_walk_memos()
    for f in NONSQUARE_GRID[:200]:
        warm_answers(f)
        assert _preperiod_walk.cache_info().currsize <= _WALK_MEMO_SIZE
    before = _preperiod_walk.cache_info()
    census_for_delta(9997)
    info = _preperiod_walk.cache_info()
    assert info == before
    assert info.maxsize == info.currsize == _WALK_MEMO_SIZE


def test_a_query_takes_the_square_root_once_per_entry_point(monkeypatch):
    """classify_class, reduce_to_H0 and reduced_cycle of a disguised form
    that none of them answers without a walk each test the discriminant
    for a square and take its isqrt once, and pass the root down to the
    walks: at most three calls of isqrt and of is_square, counted under
    every name that a surdsym module holds them by."""
    f = next(g for g in disguised_forms(SEEDS[0], 100)
             if g.m * g.n > 0 and not is_reduced(*g))
    calls = {"isqrt": 0, "is_square": 0}
    for name in calls:
        for module in [m for key, m in sys.modules.items()
                       if key.partition(".")[0] == "surdsym"]:
            fn = getattr(module, name, None)
            if fn is not None:
                def counted(*args, fn=fn, name=name):
                    calls[name] += 1
                    return fn(*args)
                monkeypatch.setattr(module, name, counted)
    clear_walk_memos()
    answers = warm_answers(f)
    monkeypatch.undo()
    clear_walk_memos()
    assert answers == warm_answers(f)
    assert calls["isqrt"] <= 3 and calls["is_square"] <= 3, calls


def test_classify_computes_the_discriminant_once(monkeypatch):
    """classify_class of a disguised form computes its discriminant once,
    counted under every name that a surdsym module holds ``discriminant``
    by, and passes it with its isqrt to the two regular walks."""
    f = disguised_forms(SEEDS[0], 1)[0]
    expected = classify_class(f)
    calls = []
    for module in [m for key, m in sys.modules.items()
                   if key.partition(".")[0] == "surdsym"]:
        fn = getattr(module, "discriminant", None)
        if fn is not None:
            def counted(g, fn=fn):
                calls.append(g)
                return fn(g)
            monkeypatch.setattr(module, "discriminant", counted)
    clear_walk_memos()
    assert classify_class(f) == expected
    assert calls == [f]

"""Class census per discriminant: enumerate, walk, classify, and aggregate.

The non-square engine works on the reduced surds (P + sqrt(delta)) / Q of a
discriminant.  They come from one sieve over (P, a), Q = 2a: the state
(P, 2a) belongs to every delta = P**2 + 4ac (c >= 1) in one window of
delta, so a window of discriminants is sieved at once, in time
proportional to the states it emits plus O(delta) pairs (P, a).  The
regular continued fraction permutes the states in cycles; one walk of a
cycle of length L gives its digit word, which is the period of one class
when L is odd and of two classes when L is even.  The H0 forms of such a
class are the A- and B-runs between the cycle's states, so each class's
least H0 member (its representative), its period rotated as the continued
fraction of that representative gives it, and t, t_up, t_down all follow
from the one walk.  A cycle whose states have content s = gcd(a, c, P) > 1
is s times a cycle of delta / s**2, so it gives that discriminant's
classes scaled by s, the imprimitive classes of delta, read off delta's own
states.  Square discriminants are k straight rows (m, 0, k).

A sweep is sharded by windows [lo, hi] of delta, about equal in reduced
states.  Each worker sieves its own window and hands each discriminant's
reports to ``emit``, a top-level function the caller chooses (the reports
themselves, type counts, the CLI's rendered table rows, or the checker's
gates), and returns only what ``emit`` returns.  The parent takes the
windows in delta order, 2 * jobs at a time, and passes each result on as
it comes, so it holds no more than one group of windows; the CLI writes a
table's text as it comes.
"""
from __future__ import annotations

from array import array
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from math import gcd, isqrt
# Imported at module level, not on first sweep: the benchmark's tracer
# replaces ``census.Pool`` to collect the workers' spans.
from multiprocessing import Pool
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .cf import _period_walk
from .exact import is_square
from .forms import Form
from .oracle import (_genus_exponent, ambiguous_classes, h0_point_count,
                     square_symmetry)
from .periods import (ClassReport, SymmetryType, _square_report,
                      _classify_period, _counts_nonsquare)
from .reduction import _SUM_RULE_TYPES, check_sum_rule, reduced_cycle


def valid_deltas(delta_max: int) -> List[int]:
    """Discriminants 1 <= delta <= delta_max with delta = 0 or 1 mod 4."""
    return [d for d in range(1, delta_max + 1) if d % 4 < 2]


def _reduced_states(lo: int, hi: int) -> Dict[int, array]:
    """Every reduced surd (P + sqrt(delta)) / Q whose form (Q/2, -c, -P),
    c = (delta - P**2) / (2Q), is integral, for every delta = 0, 1 mod 4 in
    [lo, hi]: {delta: array [P0, Q0, P1, Q1, ...]}.  The states of content
    s = gcd(Q/2, c, P) > 1 are s times the states of delta / s**2.

    Reduced means xi > 1 > 0 > xi' > -1, i.e. 0 < P <= r and
    r - P < Q <= r + P with r = isqrt(delta).  The sieve runs over (P, a),
    Q = 2a: the discriminants with the state (P, 2a) are delta = P**2 + 4ac,
    c >= 1, in the window (2a - P)**2 <= delta < (2a + P)**2, one every 4a.
    Square discriminants get states too.
    """
    out = {d: array("i") for d in range(lo, hi + 1) if d % 4 in (0, 1)}
    r_lo, r_hi = isqrt(lo), isqrt(hi)
    for p in range(1, isqrt(max(hi - 4, 0)) + 1):
        pp = p * p
        for a in range(max(1, (r_lo - p) // 2 + 1), (r_hi + p) // 2 + 1):
            step = 4 * a
            low = max((2 * a - p) ** 2, pp + step, lo)
            state = (p, 2 * a)
            for d in range(low + (pp - low) % step,
                           min((2 * a + p) ** 2, hi + 1), step):
                out[d].extend(state)
    return out


def _least_member(a_runs: Sequence[int], ps: Sequence[int], qs: Sequence[int],
                  digits: Sequence[int]) -> Tuple[int, int, int, int, bool]:
    """The lexicographically least H0 member of one class, located on its
    cycle of states (P_j, Q_j) = (``ps[j]``, ``qs[j]``), as
    ``cf._period_walk`` gives them: (m, n, k, index where its period
    starts, preperiod length odd).

    With f_j = (Q_j/2, -Q_{j-1}/2, -P_j), the class's H0 cycle is made of
    the A-runs A^i f_j, 0 <= i < a_j, for j in a_runs, each followed by the
    B-run from A^{a_j} f_j = antipodal(f_{j+1}).  Past a B-run's first
    member, a member's cycle neighbours are its images under B and B^-1,
    whose m are m + n + k and m + n - k; as n < 0 one of them is below m,
    so the member is never least.  That leaves A^i f_j, 0 <= i <= a_j, where
    m = Q_j/2 is fixed and n is convex in i, least at i = P_j/Q_j.
    """
    best = None
    for j in a_runs:
        q = qs[j]
        m = q // 2
        if best and m > best[0]:
            continue
        p, c, a = ps[j], qs[j - 1] // 2, digits[j]
        vertex = min(p // q, a)
        for i in {vertex, min(vertex + 1, a)}:
            cand = (m, m * i * i - p * i - c, 2 * m * i - p, j + (i > 0), i > 0)
            if best is None or cand < best:
                best = cand
    return best


def census_for_delta(delta: int, states: Optional[array] = None
                     ) -> Tuple[ClassReport, ...]:
    """Reports for all classes of a non-square discriminant, primitive and
    scaled, ordered by their lexicographically least H0 representative.

    ``states`` are the discriminant's reduced states as ``_reduced_states``
    gives them; a sweep sieves them once for its window and passes them in.
    Without them, this discriminant alone is sieved.  A cycle's content
    gcd(a, c, P), read off its first state, is the content of its classes;
    a cycle of content s is s times a cycle of delta / s**2, so its least
    member is the scaled representative.
    """
    if delta <= 0 or delta % 4 not in (0, 1) or is_square(delta):
        raise ValueError(f"{delta} is not a valid non-square discriminant")
    if states is None:
        states = _reduced_states(delta, delta)[delta]
    reports = []
    visited = set()
    pairs = iter(states)
    for start in zip(pairs, pairs):
        if start in visited:
            continue
        p, q = start
        primitive = gcd(q // 2, (delta - p * p) // (2 * q), p) == 1
        ps, qs, digits = _period_walk(p, q, delta)
        visited.update(zip(ps, qs))
        n = len(digits)
        symmetry = _classify_period(digits)
        if n % 2:  # one class, with an A-run at every state
            classes = (range(n),)
        else:     # two classes, with A-runs on the even or the odd states
            classes = (range(0, n, 2), range(1, n, 2))
        for a_runs in classes:
            m, nn, k, s, odd = _least_member(a_runs, ps, qs, digits)
            s %= n
            gamma = digits[s:] + digits[:s]
            t, t_up, t_down = _counts_nonsquare(gamma, odd)
            reports.append(ClassReport(Form(m, nn, k), delta, gamma, None, n,
                                       t, t_up, t_down, symmetry, primitive))
    reports.sort(key=attrgetter("representative"))
    return tuple(reports)


def census_square(delta: int) -> Tuple[ClassReport, ...]:
    """Reports for the k classes (m, 0, k), 0 <= m < k, of delta = k**2."""
    if delta <= 0 or not is_square(delta):
        raise ValueError(f"{delta} is not a positive square")
    k = isqrt(delta)
    return tuple(_square_report(Form(m, 0, k)) for m in range(k))


def _windows(delta_max: int) -> List[Tuple[int, int]]:
    """A sweep's windows [lo, hi] of delta, in order, covering [1, delta_max].

    There are about K = max(8, isqrt(delta_max) // 16), with bounds
    delta_max * (i / K)**(2/3): the reduced states below delta number about
    delta**1.5, so each window holds about as many.  The last, the
    narrowest, is about (2/3) delta_max / K wide, about 10 * sqrt(delta_max)
    once K > 8, so the sieve's O(delta) pairs (P, a) per window stay a small
    share of its work.
    """
    k = max(8, isqrt(delta_max) // 16)
    cuts = {int(delta_max * (i / k) ** (2 / 3)) for i in range(1, k)}
    his = sorted(cuts - {0, delta_max}) + [delta_max]
    return list(zip([1] + [hi + 1 for hi in his[:-1]], his))


def _shard(emit: Callable, squares_only: bool, window: Tuple[int, int]) -> list:
    """[(delta, emit(all class reports of delta))] for every valid delta in
    one window of ``_sweep``, or every square one with ``squares_only``.
    The window is sieved here, and the keys of its table are its valid
    deltas, ascending; square deltas need no sieve.  Each delta's states
    leave the table as it is passed, a square one's unread."""
    lo, hi = window
    if squares_only:
        return [(k * k, emit(census_square(k * k)))
                for k in range(isqrt(lo - 1) + 1, isqrt(hi) + 1)]
    table = _reduced_states(lo, hi)
    return [(d, emit(census_square(d) if is_square(d)
                     else census_for_delta(d, states)))
            for d, states in ((d, table.pop(d)) for d in list(table))]


def _sweep(delta_max: int, jobs: int, emit: Callable,
           squares_only: bool = False) -> Iterator[Tuple[int, Any]]:
    """(delta, emit(reports of delta)) for every valid delta <= delta_max,
    or every square one with ``squares_only``, delta ascending, as ``jobs``
    workers finish them.

    The windows of ``_windows`` go to the pool 2 * jobs at a time, one
    ``Pool.map`` each, so a worker that finishes a window takes the next
    one of its group; each window's results are yielded as soon as its
    group is done.  ``emit`` runs in the workers, so it must be a top-level
    function or a ``functools.partial`` of one; what it returns is all that
    is sent back, so an emit that returns compact results (type counts,
    rendered text) keeps the parent small.
    """
    if delta_max < 1:
        raise ValueError("delta_max must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    windows = _windows(delta_max)
    shard = partial(_shard, emit, squares_only)
    parallel = jobs > 1 and len(windows) > 1
    # A worker beyond the window count would never get work.
    with Pool(min(jobs, len(windows))) if parallel else nullcontext() as pool:
        for i in range(0, len(windows), 2 * jobs):
            group = windows[i:i + 2 * jobs]
            for rows in (pool.map(shard, group, chunksize=1) if parallel
                         else map(shard, group)):
                yield from rows


def _identity(reports: Tuple[ClassReport, ...]) -> Tuple[ClassReport, ...]:
    return reports


def full_census(delta_max: int, jobs: int = 1) -> Dict[int, Tuple[ClassReport, ...]]:
    """Census of every valid discriminant up to delta_max, keyed by delta."""
    return dict(_sweep(delta_max, jobs, _identity))


SYMMETRY_ORDER = (SymmetryType.SUPERSYMMETRIC, SymmetryType.K_SYMMETRIC,
                  SymmetryType.M_PLUS_N_SYMMETRIC, SymmetryType.ANTISYMMETRIC,
                  SymmetryType.ASYMMETRIC)


class StatRow(NamedTuple):
    """Per-discriminant symmetry-type tallies with exact fractions."""

    delta: int
    square: bool
    total: int
    counts: Tuple[int, ...]       # aligned with SYMMETRY_ORDER
    fractions: Tuple[Fraction, ...]

    def count_of(self, sym: SymmetryType) -> int:
        return self.counts[SYMMETRY_ORDER.index(sym)]


def _type_counts(reports: Sequence[ClassReport]) -> Tuple[int, ...]:
    """How many of the reports have each type, in SYMMETRY_ORDER."""
    types = [r.symmetry for r in reports]
    return tuple(types.count(s) for s in SYMMETRY_ORDER)


def _stat_rows(delta_max: int, jobs: int = 1) -> Iterator[StatRow]:
    """``stats_rows``, each row as the sweep gives it."""
    for d, counts in _sweep(delta_max, jobs, _type_counts):
        total = sum(counts)
        yield StatRow(d, is_square(d), total, counts,
                      tuple(Fraction(c, total) for c in counts))


def stats_rows(delta_max: int, jobs: int = 1) -> List[StatRow]:
    """One row per valid delta <= delta_max, delta ascending."""
    return list(_stat_rows(delta_max, jobs))


def first_occurrence(rows: Sequence[StatRow], sym: SymmetryType) -> Optional[int]:
    """Smallest non-square delta whose row shows at least one class of the
    given type."""
    for row in rows:
        if not row.square and row.count_of(sym) > 0:
            return row.delta
    return None


def _gate_violations(reports: Sequence[ClassReport]) -> Tuple[int, List[str]]:
    """``check_census``'s emit: (super/anti/(m+n) classes checked, one
    VIOLATION line per failed gate) for the reports of one delta, checked
    against facts found apart from the census's walk of its states: the
    minus walk of each reduced cycle (sum-rule, and t-up: its length is
    t_up), which starts from ``reduced_representative``, itself a regular
    walk of the representative's own preperiod; genus theory (ambiguous,
    parity), divisor counts of the H0 forms (h0-points), congruences
    (square-type), and one identity of the counts (t-balance: sum t_up =
    sum t_down over the classes, as both count half the H0 forms)."""
    S = SymmetryType
    delta = reports[0].delta
    head = f"VIOLATION delta={delta} gate="
    lines, checked = [], 0
    points, expected = sum(r.t for r in reports), h0_point_count(delta)
    if points != expected:
        lines.append(f"{head}h0-points sum_t={points} expected={expected}")
    ups, downs = sum(r.t_up for r in reports), sum(r.t_down for r in reports)
    if ups != downs:
        lines.append(f"{head}t-balance sum_t_up={ups} sum_t_down={downs}")
    for r in reports:
        rep, sym = r.representative, r.symmetry
        if r.square:
            want = square_symmetry(rep.m, rep.k)
            if sym is not want:
                lines.append(f"{head}square-type rep={rep} symmetry={sym.code} "
                             f"expected={want.code}")
        elif sym in _SUM_RULE_TYPES:
            checked += 1
            cycle = reduced_cycle(rep)
            if len(cycle.forms) != r.t_up:
                lines.append(f"{head}t-up rep={rep} t_up={r.t_up} "
                             f"reduced_forms={len(cycle.forms)}")
            if not check_sum_rule(cycle, sym):
                period = ",".join(map(str, cycle.modular_period))
                lines.append(f"{head}sum-rule rep={rep} symmetry={sym.code} "
                             f"period=(({period}))")
    if is_square(delta):
        return checked, lines
    types = Counter(r.symmetry for r in reports)
    found, expected = (types[S.SUPERSYMMETRIC] + types[S.K_SYMMETRIC],
                       ambiguous_classes(delta))
    if found != expected:
        lines.append(f"{head}ambiguous super+k={found} expected={expected}")
    parities = {r.p_or_l % 2 for r in reports if r.primitive}
    primitive_types = Counter(r.symmetry for r in reports if r.primitive)
    odd = sorted(s.code for s in primitive_types
                 if s not in (S.SUPERSYMMETRIC, S.ANTISYMMETRIC))
    mpn = primitive_types[S.M_PLUS_N_SYMMETRIC]
    allowed = 2 ** (_genus_exponent(delta) - 1)
    if len(parities) > 1:
        lines.append(f"{head}parity mixed period-length parities")
    elif parities == {1} and odd:
        lines.append(f"{head}parity odd periods with {','.join(odd)}")
    elif parities == {0} and mpn not in (0, allowed):
        lines.append(f"{head}parity m+n={mpn} expected=0 or {allowed}")
    return checked, lines


def check_census(delta_max: int, jobs: int = 1) -> Tuple[int, int, List[str]]:
    """Every gate of ``_gate_violations`` on every valid delta <= delta_max:
    (discriminants checked, super/anti/(m+n) classes checked, the VIOLATION
    lines in delta order)."""
    deltas = checked = 0
    lines: List[str] = []
    for _, (n, found) in _sweep(delta_max, jobs, _gate_violations):
        deltas, checked = deltas + 1, checked + n
        lines += found
    return deltas, checked, lines

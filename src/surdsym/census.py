"""Class census per discriminant: enumerate, walk, classify, and aggregate.

The non-square engine works on the reduced surds (P + sqrt(delta)) / Q of a
discriminant.  They come from one sieve over (P, a), Q = 2a: the state
(P, 2a) belongs to every delta = P**2 + 4ac (c >= 1, gcd(a, c, P) = 1) in
one window of delta, so a sweep sieves every delta <= delta_max at once, in
time proportional to the states it emits plus O(delta_max) pairs (P, a).
The regular continued fraction permutes the states in cycles; one walk of a
cycle of length L gives its digit word, which is the period of one class
when L is odd and of two classes when L is even.  The H0 forms of such a
class are the A- and B-runs between the cycle's states, so each class's
least H0 member (its representative), its period rotated as the continued
fraction of that representative gives it, and t, t_up, t_down all follow
from the one walk.  Imprimitive classes are scaled copies of primitive ones
from delta / s**2.  Square discriminants are k straight rows (m, 0, k).

A sweep is sharded by square-class family: a root delta0 (a valid non-square
discriminant with no valid delta0 / s**2, s >= 2) and its multiples
delta0 * t**2 <= delta_max.  Every valid delta / s**2 of a member is a
smaller member, so one worker, handed the family's states, computes each
member's primitive classes once and finishes every member's rows on its
own; each square delta is an item of its own.  The worker hands each
discriminant's reports to ``emit``, a top-level function the caller chooses
(the reports themselves, type counts, the CLI's rendered table rows, or the
checker's gates), and returns only what ``emit`` returns.  The parent puts
those results in delta order; the CLI writes a table's text as it comes,
one discriminant at a time.
"""
from __future__ import annotations

from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from multiprocessing import Pool
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cf import _regular_walk
from .exact import is_square
from .forms import Form, InternalError, scale
from .oracle import (_genus_exponent, ambiguous_classes, h0_point_count,
                     square_symmetry)
from .periods import (ClassReport, SymmetryType, _square_report,
                      _classify_period, _counts_nonsquare)
from .reduction import _SUM_RULE_TYPES, check_sum_rule, reduced_cycle


def valid_deltas(delta_max: int, include_square: bool = True,
                 include_nonsquare: bool = True) -> List[int]:
    """Discriminants 1 <= delta <= delta_max with delta = 0 or 1 mod 4."""
    out = []
    for d in range(1, delta_max + 1):
        if d % 4 not in (0, 1):
            continue
        sq = is_square(d)
        if (sq and include_square) or (not sq and include_nonsquare):
            out.append(d)
    return out


def _reduced_states(lo: int, hi: int) -> Dict[int, array]:
    """Every reduced surd (P + sqrt(delta)) / Q whose form (Q/2, -c, -P),
    c = (delta - P**2) / (2Q), is integral and primitive, for every
    delta = 0, 1 mod 4 in [lo, hi]: {delta: array [P0, Q0, P1, Q1, ...]}.

    Reduced means xi > 1 > 0 > xi' > -1, i.e. 0 < P <= r and
    r - P < Q <= r + P with r = isqrt(delta).  The sieve runs over (P, a),
    Q = 2a: the discriminants with the state (P, 2a) are delta = P**2 + 4ac,
    c >= 1, in the window (2a - P)**2 <= delta < (2a + P)**2, one every 4a,
    kept when gcd(a, c, P) = 1.  Square discriminants get states too.
    """
    out = {d: array("i") for d in range(lo, hi + 1) if d % 4 in (0, 1)}
    r_lo, r_hi = isqrt(lo), isqrt(hi)
    for p in range(1, isqrt(max(hi - 4, 0)) + 1):
        pp = p * p
        for a in range(max(1, (r_lo - p) // 2 + 1), (r_hi + p) // 2 + 1):
            step = 4 * a
            low = max((2 * a - p) ** 2, pp + step, lo)
            start = low + (pp - low) % step
            stop = min((2 * a + p) ** 2, hi + 1)
            state = (p, 2 * a)
            g = gcd(a, p)
            if g == 1:
                for d in range(start, stop, step):
                    out[d].extend(state)
            else:
                c = (start - pp) // step
                for d in range(start, stop, step):
                    if gcd(g, c) == 1:
                        out[d].extend(state)
                    c += 1
    return out


def _least_member(a_runs: Sequence[int], cycle: Sequence[Tuple[int, int]],
                  digits: Sequence[int]) -> Tuple[int, int, int, int, bool]:
    """The lexicographically least H0 member of one class, located on its
    cycle of states (P_j, Q_j): (m, n, k, index where its period starts,
    preperiod length odd).

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
        p, q = cycle[j]
        m = q // 2
        if best and m > best[0]:
            continue
        c, a = cycle[j - 1][1] // 2, digits[j]
        vertex = min(p // q, a)
        for i in {vertex, min(vertex + 1, a)}:
            cand = (m, m * i * i - p * i - c, 2 * m * i - p, j + (i > 0), i > 0)
            if best is None or cand < best:
                best = cand
    return best


def census_nonsquare_primitive(delta: int, states: Optional[array] = None
                               ) -> Tuple[ClassReport, ...]:
    """Reports for all primitive classes of a non-square discriminant,
    ordered by their lexicographically least H0 representative.

    ``states`` are the discriminant's reduced states as ``_reduced_states``
    gives them; a sweep sieves them once for every discriminant and passes
    them in.  Without them, this discriminant alone is sieved.
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
        cycle, digits, back = _regular_walk(*start, delta)
        if back:
            raise InternalError(f"state {start} of {delta} is not on a cycle")
        visited.update(cycle)
        n = len(digits)
        symmetry = _classify_period(digits)
        if n % 2:  # one class, with an A-run at every state
            classes = (range(n),)
        else:     # two classes, with A-runs on the even or the odd states
            classes = (range(0, n, 2), range(1, n, 2))
        for a_runs in classes:
            m, nn, k, s, odd = _least_member(a_runs, cycle, digits)
            s %= n
            gamma = digits[s:] + digits[:s]
            t, t_up, t_down = _counts_nonsquare(gamma, odd)
            reports.append(ClassReport(Form(m, nn, k), delta, gamma, None, n,
                                       t, t_up, t_down, symmetry, True))
    reports.sort(key=lambda report: report.representative.coeffs())
    return tuple(reports)


def census_square(delta: int) -> Tuple[ClassReport, ...]:
    """Reports for the k classes (m, 0, k), 0 <= m < k, of delta = k**2."""
    if delta <= 0 or not is_square(delta):
        raise ValueError(f"{delta} is not a positive square")
    k = isqrt(delta)
    return tuple(_square_report(Form(m, 0, k)) for m in range(k))


def _scaled_rows(delta: int,
                 primitive: Dict[int, Tuple[ClassReport, ...]]) -> List[ClassReport]:
    rows = []
    s = 2
    while s * s <= delta:
        if delta % (s * s) == 0:
            d0 = delta // (s * s)
            if d0 % 4 in (0, 1):
                for r in primitive[d0]:
                    rows.append(ClassReport(scale(r.representative, s), delta,
                                            r.gamma, None, r.p_or_l, r.t,
                                            r.t_up, r.t_down, r.symmetry, False))
        s += 1
    return rows


def census_for_delta(delta: int,
                     primitive: Dict[int, Tuple[ClassReport, ...]]) -> Tuple[ClassReport, ...]:
    """All classes (primitive and scaled) of one non-square discriminant."""
    rows = list(primitive[delta]) + _scaled_rows(delta, primitive)
    rows.sort(key=lambda r: r.representative)
    return tuple(rows)


def _families(delta_max: int, include_square: bool = True,
              include_nonsquare: bool = True) -> List[Tuple[int, ...]]:
    """A sweep's work items in order of their least member: each square
    delta alone, and each non-square root's family (delta0 * t**2, t >= 1).

    A delta that no smaller root has claimed is a root: were delta / s**2
    valid, it would be some root's r * v**2, and delta = r * (s * v)**2
    claimed.  A root has no valid delta0 / u**2 (u >= 2).  For a member
    delta0 * t**2 and s = g * u, t = g * v with g = gcd(s, t), a valid
    delta0 * v**2 / u**2 needs u**2 | delta0 and is valid only if
    delta0 / u**2 is (v is odd when u is even, and an odd square is
    1 mod 8); so u = 1, and every valid delta / s**2 of a member is a member.
    """
    items = []
    claimed = set()
    for d in valid_deltas(delta_max, include_square, include_nonsquare):
        if is_square(d):
            items.append((d,))
        elif d not in claimed:
            family = tuple(d * t * t for t in range(1, isqrt(delta_max // d) + 1))
            claimed.update(family)
            items.append(family)
    return items


def _shard(emit: Callable, item: Tuple[Tuple[int, ...], Optional[tuple]]) -> list:
    """[(delta, emit(all class reports of delta))] for one work item of
    ``_sweep``: a square delta alone (no states), or a family of ``_families``
    with each member's reduced states; each member's primitive classes are
    computed once."""
    family, states = item
    if states is None:
        return [(family[0], emit(census_square(family[0])))]
    primitive = {d: census_nonsquare_primitive(d, s)
                 for d, s in zip(family, states)}
    return [(d, emit(census_for_delta(d, primitive))) for d in family]


def _sweep(delta_max: int, jobs: int, emit: Callable,
           include_square: bool = True, include_nonsquare: bool = True) -> list:
    """[(delta, emit(reports of delta))] for every valid delta <= delta_max
    of the kinds asked, delta ascending, in one pass of ``jobs`` workers.

    The pool (when there are enough items to share) forks first, so its
    workers do not inherit the sieve's table.  The reduced states of every
    delta are then sieved once, here, and each family's item carries its
    members' states.  ``emit`` runs in the workers, so it must be a
    top-level function or a ``functools.partial`` of one; what it returns
    is all that is sent back, so an emit that returns compact results (type
    counts, rendered text) keeps the parent small.
    """
    if delta_max < 1:
        raise ValueError("delta_max must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    families = _families(delta_max, include_square, include_nonsquare)
    parallel = jobs > 1 and len(families) > 8
    with Pool(jobs) if parallel else nullcontext() as pool:
        table = _reduced_states(1, delta_max) if include_nonsquare else {}
        items = [(family, None if is_square(family[0])
                  else tuple(table[d] for d in family)) for family in families]
        del table
        shard = partial(_shard, emit)
        shards = (pool.map(shard, items, chunksize=max(1, len(items) // (8 * jobs)))
                  if parallel else map(shard, items))
        return sorted((row for rows in shards for row in rows), key=itemgetter(0))


def _identity(reports: Tuple[ClassReport, ...]) -> Tuple[ClassReport, ...]:
    return reports


def full_census(delta_max: int, jobs: int = 1,
                include_square: bool = True) -> Dict[int, Tuple[ClassReport, ...]]:
    """Census of every valid discriminant up to delta_max, keyed by delta."""
    return dict(_sweep(delta_max, jobs, _identity, include_square))


SYMMETRY_ORDER = (SymmetryType.SUPERSYMMETRIC, SymmetryType.K_SYMMETRIC,
                  SymmetryType.M_PLUS_N_SYMMETRIC, SymmetryType.ANTISYMMETRIC,
                  SymmetryType.ASYMMETRIC)


@dataclass(frozen=True)
class StatRow:
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


def stats_rows(delta_max: int, jobs: int = 1) -> List[StatRow]:
    rows = []
    for d, counts in _sweep(delta_max, jobs, _type_counts):
        total = sum(counts)
        rows.append(StatRow(d, is_square(d), total, counts,
                            tuple(Fraction(c, total) for c in counts)))
    return rows


def first_occurrence(rows: Sequence[StatRow], sym: SymmetryType,
                     include_square: bool = False) -> Optional[int]:
    """Smallest delta whose row shows at least one class of the given type."""
    for row in rows:
        if row.square and not include_square:
            continue
        if row.count_of(sym) > 0:
            return row.delta
    return None


def _gate_violations(reports: Sequence[ClassReport]) -> Tuple[int, List[str]]:
    """``check_census``'s emit: (super/anti/(m+n) classes checked, one
    VIOLATION line per failed gate) for the reports of one delta, checked
    against facts found without the regular continued fraction: the minus
    walk of each reduced cycle (sum-rule), genus theory (ambiguous, parity),
    divisor counts of the H0 forms (h0-points), congruences (square-type)."""
    S = SymmetryType
    delta = reports[0].delta
    head = f"VIOLATION delta={delta} gate="
    lines, checked = [], 0
    points, expected = sum(r.t for r in reports), h0_point_count(delta)
    if points != expected:
        lines.append(f"{head}h0-points sum_t={points} expected={expected}")
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
    done = [found for _, found in _sweep(delta_max, jobs, _gate_violations)]
    return (len(done), sum(n for n, _ in done),
            [line for _, lines in done for line in lines])

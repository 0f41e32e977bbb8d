"""Class census per discriminant: enumerate, walk, classify, and aggregate.

The non-square engine works on the reduced surds (P + sqrt(delta)) / Q of a
discriminant, found from the divisors of (delta - P**2) / 4 (read off a
smallest-prime-factor table shared by a sweep).  The regular continued
fraction permutes them in cycles; one walk of a cycle of length L gives its
digit word, which is the period of one class when L is odd and of two classes
when L is even.  The H0 forms of such a class are the A- and B-runs between
the cycle's states, so each class's least H0 member (its representative), its
period rotated as the continued fraction of that representative gives it, and
t, t_up, t_down all follow from the one walk.  Imprimitive classes are scaled
copies of primitive ones from delta / s**2.  Square discriminants are k
straight rows (m, 0, k).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from multiprocessing import Pool
from typing import Dict, List, Optional, Sequence, Tuple

from .cf import _regular_walk
from .exact import is_square
from .forms import Form, InternalError, scale
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


def _smallest_prime_factors(n: int) -> List[int]:
    """spf[i] is the least prime factor of i, for 2 <= i <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _divisors(v: int, spf: Sequence[int]) -> List[int]:
    """Every divisor of v >= 1, unordered, from the table of least prime factors."""
    divs = [1]
    while v > 1:
        p = spf[v]
        lower = divs
        while v % p == 0:
            v //= p
            lower = [d * p for d in lower]
            divs += lower
    return divs


def _reduced_states(delta: int, r: int, spf: Sequence[int]) -> List[Tuple[int, int]]:
    """Every reduced surd (P + sqrt(delta)) / Q whose form (Q/2, -c, -P),
    c = (delta - P**2) / (2Q), is integral and primitive.

    Reduced means xi > 1 > 0 > xi' > -1, i.e. 0 < P <= r and
    r - P < Q <= r + P with r = isqrt(delta).
    """
    states = []
    for p in range(2 - delta % 2, r + 1, 2):
        v = (delta - p * p) // 4  # = a * c for the form (a, -c, -p)
        for a in _divisors(v, spf):
            if r - p < 2 * a <= r + p and gcd(gcd(a, v // a), p) == 1:
                states.append((p, 2 * a))
    return states


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


def census_nonsquare_primitive(delta: int,
                               spf: Optional[Sequence[int]] = None
                               ) -> Tuple[ClassReport, ...]:
    """Reports for all primitive classes of a non-square discriminant,
    ordered by their lexicographically least H0 representative.

    ``spf`` is a smallest-prime-factor table covering (delta - 1) // 4; a
    sweep builds it once and passes it to every discriminant.
    """
    if delta <= 0 or delta % 4 not in (0, 1) or is_square(delta):
        raise ValueError(f"{delta} is not a valid non-square discriminant")
    if spf is None:
        spf = _smallest_prime_factors(delta // 4)
    reports = []
    visited = set()
    for start in _reduced_states(delta, isqrt(delta), spf):
        if start in visited:
            continue
        states, digits, back = _regular_walk(*start, delta)
        if back:
            raise InternalError(f"state {start} of {delta} is not on a cycle")
        visited.update(states)
        n = len(digits)
        symmetry = _classify_period(digits)
        if n % 2:  # one class, with an A-run at every state
            classes = (range(n),)
        else:     # two classes, with A-runs on the even or the odd states
            classes = (range(0, n, 2), range(1, n, 2))
        for a_runs in classes:
            m, nn, k, s, odd = _least_member(a_runs, states, digits)
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


def _map(func, items: Sequence, jobs: int) -> list:
    """[func(x) for x in items], sharded over a pool of ``jobs`` worker
    processes when there are enough items; the order of items is kept."""
    if jobs > 1 and len(items) > 8:
        with Pool(jobs) as pool:
            return pool.map(func, items,
                            chunksize=max(1, len(items) // (8 * jobs)))
    return [func(x) for x in items]


def full_census(delta_max: int, jobs: int = 1,
                include_square: bool = True) -> Dict[int, Tuple[ClassReport, ...]]:
    """Census of every valid discriminant up to delta_max, keyed by delta."""
    if delta_max < 1:
        raise ValueError("delta_max must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    nonsq = valid_deltas(delta_max, include_square=False)
    work = partial(census_nonsquare_primitive,
                   spf=_smallest_prime_factors(delta_max // 4))
    primitive = dict(zip(nonsq, _map(work, nonsq, jobs)))
    out: Dict[int, Tuple[ClassReport, ...]] = {}
    for d in valid_deltas(delta_max, include_square=include_square):
        out[d] = census_square(d) if is_square(d) else census_for_delta(d, primitive)
    return out


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


def stats_rows(delta_max: int, jobs: int = 1) -> List[StatRow]:
    census = full_census(delta_max, jobs=jobs)
    rows = []
    for d in sorted(census):
        reports = census[d]
        total = len(reports)
        counts = tuple(sum(1 for r in reports if r.symmetry == s)
                       for s in SYMMETRY_ORDER)
        fractions = tuple(Fraction(c, total) for c in counts)
        rows.append(StatRow(d, is_square(d), total, counts, fractions))
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


@dataclass(frozen=True)
class SumRuleFinding:
    delta: int
    representative: Form
    symmetry: SymmetryType
    modular_period: Tuple[int, ...]


def _sum_rule_failures(reports: Sequence[ClassReport]) -> List[SumRuleFinding]:
    failures = []
    for r in reports:
        cycle = reduced_cycle(r.representative)
        if not check_sum_rule(cycle, r.symmetry):
            failures.append(SumRuleFinding(r.delta, r.representative, r.symmetry,
                                           cycle.modular_period))
    return failures


def sum_rule_sweep(delta_max: int, jobs: int = 1) -> Tuple[int, List[SumRuleFinding]]:
    """Check sum(c_i) == 3 * len(c) over every Super/Anti/MPlusN class of
    non-square delta <= delta_max.  Returns (checked, failures)."""
    census = full_census(delta_max, jobs=jobs, include_square=False)
    tasks = [[r for r in reports if r.symmetry in _SUM_RULE_TYPES]
             for reports in census.values()]
    failures = [f for fs in _map(_sum_rule_failures, tasks, jobs) for f in fs]
    return sum(len(t) for t in tasks), failures

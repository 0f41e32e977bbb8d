"""Brute-force verification oracle, independent of the fast CF machinery.

Everything here re-derives class data by explicit search: a bounded BFS over
the generator graph, a step-by-step walk of the H0 cycle, and symmetry
detection straight from the closure properties of the H0 member set under
the involutions.  It exists to validate the fast path at desk scale.
``ambiguous_classes`` is a closed form from genus theory, a function of the
discriminant alone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .exact import is_square
from .forms import (DomainLabel, Form, GeneratorWord, InternalError,
                    discriminant, domain_of)
from .periods import SymmetryType


class OracleInconclusive(InternalError):
    """The coefficient bound was too small to certify the answer."""


def _neighbors(m: int, n: int, k: int):
    """Images of (m,n,k) under A, B, R, A^-1, B^-1, in that fixed order."""
    s = m + n
    return ((m, s + k, 2 * m + k),
            (s + k, n, 2 * n + k),
            (n, m, -k),
            (m, s - k, k - 2 * m),
            (s - k, n, k - 2 * n))


def _orbit_triples(f: Form, coeff_bound: int) -> List[Tuple[int, int, int]]:
    start = f.coeffs()
    seen = {start}
    order = [start]
    queue = deque((start,))
    while queue:
        g = queue.popleft()
        for h in _neighbors(*g):
            if h not in seen and max(abs(h[0]), abs(h[1]), abs(h[2])) <= coeff_bound:
                seen.add(h)
                order.append(h)
                queue.append(h)
    return order


def orbit_bfs(f: Form, coeff_bound: int) -> List[Form]:
    """All forms reachable from f through forms with max |coeff| <= coeff_bound,
    in deterministic breadth-first order (f first)."""
    if discriminant(f) <= 0:
        raise ValueError(f"form {f} is not indefinite")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    return [Form(*t) for t in _orbit_triples(f, coeff_bound)]


def h0_cycle_walk(f: Form) -> Tuple[Tuple[Form, ...], GeneratorWord]:
    """The H0 cycle through f and the word T with apply_word(f, T) == f.

    Steps by the sign rule equivalent to the CF digits of xi_plus: apply A
    while xi_plus > 1 (i.e. m+n+k < 0), else B.  Asserts H0 membership and
    no revisits until the cycle closes.
    """
    d = discriminant(f)
    if d <= 0 or is_square(d):
        raise ValueError(f"form {f} needs a positive non-square discriminant")
    if domain_of(f) != DomainLabel.H0:
        raise ValueError(f"form {f} is not in H0")
    limit = 8 * d + 64
    cycle = [f]
    steps = []
    cur = f
    seen = {f}
    while True:
        gen = "A" if cur.m + cur.n + cur.k < 0 else "B"
        if gen == "A":
            cur = Form(cur.m, cur.m + cur.n + cur.k, 2 * cur.m + cur.k)
        else:
            cur = Form(cur.m + cur.n + cur.k, cur.n, 2 * cur.n + cur.k)
        steps.append(gen)
        if cur == f:
            break
        if cur in seen:
            raise InternalError(f"H0 walk from {f} revisited {cur} before closing")
        if not (cur.m > 0 and cur.n < 0):
            raise InternalError(f"H0 walk from {f} left H0 at {cur}")
        if len(steps) > limit:
            raise InternalError(f"H0 walk from {f} exceeded {limit} steps")
        seen.add(cur)
        cycle.append(cur)
    word = []
    for gen in steps:
        if word and word[-1][0] == gen:
            word[-1] = (gen, word[-1][1] + 1)
        else:
            word.append((gen, 1))
    return tuple(cycle), tuple(word)


def h0_class_key(f: Form) -> Form:
    """The lexicographically least member of f's H0 cycle, which the census
    reports as its class's representative; f must be an H0 form of
    non-square discriminant."""
    cycle, _ = h0_cycle_walk(f)
    return min(cycle)


@dataclass(frozen=True)
class OracleCounts:
    """Tallies of one class's members over the six bounded domains."""

    h0: int
    h0r: int
    ha: int
    habar: int
    hb: int
    hbbar: int

    @property
    def t(self) -> int:
        return self.h0

    def as_dict(self) -> Dict[DomainLabel, int]:
        return {DomainLabel.H0: self.h0, DomainLabel.H0R: self.h0r,
                DomainLabel.HA: self.ha, DomainLabel.HABAR: self.habar,
                DomainLabel.HB: self.hb, DomainLabel.HBBAR: self.hbbar}

    def ordered_counts(self, square: bool) -> Tuple[int, int, int]:
        """(t, t_up, t_down) implied by the tallies.

        For non-square discriminants the A-side domains carry t_up; for
        square discriminants the assignment is reversed (the finite orbit
        enters the A-side domains once per B-factor of the cycle word, and
        the cycle word of a zero-representing class starts on the other
        letter).
        """
        if square:
            return (self.h0, self.hb, self.ha)
        return (self.h0, self.ha, self.hb)


def _h0_set_checked(triples: List[Tuple[int, int, int]], square: bool,
                    coeff_bound: int) -> Set[Tuple[int, int, int]]:
    """H0 members of the orbit, certified complete or OracleInconclusive.

    Non-square: each member's cycle successor and predecessor must be present
    (the H0 members form closed successor cycles), and the bound must leave
    room for their one-step neighbors in the other domains.  Square delta has
    no cycle rule; a coefficient-slack check stands in.
    """
    h0 = {g for g in triples if g[0] > 0 and g[1] < 0}
    if not h0:
        if square:
            return h0
        raise OracleInconclusive("orbit contains no H0 form")
    worst = max(max(abs(c) for c in g) for g in h0)
    if square:
        if 4 * worst > coeff_bound:
            raise OracleInconclusive(
                f"H0 member near the bound ({worst} vs {coeff_bound})")
        return h0
    for m, n, k in h0:
        s = m + n + k
        succ = (m, s, 2 * m + k) if s < 0 else (s, n, 2 * n + k)
        sd = m + n - k
        pred = (m, sd, k - 2 * m) if sd < 0 else (sd, n, k - 2 * n)
        if succ not in h0 or pred not in h0:
            raise OracleInconclusive(
                f"H0 cycle through {(m, n, k)} not closed within bound {coeff_bound}")
    if 4 * worst > coeff_bound:
        raise OracleInconclusive(
            f"H0 member near the bound ({worst} vs {coeff_bound})")
    return h0


def _with_escalation(f: Form, coeff_bound, worker):
    d = discriminant(f)
    if d <= 0:
        raise ValueError(f"form {f} is not indefinite (delta={d})")
    bound = coeff_bound if coeff_bound else 4 * d
    last = None
    for _ in range(4):
        try:
            return worker(f, bound, is_square(d))
        except OracleInconclusive as exc:
            last = exc
            bound *= 2
    raise OracleInconclusive(f"still inconclusive at bound {bound // 2}: {last}")


def verify_symmetry(f: Form, coeff_bound: int = 0) -> SymmetryType:
    """Symmetry type read off the closure of the H0 member set under the
    involutions: conjugate and adjoint closed -> Supersymmetric; conjugate
    only -> KSymmetric; adjoint only -> MPlusNSymmetric; antipodal only ->
    Antisymmetric; none -> Asymmetric."""

    def work(form, bound, square):
        h0 = _h0_set_checked(_orbit_triples(form, bound), square, bound)
        conj = all((m, n, -k) in h0 for m, n, k in h0)
        adj = all((-n, -m, k) in h0 for m, n, k in h0)
        if conj and adj:
            return SymmetryType.SUPERSYMMETRIC
        if conj:
            return SymmetryType.K_SYMMETRIC
        if adj:
            return SymmetryType.M_PLUS_N_SYMMETRIC
        if all((-n, -m, -k) in h0 for m, n, k in h0):
            return SymmetryType.ANTISYMMETRIC
        return SymmetryType.ASYMMETRIC

    return _with_escalation(f, coeff_bound, work)


def verify_counts(f: Form, coeff_bound: int = 0) -> OracleCounts:
    """Per-domain member tallies of C(f) over the six bounded domains."""

    def work(form, bound, square):
        triples = _orbit_triples(form, bound)
        _h0_set_checked(triples, square, bound)  # completeness certificate
        tally = {label: 0 for label in DomainLabel}
        for g in triples:
            tally[domain_of(Form(*g))] += 1
        return OracleCounts(tally[DomainLabel.H0], tally[DomainLabel.H0R],
                            tally[DomainLabel.HA], tally[DomainLabel.HABAR],
                            tally[DomainLabel.HB], tally[DomainLabel.HBBAR])

    return _with_escalation(f, coeff_bound, work)


def _genus_exponent(delta: int) -> int:
    """mu of a valid non-square discriminant: the primitive classes equal to
    their own inverse number 2**(mu - 1) (Cox, *Primes of the Form
    x^2 + ny^2*, Prop. 3.11, with n -> -n).  r counts the odd primes
    dividing delta; mu = r for odd delta, and for delta = 4n, mu = r if
    n = 1 mod 4, r + 1 if n = 2, 3 mod 4 or n = 4 mod 8, r + 2 if n = 0 mod 8.
    """
    r, v, p = 0, delta, 3
    while v % 2 == 0:
        v //= 2
    while p * p <= v:
        if v % p == 0:
            r += 1
            while v % p == 0:
                v //= p
        p += 2
    if v > 1:
        r += 1
    if delta % 2:
        return r
    n = delta // 4
    if n % 4 == 1:
        return r
    return r + 2 if n % 8 == 0 else r + 1


def ambiguous_classes(delta: int) -> int:
    """Classes of a non-square discriminant, scaled ones included, that are
    their own inverse: sum of 2**(mu(delta / s**2) - 1) over every s >= 1
    with delta / s**2 a valid discriminant.  The census types these
    ``super`` or ``k``; no continued fraction is involved here."""
    if delta <= 0 or delta % 4 not in (0, 1) or is_square(delta):
        raise ValueError(f"{delta} is not a valid non-square discriminant")
    total, s = 0, 1
    while s * s <= delta:
        if delta % (s * s) == 0 and (delta // (s * s)) % 4 in (0, 1):
            total += 2 ** (_genus_exponent(delta // (s * s)) - 1)
        s += 1
    return total

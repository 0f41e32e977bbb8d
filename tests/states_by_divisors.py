"""Reference reduced states for the suite: divisor listing per discriminant.

``census._reduced_states`` sieves the reduced states of many discriminants
at once over (P, a).  This module finds them one discriminant at a time
instead: for each P it lists every divisor a of (delta - P**2) / 4, from a
table of least prime factors, and keeps the ones that make the surd reduced
(and, if asked, its form primitive).
"""
from math import gcd, isqrt
from typing import List, Set, Tuple


def smallest_prime_factors(n: int) -> List[int]:
    """spf[i] is the least prime factor of i, for 2 <= i <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def divisors(v: int, spf: List[int]) -> List[int]:
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


def states_by_divisors(delta: int, spf: List[int],
                       primitive_only: bool = False) -> Set[Tuple[int, int]]:
    """The reduced states (P, Q) of delta, with 0 < P <= r and
    r - P < Q <= r + P (r = isqrt(delta)), whose form (Q/2, -c, -P) is
    integral (and primitive, with ``primitive_only``); ``spf`` covers
    (delta - 1) // 4."""
    r = isqrt(delta)
    states = set()
    for p in range(2 - delta % 2, r + 1, 2):
        v = (delta - p * p) // 4  # = a * c for the form (a, -c, -p)
        for a in divisors(v, spf):
            if r - p < 2 * a <= r + p and (
                    not primitive_only or gcd(gcd(a, v // a), p) == 1):
                states.add((p, 2 * a))
    return states

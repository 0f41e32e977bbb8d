"""Exact perfect-square test.

Quadratic surds (P + sqrt(D)) / Q are never stored as numbers: the
continued-fraction code in :mod:`surdsym.cf` carries them as integer states
(P, Q) and takes floors from ``math.isqrt(D)``.
"""
from __future__ import annotations

from math import isqrt


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negatives never are)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n

"""Exact integer square roots.

Quadratic surds (P + sqrt(D)) / Q are never stored as numbers: the
continued-fraction code in :mod:`surdsym.cf` carries them as integer states
(P, Q) and takes floors from ``isqrt(D)``.
"""
from __future__ import annotations

import math


def isqrt(n: int) -> int:
    """Exact integer square root, floor(sqrt(n))."""
    if n < 0:
        raise ValueError(f"isqrt of negative number {n}")
    return math.isqrt(n)


def is_square(n: int) -> bool:
    """True iff n is a perfect square (negatives never are)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n

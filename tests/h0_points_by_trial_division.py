"""Reference count of H0 points for the suite: trial division per value.

``oracle.h0_point_count`` reads the number of divisors of each
v = (delta - k**2) / 4 off a table sieved once per process.  This module
counts them by trial division up to sqrt(v) instead, O(delta) steps per
discriminant.
"""
from math import isqrt


def divisor_count(v: int) -> int:
    """Number of divisors of v >= 1, by trial division up to sqrt(v)."""
    count = 0
    for m in range(1, isqrt(v) + 1):
        if v % m == 0:
            count += 1 if m * m == v else 2
    return count


def h0_points_by_trial_division(delta: int) -> int:
    """Forms (m, n, k) with m > 0 > n of a valid discriminant: one per
    divisor m of (delta - k**2) / 4 = -mn, for every k = delta mod 2 with
    k**2 < delta, of both signs."""
    r = isqrt(delta - 1)
    return sum(divisor_count((delta - k * k) // 4)
               for k in range(-r, r + 1) if (k - delta) % 2 == 0)

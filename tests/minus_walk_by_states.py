"""Reference minus continued fraction for the suite: the (P, Q) state walk.

``cf._minus_walk`` walks the forms R(A^b(g)) of the expansion and starts its
period at the first reduced form.  This module walks the integer states
(P, Q) of the complete quotients (P + sqrt(d)) / Q instead, keeps each state
in a dict, and finds the period at the first repeated state.
"""
from math import isqrt
from typing import Tuple


def minus_walk_by_states(p: int, q: int, d: int):
    """Minus CF of (p + sqrt(d)) / q, d > 0 non-square and q | (d - p**2),
    up to the first repeated state: (states, digits, start), with
    ``digits[j]`` the ceiling of state j's value and the period
    ``digits[start:]``.  The state after (P_j, Q_j) has
    Q_{j+1} * Q_j = P_{j+1}**2 - d."""
    r = isqrt(d)
    states = {}
    digits = []
    while (p, q) not in states:
        states[(p, q)] = len(digits)
        # ceiling of the irrational (p + sqrt(d))/q, from r = floor(sqrt(d))
        b = (p + r) // q + 1 if q > 0 else -((p + r) // -q)
        digits.append(b)
        p = b * q - p
        q = (p * p - d) // q
    return tuple(states), tuple(digits), states[(p, q)]


def state_form(p: int, q: int, d: int) -> Tuple[int, int, int]:
    """The coefficients (Q/2, (P**2 - d)/(2Q), -P) of the form whose xi_plus
    is (P + sqrt(d)) / Q."""
    return q // 2, (p * p - d) // (2 * q), -p

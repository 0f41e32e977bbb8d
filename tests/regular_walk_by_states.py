"""Reference regular continued fraction for the suite: the (P, Q) state table.

``cf._preperiod_walk`` stops at the first reduced state, where
``cf._period_walk`` starts the period, and neither keeps a state table.
This module keeps each state in a dict instead, and finds the period at the
first repeated state.
"""
from math import isqrt


def regular_walk_by_states(p: int, q: int, d: int):
    """Regular continued fraction of (p + sqrt(d)) / q, d > 0 non-square and
    q | (d - p**2), up to the first repeated state.

    Returns (states, digits, start): ``states[j]`` is the state (P_j, Q_j),
    ``digits[j]`` is the floor of its value, and the period is
    ``digits[start:]``.  The state after (P_j, Q_j) has
    Q_{j+1} * Q_j = d - P_{j+1}**2, so that, with a_j the digit,
    Q_{j+1} = Q_{j-1} + a_j * (P_j - P_{j+1}) and only Q_{-1} takes a
    division.
    """
    r = isqrt(d)
    q_prev = (d - p * p) // q
    states = {}
    digits = []
    while (p, q) not in states:
        states[(p, q)] = len(digits)
        # floor((p + sqrt(d))/q) from r = floor(sqrt(d)); d is not a square
        a = (p + r) // q if q > 0 else -((p + r) // -q) - 1
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
    return tuple(states), tuple(digits), states[(p, q)]

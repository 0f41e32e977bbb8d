"""Reference run walk of the minus continued fraction for the suite: one loop
on forms.

``cf._minus_walk`` walks the integer states (P, Q, M) = (-k, 2m, 2n) in two
loops, and its period loop drops the sign branches that a reduced state
never takes.  This module walks the forms R(A^b(g)) themselves in one loop,
which tests at every form whether the period has begun, and takes each run
length and digit with the branches for either sign of c = m + n + k and of
2m.  Its closed forms for a run of 2s are its own, in the coefficients m, n
and c: ``run_form`` and ``index_in_run``.
"""
from math import isqrt
from typing import Tuple

from surdsym.cf import _step_bound
from surdsym.forms import Form, InternalError, is_reduced


def run_form(m: int, n: int, c: int, i: int) -> Tuple[int, int]:
    """(m_i, n_i) of the i-th form of the run of 2s from (m, n, c - m - n).

    A step with digit 2 keeps c = m + n + k and gives m' = 2m - n + 2c and
    n' = m, so m_i = m + i * d0 + c * i * (i - 1) with d0 = m - n + 2c, and
    n_i = m_{i-1}; i = 0 gives (m, n) back."""
    d0 = m - n + 2 * c
    return m + i * (d0 + c * (i - 1)), m + (i - 1) * (d0 + c * (i - 2))


def index_in_run(m: int, n: int, c: int, run: int, h: Form) -> int:
    """The i with 0 < i < run at which the run of 2s from (m, n, c - m - n)
    passes h, or 0 if it does not; h must have m + n + k = c.

    m_i = h.m is c i**2 + (d0 - c) i + (m - h.m) = 0, solved exactly with
    isqrt; a root that is an integer in range is h when n_i = h.n too,
    as then k_i = c - m_i - n_i = h.k."""
    b = m - n + c  # d0 - c
    disc = b * b - 4 * c * (m - h.m)
    if disc < 0:
        return 0
    s = isqrt(disc)
    if s * s != disc:
        return 0
    for num in (s - b, -s - b):
        i, rest = divmod(num, 2 * c)
        if not rest and 0 < i < run and run_form(m, n, c, i)[1] == h.n:
            return i
    return 0


def minus_walk_by_one_loop(f: Form):
    """(runs, firsts, start) for the form f of non-square discriminant: the
    (digit, count) runs and the index of the period's first run, as
    ``cf._minus_walk`` gives them, and the reduced form that starts each
    period run, as this loop meets it, for the states that ``cf._run_starts``
    replays."""
    m, n, k = f
    d = k * k - 4 * m * n
    r = isqrt(d)
    runs = []
    firsts = []
    start = -1
    for _ in range(_step_bound(d, m, n, k)):
        c = m + n + k
        num = r + k + 2 * m
        run = num // (-2 * c) if c < 0 else -(num // (2 * c)) - 1
        if is_reduced(m, n, k):
            g = Form(m, n, k)
            if start < 0:
                start, first, first_c = len(runs), g, c
            elif g == first:
                return tuple(runs), tuple(firsts), start
            firsts.append(g)
            if run > 0 and c == first_c:
                i = index_in_run(m, n, c, run, first)
                if i:
                    runs.append((2, i))
                    return tuple(runs), tuple(firsts), start
        elif start >= 0:
            raise InternalError(
                f"minus CF of {f} left the reduced set: {Form(m, n, k)}")
        elif run > 0 and c < 0:
            entry = (k + 2 * m - r - 1) // (-2 * c) + 2
            if 0 < entry < run:
                run = entry
        if run > 0:
            runs.append((2, run))
            m, n = run_form(m, n, c, run)
            k = c - m - n
            continue
        q = 2 * m
        b = (r - k) // q + 1 if q > 0 else -((r - k) // -q)
        runs.append((b, 1))
        m, n, k = n + b * (k + b * m), m, -k - b * q
    raise InternalError(f"minus CF of {f} did not close within its step bound")

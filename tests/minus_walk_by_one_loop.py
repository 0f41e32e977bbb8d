"""Reference run walk of the minus continued fraction for the suite: one loop.

``cf._minus_walk`` walks the preperiod and the period in two loops, and its
period loop drops the sign branches that a reduced form never takes.  This
module walks both in one loop, which tests at every form whether the
period has begun, and takes each run length and digit with the branches
for either sign of c = m + n + k and of 2m.
"""
from math import isqrt

from surdsym.cf import _along_run, _index_in_run, _step_bound
from surdsym.forms import Form, InternalError, is_reduced


def minus_walk_by_one_loop(f: Form):
    """(runs, firsts, start) as ``cf._minus_walk`` gives them for the form f
    of non-square discriminant: the (digit, count) runs, the reduced form
    that starts each period run, and the index of the period's first run."""
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
                i = _index_in_run(m, n, c, run, first)
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
            m, n = _along_run(m, n, c, run)
            k = c - m - n
            continue
        q = 2 * m
        b = (r - k) // q + 1 if q > 0 else -((r - k) // -q)
        runs.append((b, 1))
        m, n, k = n + b * (k + b * m), m, -k - b * q
    raise InternalError(f"minus CF of {f} did not close within its step bound")

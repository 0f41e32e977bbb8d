"""Reference reduction to H0 for the suite: the peel's stop by a forward scan.

``reduction.reduce_to_H0`` reads the preperiod of conjugate(f) off the
walk of f where it can, finds the first state of the regular walk with
P**2 < delta by stepping back from the walk's last state, and builds its
generator word by pairing A, B, A, ... with the digits.  This module walks
the involution it picks itself, scans the states from the first on, and
builds the word digit by digit, leaving out every digit that is not
positive.
"""
from math import isqrt
from typing import Tuple

from surdsym.cf import SquareDiscriminantError, _preperiod_walk, _state_form
from surdsym.exact import is_square
from surdsym.forms import (Form, GeneratorWord, InternalError, antipodal,
                           involution, require_indefinite)

INVOLUTION_ORDER = ("identity", "conjugate", "adjoint", "antipodal")


def h0_peel_by_forward_scan(f: Form) -> Tuple[Form, GeneratorWord, str]:
    """(form, word, tag) as ``reduce_to_H0`` gives them: the first involution
    iota of f, in the order above, with xi_plus(iota(f)) > 0, the preperiod
    of that root's regular CF peeled by alternating A and B exponents up to
    the first state with P**2 < delta, and iota applied again."""
    d = require_indefinite(f)
    if f.m * f.n <= 0:
        return f, (), "identity"
    if is_square(d):
        raise SquareDiscriminantError(f"form {f} has square discriminant {d}")
    for tag in INVOLUTION_ORDER:
        g = f if tag == "identity" else involution(f, tag)
        if g.m * g.k < 0:
            break
    else:
        raise InternalError(f"no involution of {f} has a positive first root")
    ps, qs, digits = _preperiod_walk(-g.k, 2 * g.m, d, isqrt(d))
    first = next(((j, p, q) for j, (p, q) in enumerate(zip(ps, qs))
                  if p * p < d), None)
    if first is None:
        raise InternalError(f"preperiod of {g} did not reach mn <= 0")
    j, p, q = first
    cur = _state_form(p, q, qs[j - 1])
    cur = antipodal(cur) if j % 2 else cur
    word = tuple(("AB"[i % 2], a) for i, a in enumerate(digits[:j]) if a > 0)
    out = cur if tag == "identity" else involution(cur, tag)
    return out, word, tag

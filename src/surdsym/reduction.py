"""Reduction theory: reduced forms, the reduced cycle, and the sum rule.

A form is *reduced* when m > 0, n > 0, k < 0 and m + n < |k|
(``forms.is_reduced``, re-exported here).  Each class of non-square
discriminant contains finitely many reduced forms, cyclically permuted by
h -> R(A^c(h)) where the exponents c_i are the minus-CF period digits; the
cycle length equals the class's t_up count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .cf import (SquareDiscriminantError, _minus_walk, _regular_walk,
                 _require_nonsquare, _state_form)
from .exact import is_square
from .forms import (Form, GeneratorWord, InternalError, antipodal, gen_power,
                    involution, is_reduced, require_indefinite)
from .periods import SymmetryType


def reduced_representative(f: Form) -> Form:
    """A reduced form in the class of f (non-square delta).

    Which reduced form depends on f, not only on its class: an
    already-reduced f is its own representative.  Otherwise, run the
    continued fraction of xi_plus(f) to the first even digit index j0 at or
    past the period start; the state form there, pulled back by A^-1, is
    reduced and in-class.
    """
    d = _require_nonsquare(f)
    if is_reduced(*f):
        return f
    # The j-th state form of the expansion lies in C(f) exactly when j is even.
    states, _, n_pre = _regular_walk(-f.k, 2 * f.m, d)
    j0 = n_pre if n_pre % 2 == 0 else n_pre + 1
    j = j0 if j0 < len(states) else n_pre  # a period of length 1
    # states[j - 1] steps into state j; for j = 0 it is the period's last state.
    h = gen_power(_state_form(*states[j], states[j - 1][1]), "A", -1)
    if not is_reduced(*h):
        raise InternalError(f"representative {h} of {f} is not reduced")
    return h


@dataclass(frozen=True)
class ReducedCycle:
    """The reduced forms of a class and the minus-CF exponents linking them."""

    forms: Tuple[Form, ...]
    modular_period: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.forms) != len(self.modular_period):
            raise InternalError(
                f"{len(self.forms)} reduced forms vs period length "
                f"{len(self.modular_period)}")


def reduced_cycle(f: Form) -> ReducedCycle:
    """All reduced forms of C(f), in cycle order, with the minus-CF period.

    Starts at h = reduced_representative(f), which is f itself when f is
    reduced, so two members of one class give rotations of one cycle.
    Successive forms are R(A^{c_i}(previous)) for the period digits c_i,
    closing back at h: the forms of the minus CF walk of xi_plus(h).
    """
    h0 = reduced_representative(f)
    forms, digits, start = _minus_walk(h0)
    if start:
        raise InternalError(f"minus CF of reduced form {h0} is not purely periodic")
    return ReducedCycle(forms, digits)


_H0_INVOLUTION_ORDER = ("identity", "conjugate", "adjoint", "antipodal")


def reduce_to_H0(f: Form) -> Tuple[Form, GeneratorWord, str]:
    """A form f' with m'n' <= 0 in the class of iota(f), plus the word used.

    If mn <= 0 already, f returns unchanged with the "identity" tag.
    Otherwise the first involution iota (fixed order: identity, conjugate,
    adjoint, antipodal) giving xi_plus(iota(f)) > 0 is applied, the preperiod
    of the regular CF of that root is peeled off with alternating A and B
    exponents (stopping as soon as mn <= 0), and iota is applied again; since
    each involution maps mn <= 0 forms to mn <= 0 forms, the result stands.
    Peeling a_0 ... a_{j-1} reaches the j-th state form (antipodal for odd
    j), whose mn is (P_j**2 - delta) / 4: the peel stops at P_j**2 < delta.
    """
    d = require_indefinite(f)
    if f.m * f.n <= 0:
        return f, (), "identity"
    if is_square(d):
        raise SquareDiscriminantError(
            f"form {f} has square discriminant {d}; use normalize_square_form")
    for tag in _H0_INVOLUTION_ORDER:
        g = f if tag == "identity" else involution(f, tag)
        if g.m * g.k < 0:  # exactly when xi_plus(g) > 0
            break
    else:
        raise InternalError(f"no involution of {f} has a positive first root")
    # The first reduced state has P**2 < delta, so the peel never reads the
    # period, and the walk stops there.
    states, digits, _ = _regular_walk(-g.k, 2 * g.m, d, True)
    first = next(((j, p, q) for j, (p, q) in enumerate(states) if p * p < d),
                 None)
    if first is None:
        raise InternalError(f"preperiod of {g} did not reach mn <= 0")
    j, p, q = first
    # j > 0: state 0 is g's own, and mn > 0 means P_0**2 = k**2 > delta.
    cur = _state_form(p, q, states[j - 1][1])
    cur = antipodal(cur) if j % 2 else cur
    word = tuple(("AB"[i % 2], a) for i, a in enumerate(digits[:j]) if a > 0)
    out = cur if tag == "identity" else involution(cur, tag)
    return out, word, tag


def reduce_classical(f: Form) -> Tuple[Form, GeneratorWord]:
    """Reduce a form with m > 0, n > 0, k < 0 by the word R A^{b_M} ... R A^{b_0},
    where b_0 ... b_M is the minus-CF preperiod of xi_plus(f)."""
    _require_nonsquare(f)
    if not (f.m > 0 and f.n > 0 and f.k < 0):
        raise ValueError(f"reduce_classical needs m>0, n>0, k<0; got {f}")
    # Each step R A^b is one step of the minus walk.
    forms, digits, start = _minus_walk(f)
    return forms[0], tuple(step for b in digits[:start] for step in (("A", b), ("R", 1)))


_SUM_RULE_TYPES = frozenset((SymmetryType.SUPERSYMMETRIC,
                             SymmetryType.ANTISYMMETRIC,
                             SymmetryType.M_PLUS_N_SYMMETRIC))


def check_sum_rule(cycle: ReducedCycle, symmetry: SymmetryType) -> bool:
    """Sum rule: for the three symmetric types, sum(c_i) == 3t exactly;
    True for the other types, which it does not constrain."""
    if symmetry not in _SUM_RULE_TYPES:
        return True
    period = cycle.modular_period
    return sum(period) == 3 * len(period)

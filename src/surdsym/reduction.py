"""Reduction theory: reduced forms, the reduced cycle, and the sum rule.

A form is *reduced* when m > 0, n > 0, k < 0 and m + n < |k|.  Each class of
non-square discriminant contains finitely many reduced forms, cyclically
permuted by h -> R(A^c(h)) where the exponents c_i are the minus-CF period
digits; the cycle length equals the class's t_up count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .cf import (SquareDiscriminantError, _regular_walk, cf_surd,
                 modular_cf_surd)
from .exact import is_square
from .forms import (Form, GeneratorWord, InternalError, apply_generator,
                    discriminant, gen_power, involution)
from .periods import SymmetryType


def is_reduced(f: Form) -> bool:
    """m > 0, n > 0, k < 0 and m + n < |k|, exactly."""
    return f.m > 0 and f.n > 0 and f.k < 0 and f.m + f.n < -f.k


def _require_nonsquare(f: Form) -> int:
    d = discriminant(f)
    if d <= 0:
        raise ValueError(f"form {f} is not indefinite (delta={d})")
    if is_square(d):
        raise SquareDiscriminantError(f"form {f} has square discriminant {d}")
    return d


def reduced_representative(f: Form) -> Form:
    """A reduced form in the class of f (non-square delta).

    An already-reduced f is its own representative.  Otherwise, run the
    continued fraction of xi_plus(f) to the first even digit index j0 at or
    past the period start; the state form there, pulled back by A^-1, is
    reduced and in-class.
    """
    d = _require_nonsquare(f)
    if is_reduced(f):
        return f
    # The j-th state form (Q_j/2, -Q_{j-1}/2, -P_j) of the expansion lies in
    # C(f) exactly when j is even; Q_{j-1} = (d - P_j**2) / Q_j.
    states, _, n_pre = _regular_walk(-f.k, 2 * f.m, d)
    j0 = n_pre if n_pre % 2 == 0 else n_pre + 1
    order = list(states)
    pj, qj = order[j0] if j0 < len(order) else order[n_pre]
    q_prev = (d - pj * pj) // qj
    fj = Form(qj // 2, -q_prev // 2, -pj)
    h = gen_power(fj, "A", -1)
    if not is_reduced(h):
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

    Starts at the canonical reduced representative h; successive forms are
    R(A^{c_i}(previous)) for the period digits c_i, closing back at h.
    """
    h0 = reduced_representative(f)
    mcf = modular_cf_surd(h0)
    if mcf.preperiod:
        raise InternalError(
            f"minus CF of reduced form {h0} is not purely periodic: {mcf}")
    digits = mcf.period
    forms = [h0]
    cur = h0
    for i, c in enumerate(digits):
        cur = apply_generator(gen_power(cur, "A", c), "R")
        if not is_reduced(cur):
            raise InternalError(f"cycle step left the reduced set: {cur}")
        if i < len(digits) - 1:
            forms.append(cur)
    if cur != h0:
        raise InternalError(f"reduced cycle of {f} did not close: ended at {cur}")
    if len(set(forms)) != len(forms):
        raise InternalError(f"reduced cycle of {f} revisited a form")
    return ReducedCycle(tuple(forms), digits)


_H0_INVOLUTION_ORDER = ("identity", "conjugate", "adjoint", "antipodal")


def reduce_to_H0(f: Form) -> Tuple[Form, GeneratorWord, str]:
    """A form f' with m'n' <= 0 in the class of iota(f), plus the word used.

    If mn <= 0 already, f returns unchanged with the "identity" tag.
    Otherwise the first involution iota (fixed order: identity, conjugate,
    adjoint, antipodal) giving xi_plus(iota(f)) > 0 is applied, the preperiod
    of the regular CF of that root is peeled off with alternating A and B
    exponents (stopping as soon as mn <= 0), and iota is applied again; since
    each involution maps mn <= 0 forms to mn <= 0 forms, the result stands.
    """
    d = discriminant(f)
    if d <= 0:
        raise ValueError(f"form {f} is not indefinite (delta={d})")
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
    word = []
    cur = g
    gens = ("A", "B")
    for i, a in enumerate(cf_surd(g).preperiod):
        if cur.m * cur.n <= 0:
            break
        if a > 0:
            cur = gen_power(cur, gens[i % 2], a)
            word.append((gens[i % 2], a))
    if cur.m * cur.n > 0:
        raise InternalError(f"preperiod of {g} did not reach mn <= 0: {cur}")
    out = cur if tag == "identity" else involution(cur, tag)
    return out, tuple(word), tag


def reduce_classical(f: Form) -> Tuple[Form, GeneratorWord]:
    """Reduce a form with m > 0, n > 0, k < 0 by the word R A^{b_M} ... R A^{b_0},
    where b_0 ... b_M is the minus-CF preperiod of xi_plus(f)."""
    _require_nonsquare(f)
    if not (f.m > 0 and f.n > 0 and f.k < 0):
        raise ValueError(f"reduce_classical needs m>0, n>0, k<0; got {f}")
    word = []
    cur = f
    for b in modular_cf_surd(f).preperiod:
        cur = apply_generator(gen_power(cur, "A", b), "R")
        word.append(("A", b))
        word.append(("R", 1))
    if not is_reduced(cur):
        raise InternalError(f"classical reduction of {f} ended unreduced: {cur}")
    return cur, tuple(word)


_SUM_RULE_TYPES = frozenset((SymmetryType.SUPERSYMMETRIC,
                             SymmetryType.ANTISYMMETRIC,
                             SymmetryType.M_PLUS_N_SYMMETRIC))


@dataclass(frozen=True)
class SumRuleResult:
    """Outcome of the sum-rule check; truthy iff the rule (or vacuity) holds."""

    holds: bool
    applicable: bool

    def __bool__(self) -> bool:
        return self.holds


def check_sum_rule(cycle: ReducedCycle, symmetry: SymmetryType) -> SumRuleResult:
    """Sum rule: for the three symmetric types, sum(c_i) == 3t exactly."""
    if symmetry in _SUM_RULE_TYPES:
        period = cycle.modular_period
        return SumRuleResult(sum(period) == 3 * len(period), True)
    return SumRuleResult(True, False)

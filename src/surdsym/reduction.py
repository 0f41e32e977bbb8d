"""Reduction theory: reduced forms, the reduced cycle, and the sum rule.

A form is *reduced* when m > 0, n > 0, k < 0 and m + n < |k|
(``forms.is_reduced``, re-exported here).  Each class of non-square
discriminant contains finitely many reduced forms, cyclically permuted by
h -> R(A^c(h)) where the exponents c_i are the minus-CF period digits; the
cycle length equals the class's t_up count.  Most of them lie inside runs
of 2s, so a cycle keeps only the form that starts each run and builds the
others when they are read (``CycleForms``).
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, cycle
from operator import index, itemgetter
from typing import NamedTuple, Tuple

from .cf import (Run, SquareDiscriminantError, Walk, _digits, _index_in_run,
                 _minus_walk, _preperiod_walk, _require_digit_cap,
                 _require_nonsquare, _run_form, _state_form)
from .exact import is_square, isqrt
from .forms import (Form, GeneratorWord, InternalError, antipodal, conjugate,
                    gen_power, is_reduced, require_indefinite)
from .periods import SymmetryType


def reduced_representative(f: Form) -> Form:
    """A reduced form in the class of f (non-square delta).

    Which reduced form depends on f, not only on its class: an
    already-reduced f is its own representative.  Otherwise, run the
    continued fraction of xi_plus(f) to the first even digit index j0 at or
    past the period start; the state form there, pulled back by A^-1, is
    reduced and in-class.  That is the first reduced state, or the state
    one regular step past it where the preperiod is odd: the period itself
    is never walked.
    """
    d = _require_nonsquare(f)
    if is_reduced(*f):
        return f
    # The j-th state form of the expansion lies in C(f) exactly when j is even.
    ps, qs, preperiod = _preperiod_walk(-f.k, 2 * f.m, d)
    p, q = ps[-1], qs[-1]
    q_prev = (d - p * p) // q  # the Q of every state that steps into (p, q)
    if len(preperiod) % 2:  # _preperiod_walk's step; Q > 0 on the cycle
        a = (p + isqrt(d)) // q
        p, q, q_prev = a * q - p, q_prev + a * (2 * p - a * q), q
    h = gen_power(_state_form(p, q, q_prev), "A", -1)
    if not is_reduced(*h):
        raise InternalError(f"representative {h} of {f} is not reduced")
    return h


class CycleForms(Sequence):
    """The reduced forms of a cycle, read off its runs of minus-CF digits.

    ``firsts[i]`` is the (m, n, k) of the form that starts the i-th run, a
    plain triple as ``cf._minus_walk`` gives it, and ``counts[i]`` its
    number of digits (more than 1 only for a run of 2s).  The length is the
    sum of the counts; each form, read by index, by iteration or by slice,
    is built as a Form by the closed form of its run (``cf._run_form``).
    No other form is kept.  Membership, ``index`` and ``count`` look at each
    run once, without building its forms.  It compares and hashes as the
    tuple of its forms.
    """

    __slots__ = ("_firsts", "_counts", "_offsets")

    def __init__(self, firsts: Tuple[Tuple[int, int, int], ...],
                 counts: Tuple[int, ...]):
        self._firsts = firsts
        self._counts = counts
        self._offsets = tuple(accumulate(counts, initial=0))

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        j = index(i)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"cycle index {i} out of range")
        run = bisect_right(self._offsets, j) - 1
        return _run_form(self._firsts[run], j - self._offsets[run])

    def __iter__(self):
        return (_run_form(g, i) for g, count in zip(self._firsts, self._counts)
                for i in range(count))

    def _find(self, h) -> int:
        """The index of the form h, or -1 if h is not in the cycle.  h is
        either a run's first form or inside a run of 2s; along a run
        m + n + k stays fixed, so only runs with h's are searched, each by
        ``cf._index_in_run``.  The forms of a cycle are distinct."""
        if isinstance(h, tuple) and len(h) == 3:
            h, c = Form(*h), sum(h)
            for g, count, offset in zip(self._firsts, self._counts, self._offsets):
                if g == h:
                    return offset
                i = count > 1 and sum(g) == c and _index_in_run(g[0], g[1], c, count, h)
                if i:
                    return offset + i
        return -1

    def __contains__(self, h) -> bool:
        return self._find(h) >= 0

    def index(self, h, start: int = 0, stop=None) -> int:
        i = self._find(h)
        if i not in range(len(self))[start:stop]:
            raise ValueError(f"{h!r} is not in the cycle")
        return i

    def count(self, h) -> int:
        return int(h in self)

    def __eq__(self, other):
        if not isinstance(other, (tuple, CycleForms)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class ReducedCycle(NamedTuple):
    """The reduced forms of a class and the minus-CF exponents linking them,
    as (digit, count) runs: ``forms[i + 1]`` is R(A^c(forms[i])) for the
    i-th digit c of the runs expanded."""

    forms: Sequence[Form]
    runs: Tuple[Run, ...]

    @property
    def modular_period(self) -> Tuple[int, ...]:
        """The minus-CF period digits, the runs expanded; more than
        ``cf.DIGIT_CAP`` of them raise ValueError."""
        _require_digit_cap(self.forms[0], self.runs)
        return _digits(self.runs)


def reduced_cycle(f: Form) -> ReducedCycle:
    """All reduced forms of C(f), in cycle order, with the minus-CF period.

    Starts at h = reduced_representative(f), which is f itself when f is
    reduced, so two members of one class give rotations of one cycle.
    Successive forms are R(A^{c_i}(previous)) for the period digits c_i,
    closing back at h: the forms of the minus CF walk of xi_plus(h).  Only
    the coefficients of the form that starts each run of the walk are kept
    here, no Form is built and no digit is expanded; ``forms`` builds each
    form when it is indexed or iterated.
    """
    h0 = reduced_representative(f)
    runs, firsts, start = _minus_walk(h0)
    if start:
        raise InternalError(f"minus CF of reduced form {h0} is not purely periodic")
    return ReducedCycle(CycleForms(firsts, tuple(map(itemgetter(1), runs))),
                        runs)


def _conjugate_preperiod(f: Form, d: int, r: int
                         ) -> Tuple[Tuple[int, ...], Walk]:
    """The preperiod of the regular CF of xi_plus(conjugate(f)), for
    m * k > 0, as (head, (ps, qs, digits)): its digits are head + digits,
    and ``ps`` and ``qs`` the P and the Q of its states from index
    len(head) on, up to the first reduced one.  r is isqrt(d).

    xi_plus(conjugate(f)) is -xi_minus(f).  With x_j = (P_j + sqrt(d)) / Q_j
    the complete quotients of f's walk, a_j its digits and x_j' their
    conjugates, x_{j+1}' = 1 / (x_j' - a_j).  For j >= 1, x_j' < 1 is
    absorbing, as a_j >= 1 makes x_{j+1}' < 0; and x_{j+1}' > 1 gives
    floor(x_j') = a_j.  So with J the last j <= s with x_j' > 1, s the
    index of f's first reduced state, xi_minus(f) = [a_0; a_1, ..., a_{J-1},
    x_J'], and its negative is [-a_0 - 1; 1, a_1 - 1, a_2, ..., a_{J-1},
    x_J'] for a_1 >= 2, or [-a_0 - 1; a_2 + 1, a_3, ..., a_{J-1}, x_J'] for
    a_1 = 1.  Its expansion goes on as the walk from the state (-P_J, -Q_J)
    of x_J', which reaches a reduced state in at most three digits.  As x_{J+1}' < 1, x_J' - a_J
    is above 1 or below 0, so x_J' and x_J differ in their floors, b and
    a_J; the tail's second complete quotient has the conjugate
    1 / (x_J - b) < 1, and by absorption the conjugate is in (-1, 0), and
    the state reduced, two steps later at the latest.  Likewise s <= J + 3,
    so J is found by stepping back from s, as x_j' > 1 is
    (P_j - Q_j > r) == (Q_j > 0).  Where J is below 2, or below 3 with
    a_1 = 1, the head would be too short to hold the rewritten digits, and
    conjugate(f) is walked itself.
    """
    ps, qs, a = _preperiod_walk(-f.k, 2 * f.m, d)
    j = len(a) - 1
    while j > 0:
        p, q = ps[j], qs[j]
        if (p - q > r) == (q > 0):
            break
        j -= 1
    if j >= 2 and a[1] >= 2:
        head = (-a[0] - 1, 1, a[1] - 1, *a[2:j])
    elif j >= 3 and a[1] == 1:
        head = (-a[0] - 1, a[2] + 1, *a[3:j])
    else:
        return (), _preperiod_walk(f.k, 2 * f.m, d)
    return head, _preperiod_walk(-ps[j], -qs[j], d)


def reduce_to_H0(f: Form) -> Tuple[Form, GeneratorWord, str]:
    """A form f' with m'n' <= 0 in the class of iota(f), plus the word used.

    If mn <= 0 already, f returns unchanged with the "identity" tag.
    Otherwise the first involution iota (fixed order: identity, conjugate,
    adjoint, antipodal) giving xi_plus(iota(f)) > 0 is applied, the preperiod
    of the regular CF of that root is peeled off with alternating A and B
    exponents (stopping as soon as mn <= 0), and iota is applied again; since
    each involution maps mn <= 0 forms to mn <= 0 forms, the result stands.

    Only the first two can be chosen.  xi_plus(g) > 0 is g.m * g.k < 0, and
    mn > 0 with k**2 - 4mn > 0 forces k != 0, so the identity passes exactly
    when mk < 0 and the conjugate (m, n, -k) exactly when mk > 0.  The
    adjoint (-n, -m, k) passes only when nk > 0, that is mk > 0, and the
    antipodal (-n, -m, -k) only when mk < 0.

    Peeling a_0 ... a_{j-1} reaches the j-th state form (antipodal for odd
    j), whose mn is (P_j**2 - delta) / 4: the peel stops at P_j**2 < delta.
    For the conjugate, the preperiod is read off f's own walk, which the
    rest of a form query walks as well, and only its last three digits or
    fewer are walked here (``_conjugate_preperiod``).  The states of
    conjugate(f)'s walk that the digits read off f stand for have
    P**2 > delta, as the complete quotient at each and its conjugate are
    both positive, so the stop lies among the states walked here.
    """
    d = require_indefinite(f)
    if f.m * f.n <= 0:
        return f, (), "identity"
    if is_square(d):
        raise SquareDiscriminantError(
            f"form {f} has square discriminant {d}; use normalize_square_form")
    tag = "identity" if f.m * f.k < 0 else "conjugate"
    r = isqrt(d)
    if tag == "identity":
        head, (ps, qs, digits) = (), _preperiod_walk(-f.k, 2 * f.m, d)
    else:
        head, (ps, qs, digits) = _conjugate_preperiod(f, d, r)
    # The walk ends at the first reduced state, which has P**2 < delta; for
    # j >= 1 the complete quotient xi_j is above 1, so P_j**2 < delta, that
    # is xi_j' < 0, holds from its first state on (xi_{j+1}' is then
    # 1 / (xi_j' - a_j) < 0).  So the peel's stop, the first state with
    # P**2 < delta, is found by stepping back from the end, and for a
    # non-square delta P**2 < delta is |P| <= isqrt(delta).
    j = len(ps) - 1
    # j > 0: P_0**2 > delta for the first state walked, f's or
    # conjugate(f)'s own (mn > 0 means k**2 > delta), or that of x_J',
    # whose conjugate x_J is above 1 as well.
    if not j or abs(ps[j]) > r:
        raise InternalError(f"preperiod of the {tag} of {f} did not reach "
                            "mn <= 0")
    while j > 1 and abs(ps[j - 1]) <= r:
        j -= 1
    cur = _state_form(ps[j], qs[j], qs[j - 1])
    digits = head + digits[:j]
    cur = antipodal(cur) if len(digits) % 2 else cur
    # a_0 >= 0 as the root peeled is positive, the other digits are
    # positive, and a zero exponent is left out.
    word = tuple(zip(cycle("AB"), digits))
    if digits[0] <= 0:
        word = word[1:]
    out = cur if tag == "identity" else conjugate(cur)
    return out, word, tag


def reduce_classical(f: Form) -> Tuple[Form, GeneratorWord]:
    """Reduce a form with m > 0, n > 0, k < 0 by the word R A^{b_M} ... R A^{b_0},
    where b_0 ... b_M is the minus-CF preperiod of xi_plus(f).  A preperiod
    of more than ``cf.DIGIT_CAP`` digits raises ValueError."""
    _require_nonsquare(f)
    if not (f.m > 0 and f.n > 0 and f.k < 0):
        raise ValueError(f"reduce_classical needs m>0, n>0, k<0; got {f}")
    # Each step R A^b is one step of the minus walk.
    runs, firsts, start = _minus_walk(f)
    preperiod = runs[:start]
    _require_digit_cap(f, preperiod)
    return Form(*firsts[0]), tuple(step for b in _digits(preperiod)
                                   for step in (("A", b), ("R", 1)))


_SUM_RULE_TYPES = frozenset((SymmetryType.SUPERSYMMETRIC,
                             SymmetryType.ANTISYMMETRIC,
                             SymmetryType.M_PLUS_N_SYMMETRIC))


def check_sum_rule(cycle: ReducedCycle, symmetry: SymmetryType) -> bool:
    """Sum rule: for the three symmetric types, sum(c_i) == 3t exactly;
    True for the other types, which it does not constrain."""
    if symmetry not in _SUM_RULE_TYPES:
        return True
    return sum(b * count for b, count in cycle.runs) == \
        3 * sum(map(itemgetter(1), cycle.runs))

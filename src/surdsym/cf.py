"""Continued fractions: rational, regular surd, and minus ("modular") variants.

The regular expansion of a quadratic surd runs on the integer state (P, Q)
with fixed radicand D: the current complete quotient is (P + sqrt(D)) / Q
and every update keeps the invariant Q | (D - P**2).  Its period starts at
the first reduced state, whose value xi has xi > 1 and -1 < xi' < 0 (by
Galois' theorem, exactly the purely periodic expansions), and ends where
the walk returns to that state.  The minus expansion of xi_plus(f) runs on
the forms themselves: each digit b moves f to R(A^b(f)), whose xi_plus is
the next complete quotient.  Its period starts at the first reduced form,
as the minus CF of a quadratic irrational xi is purely periodic exactly
when xi > 1 > xi' > 0 (Zagier, Zetafunktionen und quadratische Koerper,
1981), and ends where the walk returns to that form; it takes each run of
2s in one stride.  Neither walk stores a state table.
``_regular_walk`` and ``_minus_walk`` are the one loop of each recurrence.
Every form that reduction and the H0 tour take from the regular walk is a
``_state_form``, read off a state and the Q of the state before it, with no
squaring or division.  ``_regular_walk`` keeps its last ``_WALK_MEMO_SIZE``
walks, so the calls that answer one form query (classify, reduce to H0,
reduced cycle) walk the form's expansion once; its results are tuples, which
no caller can change.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import add
from typing import Tuple

from .exact import is_square, isqrt
from .forms import Form, InternalError, antipodal, is_reduced, require_indefinite

# tuple.__new__(Form, (m, n, k)) builds a Form without a Python-level call.
_new_form = tuple.__new__


class SquareDiscriminantError(ValueError):
    """Raised where a non-square discriminant is required."""


@dataclass(frozen=True)
class CFExpansion:
    """A regular continued fraction: finite ``preperiod`` then cyclic ``period``.

    Finite (rational) expansions have an empty period.
    """

    preperiod: Tuple[int, ...]
    period: Tuple[int, ...]

    @property
    def is_finite(self) -> bool:
        return not self.period

    def digits(self, count: int) -> Tuple[int, ...]:
        """First ``count`` digits, cycling the period as needed."""
        out = list(self.preperiod[:count])
        while len(out) < count:
            if not self.period:
                raise ValueError(f"finite expansion has only {len(self.preperiod)} digits")
            out.extend(self.period[: count - len(out)])
        return tuple(out)


@dataclass(frozen=True)
class ModularCF:
    """A minus continued fraction: b0 - 1/(b1 - 1/(...)), digits >= 2 after b0."""

    preperiod: Tuple[int, ...]
    period: Tuple[int, ...]

    @property
    def is_purely_periodic(self) -> bool:
        return not self.preperiod


def cf_rational(num: int, den: int) -> CFExpansion:
    """Canonical (Euclidean) continued fraction of num/den, den > 0.

    The result never ends in 1 except for the single-digit expansion [1].
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    digits = []
    p, q = num, den
    while q:
        a = p // q
        digits.append(a)
        p, q = q, p - a * q
    return CFExpansion(tuple(digits), ())


def cf_value(cf: CFExpansion) -> Fraction:
    """Exact value of a finite expansion."""
    if not cf.is_finite:
        raise ValueError("cf_value needs a finite expansion")
    if not cf.preperiod:
        raise ValueError("empty expansion has no value")
    val = Fraction(cf.preperiod[-1])
    for a in reversed(cf.preperiod[:-1]):
        if val == 0:
            raise ValueError("ill-formed expansion: zero complete quotient")
        val = a + 1 / val
    return val


State = Tuple[int, int]
Walk = Tuple[Tuple[State, ...], Tuple[int, ...], int]
FormWalk = Tuple[Tuple[Form, ...], Tuple[int, ...], int]

# Walks kept by _regular_walk: a form query walks f for its class, then the
# preperiod of an involution of f in reduce_to_H0, then f again for its
# reduced representative.
_WALK_MEMO_SIZE = 4


@lru_cache(maxsize=_WALK_MEMO_SIZE)
def _regular_walk(p: int, q: int, d: int, preperiod_only: bool = False) -> Walk:
    """Regular continued fraction of (p + sqrt(d)) / q, d > 0 non-square and
    q | (d - p**2), until it returns to its first reduced state, or with
    ``preperiod_only`` until it reaches that state.

    Returns (states, digits, start): ``states[j]`` is the state (P_j, Q_j),
    ``digits[j]`` is the floor of its value, and the period is
    ``digits[start:]``.  With ``preperiod_only`` the states end at the first
    reduced state, ``states[start]``, and the digits are the preperiod's.
    A state is reduced when its value xi satisfies
    xi > 1 and -1 < xi' < 0, that is 0 < P <= r and r - P < Q <= r + P with
    r = isqrt(d); by Galois' theorem its expansion is then purely periodic,
    and the first reduced state is the period's first.  The state after
    (P_j, Q_j) has Q_{j+1} * Q_j = d - P_{j+1}**2, so that, with a_j the
    digit, Q_{j+1} = Q_{j-1} + a_j * (P_j - P_{j+1}) and only Q_{-1} takes
    a division.
    """
    r = isqrt(d)
    q_prev = (d - p * p) // q
    states = []
    digits = []
    start = -1
    while True:
        state = (p, q)
        if start >= 0:
            if state == first:
                return tuple(states), tuple(digits), start
        elif 0 < p <= r and r - p < q <= r + p:
            start, first = len(states), state
            if preperiod_only:
                return (*states, state), tuple(digits), start
        states.append(state)
        # floor((p + sqrt(d))/q) from r = floor(sqrt(d)); d is not a square
        a = (p + r) // q if q > 0 else -((p + r) // -q) - 1
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q


def _minus_walk(f: Form) -> FormWalk:
    """Minus continued fraction of xi_plus(f), walked on forms, for a
    non-square discriminant.

    Each step takes the form g to R(A^b(g)), b the ceiling of xi_plus(g),
    and ``digits`` are the b of every step from f on.  The period
    ``digits[start:]`` starts at the first reduced form and ends when the
    walk returns to it; ``forms`` are the reduced forms of the period,
    ``forms[i]`` the one whose digit is ``digits[start + i]``.  The forms
    of the preperiod are not built.

    A run of 2s is taken in one stride.  A step with b = 2 keeps
    c = m + n + k and gives m' = 2m - n + 2c, so along the run
    m_i = m_0 + i (m_1 - m_0) + c i (i - 1) and n_i = m_{i-1}.  The digit
    is 2 exactly while 1 < xi_plus < 2, and each step lowers
    y = 1 / (xi_plus - 1) = (sqrt(d) + k + 2m) / (-2c) by one, so a run
    from g holds floor(y) 2s.  In the period the run's forms come from its
    m list, and the walk closes exactly at the first reduced form if it is
    one of them (a tuple comparison, m first).  In the preperiod only the
    form after the run is built, from the closed form, unless the first
    reduced form lies inside the run: y' = (k + 2m - sqrt(d)) / (-2c), read
    at the other root xi_minus, falls by one per step as well, and with
    c < 0 the run's i-th form is reduced exactly when y' - i < -1, that is
    when xi_minus has entered (0, 1); with c > 0 no form of the run is.

    In the period, ``is_reduced`` tests every form the walk stops at: each
    form it steps from alone, the first form g_0 of each run and the form
    g_L after it.  One that fails raises InternalError.  (Where the cycle
    closes inside the run, at g_i, the first reduced form, tested when the
    walk met it, stands for g_L.)  The forms strictly inside the run are
    then reduced as well.  Its m_i has second difference 2c < 0, so the
    least of m_0 ... m_L is at an end, and is positive; n_i = m_{i-1} is
    positive; and m_i + n_i + k_i = c < 0.  Where g and R(A^2(g)) are both
    reduced, 2 is the digit of g, as xi_plus(R(A^e(g))) = 1 / (e - xi_plus(g))
    is above 1 only for e = ceil(xi_plus(g)).  So a wrong run length cannot
    slip a form into the cycle: a run too long ends on a form that is not
    reduced, and one too short is followed by more 2s.
    """
    m, n, k = f
    r = isqrt(k * k - 4 * m * n)
    forms = []
    digits = []
    start = -1
    while True:
        c = m + n + k  # not 0: the discriminant is not a square
        # the 2s from here: floor((sqrt(d) + k + 2m) / (-2c)), from r
        num = r + k + 2 * m
        run = num // (-2 * c) if c < 0 else -(num // (2 * c)) - 1
        if is_reduced(m, n, k):
            g = _new_form(Form, (m, n, k))
            if start < 0:
                start, first = len(digits), g
            elif g == first:
                return tuple(forms), tuple(digits), start
            forms.append(g)
            if run > 0:
                # m_0 ... m_run: sums of the differences m_1 - m_0 + 2ci
                ms = list(accumulate(accumulate(repeat(2 * c, run - 1),
                                                initial=m - n + 2 * c),
                                     initial=m))
                inner = ms[1:run]
                inside = list(map(_new_form, repeat(Form), zip(
                    inner, ms, map(c.__sub__, map(add, inner, ms)))))
                if first in inside:  # the cycle closes inside the run
                    stop = inside.index(first)
                    forms += inside[:stop]
                    digits += [2] * (stop + 1)
                    return tuple(forms), tuple(digits), start
                forms += inside
                digits += [2] * run
                m, n = ms[run], ms[run - 1]
                k = c - m - n
                continue
        elif start >= 0:
            raise InternalError(
                f"minus CF of {f} left the reduced set: {Form(m, n, k)}")
        elif run > 0:
            if c < 0:  # the run's first reduced form is its form floor(y') + 2
                entry = (k + 2 * m - r - 1) // (-2 * c) + 2
                if 0 < entry < run:
                    run = entry
            d0 = m - n + 2 * c
            digits += [2] * run
            m, n = (m + run * (d0 + c * (run - 1)),
                    m + (run - 1) * (d0 + c * (run - 2)))
            k = c - m - n
            continue
        # ceiling of the irrational (-k + sqrt(d))/q, from r = floor(sqrt(d))
        q = 2 * m
        b = (r - k) // q + 1 if q > 0 else -((r - k) // -q)
        digits.append(b)
        m, n, k = n + b * (k + b * m), m, -k - b * q


def _state_form(p: int, q: int, q_prev: int) -> Form:
    """The form whose xi_plus is (p + sqrt(d)) / q: the inverse of the state
    (-k, 2m) of a form; regular walks from such a state keep 2q | d - p**2.

    ``q_prev`` is the Q of a state that the regular walk steps from into
    (p, q).  As Q_{j-1} * Q_j is d - P_j**2, the middle coefficient
    (p**2 - d) / (2q) is -q_prev / 2; every state stepping into (p, q) has
    the same Q.
    """
    return Form(q // 2, -q_prev // 2, -p)


def _check_word(s: Tuple[int, ...]) -> None:
    if not s or any((not isinstance(a, int)) or a < 1 for a in s):
        raise ValueError(f"period digits must be positive integers: {s}")


def is_primitive_period(s: Tuple[int, ...]) -> bool:
    """True iff s is not a repetition of a shorter word."""
    s = tuple(s)
    n = len(s)
    if n == 0:
        return False
    dbl = s + s
    return not any(n % d == 0 and dbl[d:d + n] == s for d in range(1, n))


def cf_surd(f: Form) -> CFExpansion:
    """Regular continued fraction of xi_plus(f) = (-k + sqrt(delta)) / (2m).

    For square discriminants the root is rational and the finite canonical
    expansion is returned.  Requires m != 0 (route m = 0 forms through R).
    """
    d = require_indefinite(f)
    if f.m == 0:
        raise ValueError(f"form {f} has m=0; apply R first")
    if is_square(d):
        num, den = -f.k + isqrt(d), 2 * f.m
        if den < 0:
            num, den = -num, -den
        return cf_rational(num, den)
    _, digits, start = _regular_walk(-f.k, 2 * f.m, d)
    return CFExpansion(digits[:start], digits[start:])


def _require_nonsquare(f: Form) -> int:
    """The discriminant of f, which must be positive and not a square; so
    m != 0, as m = 0 gives delta = k**2."""
    d = require_indefinite(f)
    if is_square(d):
        raise SquareDiscriminantError(f"form {f} has square discriminant {d}")
    return d


def period_of_class(f: Form) -> Tuple[int, ...]:
    """The periodic part of cf_surd(f); requires a non-square discriminant."""
    _require_nonsquare(f)
    return cf_surd(f).period


def modular_cf_surd(f: Form) -> ModularCF:
    """Minus continued fraction of xi_plus(f); non-square delta, m != 0.

    Digits after the first are always >= 2; the expansion of the root of a
    reduced form is purely periodic.
    """
    _require_nonsquare(f)
    _, digits, start = _minus_walk(f)
    return ModularCF(digits[:start], digits[start:])


def cf_period_to_modular_period(pi: Tuple[int, ...]) -> Tuple[int, ...]:
    """Rewrite an even-length regular period as a minus-CF period.

    Odd positions (1-indexed) map to a+2; each even-position digit a becomes
    a-1 copies of 2.  The input must be aligned so that position 1 carries an
    A-run; the output then equals, up to rotation, the minus-CF period of
    the class's reduced cycle.  No rotation is distinguished: the cycle of
    ``reduction.reduced_cycle`` starts wherever its input enters it.
    """
    pi = tuple(pi)
    if len(pi) % 2 != 0:
        raise ValueError(f"period length must be even, got {len(pi)} (double it first)")
    _check_word(pi)
    out = []
    for i, a in enumerate(pi):
        if i % 2 == 0:  # 1-indexed odd position
            out.append(a + 2)
        else:
            out.extend([2] * (a - 1))
    return tuple(out)


def period_to_forms(s: Tuple[int, ...]) -> Tuple[Form, Form]:
    """The antipodal pair of primitive forms whose classes realize period s.

    s must be a primitive cyclic word of positive integers; the first form has
    xi_plus equal to the purely periodic value [[s]] > 1.
    """
    s = tuple(s)
    _check_word(s)
    if not is_primitive_period(s):
        raise ValueError(f"period {s} is not primitive")
    p, pp, q, qq = 1, 0, 0, 1
    for a in s:
        p, pp, q, qq = a * p + pp, p, a * q + qq, q
    m, nn, k = q, -pp, qq - p
    g = gcd(gcd(abs(m), abs(nn)), abs(k))
    f = Form(m // g, nn // g, k // g)
    return f, antipodal(f)

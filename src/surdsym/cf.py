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
1981), and ends where the walk returns to that form.  It takes each run of
2s in one stride and returns (digit, count) runs with the reduced form
that starts each period run; the forms inside a run follow from that one
by a closed form (``_along_run``), and are built only by the reader that
asks for them (``reduction.CycleForms``).  Neither walk stores a state
table, and each raises InternalError if it has not closed within a step
bound taken from its input (``_step_bound``), and ValueError if its period
runs past a cap taken from the discriminant (``_walk_cap``) where that bound
is larger.

The regular walk is two loops, ``_preperiod_walk`` up to the first reduced
state and ``_period_walk`` round the cycle from it, and each caller asks
for the half it needs; ``_minus_walk`` is the one walk of the other
recurrence.  Every form that reduction and the H0 tour take from the
regular walk is a ``_state_form``, read off a state and the Q of the state
before it, with no squaring or division.  The preperiod loop keeps its
last ``_WALK_MEMO_SIZE`` walks, so the calls that answer one form query
(classify, reduce to H0, reduced cycle) walk the form's preperiod once:
reduce_to_H0 reads the preperiod of conjugate(f) off f's and walks at most
three digits of its own, and the reduced representative steps once past
the first reduced state itself.  Of these only classify walks the period,
so the period loop keeps no memo.  The results are tuples, which no caller
can change.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat, starmap
from math import gcd
from typing import NamedTuple, Tuple

from .exact import is_square, isqrt
from .forms import Form, InternalError, antipodal, is_reduced, require_indefinite

# tuple.__new__(Form, (m, n, k)) builds a Form without a Python-level call.
_new_form = tuple.__new__


class SquareDiscriminantError(ValueError):
    """Raised where a non-square discriminant is required."""


class CFExpansion(NamedTuple):
    """A regular continued fraction: finite ``preperiod`` then cyclic ``period``.

    Finite (rational) expansions have an empty period.
    """

    preperiod: Tuple[int, ...]
    period: Tuple[int, ...]

    @property
    def is_finite(self) -> bool:
        return not self.period


class ModularCF(NamedTuple):
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


State = Tuple[int, int]
Walk = Tuple[Tuple[State, ...], Tuple[int, ...]]
Run = Tuple[int, int]
MinusWalk = Tuple[Tuple[Run, ...], Tuple[Form, ...], int]

# Walks kept by _preperiod_walk.  A form query holds f's preperiod, which
# classify, reduce_to_H0 and the reduced representative each read, across
# one other: reduce_to_H0's tail of at most three digits, or conjugate(f)'s
# whole preperiod where f's is too short to read it off.
_WALK_MEMO_SIZE = 2

# The most steps, states or runs, that the period loops of _period_walk and
# _minus_walk take for a discriminant of at most 64 bits; fewer for a larger
# one (``_walk_cap``).  The principal cycles of 80 primes D = 1 mod 120 just
# above 10**12 have up to 2,769,425 states, and 50 of them more than 10**6;
# a walk of 2.77 * 10**6 states there peaks at about 450 MB.
WALK_CAP = 4 * 10 ** 6


@lru_cache(maxsize=_WALK_MEMO_SIZE)
def _preperiod_walk(p: int, q: int, d: int) -> Walk:
    """Regular continued fraction of (p + sqrt(d)) / q, d > 0 non-square and
    q | (d - p**2), until it reaches its first reduced state.

    Returns (states, digits): ``states[j]`` is the state (P_j, Q_j) and
    ``digits[j]`` the floor of its value; the states run up to and
    including the first reduced state, ``states[-1]``, and the digits are
    the preperiod's, one fewer.  A state is reduced when its value xi
    satisfies xi > 1 and -1 < xi' < 0, that is 0 < P <= r and
    r - P < Q <= r + P with r = isqrt(d); by Galois' theorem its expansion
    is then purely periodic, and the first reduced state is the period's
    first (``_period_walk``).  The state after (P_j, Q_j) has
    Q_{j+1} * Q_j = d - P_{j+1}**2, so that, with a_j the digit,
    Q_{j+1} = Q_{j-1} + a_j * (P_j - P_{j+1}) and only Q_{-1} takes a
    division.  A walk that has not reached a reduced state within
    ``_step_bound`` iterations raises InternalError.
    """
    r = isqrt(d)
    q_prev = (d - p * p) // q
    states = []
    digits = []
    for _ in range(_step_bound(d, p, q)):
        states.append((p, q))
        if 0 < p <= r and r - p < q <= r + p:
            return tuple(states), tuple(digits)
        # floor((p + sqrt(d))/q) from r = floor(sqrt(d)); d is not a square
        a = (p + r) // q if q > 0 else -((p + r) // -q) - 1
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
    raise InternalError(f"regular CF of a surd with radicand {d} did not "
                        "reach a reduced state within its step bound")


def _period_walk(p: int, q: int, d: int) -> Walk:
    """The period of the regular continued fraction of the reduced
    (p + sqrt(d)) / q, d > 0 non-square and q | (d - p**2), as
    (states, digits): the cycle of states from (p, q) until it returns to
    it, and the floor of each.  A state that is not reduced raises
    InternalError, as does a cycle that has not closed within
    ``_step_bound`` iterations; one that has not closed within
    ``_walk_cap``, where that is fewer, raises ValueError.  Every state of
    the cycle is reduced, so Q > 0 and the digit takes one floor division
    with no sign branch; the step is ``_preperiod_walk``'s.
    """
    r = isqrt(d)
    if not (0 < p <= r and r - p < q <= r + p):
        raise InternalError(f"state {(p, q)} of {d} is not on a cycle")
    first = p, q
    q_prev = (d - p * p) // q
    states = []
    digits = []
    bound, cap = _step_bound(d, p, q), _walk_cap(d)
    for _ in range(min(bound, cap)):
        states.append((p, q))
        a = (p + r) // q
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
        if (p, q) == first:
            return tuple(states), tuple(digits)
    if bound > cap:
        raise ValueError(f"the regular period of radicand {d} is longer than "
                         f"the cap of {cap} states")
    raise InternalError(f"regular CF of a surd with radicand {d} did not "
                        "close within its step bound")


def _walk_cap(d: int) -> int:
    """Period steps a walk of discriminant d may take: WALK_CAP, scaled down
    past 64 bits by d's size, as each state the walk keeps holds numbers of
    about half d's bits, so that a period too long to hold in memory raises
    ValueError before the memory runs out."""
    return WALK_CAP * 64 // max(64, d.bit_length())


def _step_bound(d: int, *coeffs: int) -> int:
    """Loop iterations a walk of discriminant d > 0 from the given
    coefficients may take before it must have closed.  Its period has at
    most one iteration per reduced state or form of d, fewer than 2d, and
    its preperiod O(log max|coeff|) digits or runs, as the denominators of
    the convergents grow at least like the Fibonacci numbers (at most 2
    per bit on the test grid and the benchmark's query forms)."""
    return 2 * d + 64 * max(map(abs, coeffs)).bit_length()


def _along_run(m: int, n: int, c: int, i: int) -> Tuple[int, int]:
    """(m_i, n_i) of the i-th form of the run of 2s from (m, n, c - m - n).

    A step with digit 2 keeps c = m + n + k and gives m' = 2m - n + 2c and
    n' = m, so m_i = m + i * d0 + c * i * (i - 1) with d0 = m - n + 2c, and
    n_i = m_{i-1}; i = 0 gives (m, n) back."""
    d0 = m - n + 2 * c
    return m + i * (d0 + c * (i - 1)), m + (i - 1) * (d0 + c * (i - 2))


def _index_in_run(m: int, n: int, c: int, run: int, h: Form) -> int:
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
        if not rest and 0 < i < run and _along_run(m, n, c, i)[1] == h.n:
            return i
    return 0


def _minus_walk(f: Form) -> MinusWalk:
    """Minus continued fraction of xi_plus(f), walked on forms, for a
    non-square discriminant, as runs.

    Each step takes the form g to R(A^b(g)), b the ceiling of xi_plus(g).
    Returns (runs, firsts, start).  ``runs`` are (digit, count) pairs, the
    digits of every step from f on in order: a run of 2s is one pair, and
    every other digit a pair with count 1.  The period ``runs[start:]``
    starts at the first reduced form and ends when the walk returns to it;
    ``firsts[i]`` is the reduced form that starts ``runs[start + i]``.  No
    other form is built: the forms inside a run follow from its first by
    ``_along_run``, and the preperiod's not at all.

    A run of 2s is taken in one stride.  The digit is 2 exactly while
    1 < xi_plus < 2, and each step lowers y = 1 / (xi_plus - 1) =
    (sqrt(d) + k + 2m) / (-2c) by one, so a run from g holds floor(y) 2s;
    the walk jumps to the form after it by ``_along_run``.  The walk closes
    at the first reduced form: at the start of a run or single step by
    comparing coefficients, and inside a run, as c is fixed along it, by
    ``_index_in_run``, one O(1) test.  In the preperiod the run is cut
    short if the first reduced form lies inside it: y' = (k + 2m - sqrt(d))
    / (-2c), read at the other root xi_minus, falls by one per step as
    well, and with c < 0 the run's i-th form is reduced exactly when
    y' - i < -1, that is when xi_minus has entered (0, 1); with c > 0 no
    form of the run is.

    The period has a loop of its own.  There every form is reduced, so
    c < 0 and 2m > 0, and the run length and the single digit each take
    one floor division with no sign branch.  ``is_reduced`` tests every
    form the walk stops at: each form it steps from alone, the first form
    g_0 of each run and the form g_L after it.  One that fails raises
    InternalError.  (Where the cycle closes inside the run, at g_i, the
    first reduced form, tested when the walk met it, stands for g_L.)  The
    forms strictly inside the run are then reduced as well.  Its m_i has
    second difference 2c < 0, so the least of m_0 ... m_L is at an end, and
    is positive; n_i = m_{i-1} is positive; and m_i + n_i + k_i = c < 0.
    Where g and R(A^2(g)) are both reduced, 2 is the digit of g, as
    xi_plus(R(A^e(g))) = 1 / (e - xi_plus(g)) is above 1 only for
    e = ceil(xi_plus(g)).  So a wrong run length cannot slip a form into
    the cycle: a run too long ends on a form that is not reduced, and one
    too short is followed by more 2s.  A walk that has not closed within
    ``_step_bound`` iterations, preperiod and period together, raises
    InternalError; a period that has not closed within ``_walk_cap`` runs,
    where that is fewer, raises ValueError.
    """
    m, n, k = f
    d = k * k - 4 * m * n
    r = isqrt(d)
    runs = []
    bound = _step_bound(d, m, n, k)
    for steps in range(bound):
        if is_reduced(m, n, k):
            break
        c = m + n + k  # not 0: the discriminant is not a square
        # the 2s from here: floor((sqrt(d) + k + 2m) / (-2c)), from r
        num = r + k + 2 * m
        run = num // (-2 * c) if c < 0 else -(num // (2 * c)) - 1
        if run > 0:
            if c < 0:
                # the run's first reduced form is its form floor(y') + 2
                entry = (k + 2 * m - r - 1) // (-2 * c) + 2
                if 0 < entry < run:
                    run = entry
            runs.append((2, run))
            m, n = _along_run(m, n, c, run)
            k = c - m - n
            continue
        # ceiling of the irrational (-k + sqrt(d))/q, from r = floor(sqrt(d))
        q = 2 * m
        b = (r - k) // q + 1 if q > 0 else -((r - k) // -q)
        runs.append((b, 1))
        m, n, k = n + b * (k + b * m), m, -k - b * q
    else:
        raise InternalError(
            f"minus CF of {f} did not close within its step bound")
    start = len(runs)
    first = _new_form(Form, (m, n, k))
    m0, n0, k0 = first
    first_c = m + n + k
    firsts = []  # plain tuples, made Forms in one pass once the cycle closes
    cap = _walk_cap(d)
    for _ in range(min(bound - steps, cap)):
        firsts.append((m, n, k))
        c = m + n + k
        run = (r + k + 2 * m) // (-2 * c)
        if run > 0:
            if c == first_c:
                i = _index_in_run(m, n, c, run, first)
                if i:  # the cycle closes inside the run
                    runs.append((2, i))
                    break
            runs.append((2, run))
            # _along_run(m, n, c, run), written out
            d0 = m - n + 2 * c
            m, n = (m + run * (d0 + c * (run - 1)),
                    m + (run - 1) * (d0 + c * (run - 2)))
            k = c - m - n
        else:
            b = (r - k) // (2 * m) + 1
            runs.append((b, 1))
            m, n, k = n + b * (k + b * m), m, -k - 2 * b * m
        if not is_reduced(m, n, k):
            raise InternalError(
                f"minus CF of {f} left the reduced set: {Form(m, n, k)}")
        if m == m0 and n == n0 and k == k0:
            break
    else:
        if bound - steps > cap:
            raise ValueError(f"the minus period of {f} is longer than the "
                             f"cap of {cap} runs")
        raise InternalError(
            f"minus CF of {f} did not close within its step bound")
    return tuple(runs), tuple(map(_new_form, repeat(Form), firsts)), start


# The most minus-CF digits that ``modular_cf_surd``,
# ``reduction.reduce_classical`` and ``reduction.ReducedCycle.modular_period``
# expand into a tuple.  A run of 2s is as long as the coefficients are large,
# not as their logarithm: (R A^-2)^M (1, 1, -3) has M - 1 of them in its
# preperiod, and the class of regular period (1, M) M - 1 in its period.
DIGIT_CAP = 10 ** 6


def _digits(runs: Tuple[Run, ...]) -> Tuple[int, ...]:
    """The digits of (digit, count) runs, each run expanded."""
    return tuple(chain.from_iterable(starmap(repeat, runs)))


def _require_digit_cap(f: Form, runs: Tuple[Run, ...]) -> None:
    """Raise ValueError if the runs, taken from the minus walk of f, hold
    more than DIGIT_CAP digits; nothing is expanded to count them."""
    count = sum(c for _, c in runs)
    if count > DIGIT_CAP:
        raise ValueError(f"the minus continued fraction of {f} has {count} "
                         f"digits to expand, more than the cap of {DIGIT_CAP}")


def _run_form(g: Form, i: int) -> Form:
    """The i-th form of the run of 2s from g, by ``_along_run``."""
    m, n, k = g
    c = m + n + k
    m, n = _along_run(m, n, c, i)
    return _new_form(Form, (m, n, c - m - n))


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


def _find_word(word: Tuple[int, ...], text: Tuple[int, ...]) -> int:
    """Index of the first occurrence of ``word`` in ``text``, or -1, by one
    ``bytes.find`` or ``str.find`` with one byte or character per digit:
    the digit itself if all lie in 0 ... 255, else ``chr`` of its rank
    among the distinct digits of both (so at most 1,114,111 of them)."""
    try:
        return bytes(text).find(bytes(word))
    except ValueError:
        code = {a: chr(i) for i, a in enumerate(set(word + text))}.__getitem__
        return "".join(map(code, text)).find("".join(map(code, word)))


def _least_period(s: Tuple[int, ...]) -> int:
    """The least p > 0 such that rotating the non-empty cyclic word s by p
    gives s back; p divides len(s), and s is its first p digits repeated."""
    return _find_word(s, s[1:] + s) + 1


def is_primitive_period(s: Tuple[int, ...]) -> bool:
    """True iff s is not a repetition of a shorter word."""
    s = tuple(s)
    return bool(s) and _least_period(s) == len(s)


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
    states, preperiod = _preperiod_walk(-f.k, 2 * f.m, d)
    return CFExpansion(preperiod, _period_walk(*states[-1], d)[1])


def _require_nonsquare(f: Form) -> int:
    """The discriminant of f, which must be positive and not a square; so
    m != 0, as m = 0 gives delta = k**2."""
    d = require_indefinite(f)
    if is_square(d):
        raise SquareDiscriminantError(f"form {f} has square discriminant {d}")
    return d


def modular_cf_surd(f: Form) -> ModularCF:
    """Minus continued fraction of xi_plus(f); non-square delta, m != 0.

    Digits after the first are always >= 2; the expansion of the root of a
    reduced form is purely periodic.  More than DIGIT_CAP digits in all
    raise ValueError.
    """
    _require_nonsquare(f)
    runs, _, start = _minus_walk(f)
    _require_digit_cap(f, runs)
    return ModularCF(_digits(runs[:start]), _digits(runs[start:]))


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

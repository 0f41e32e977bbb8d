"""Continued fractions: rational, regular surd, and minus ("modular") variants.

The regular expansion of a quadratic surd runs on the integer state (P, Q)
with fixed radicand D: the current complete quotient is (P + sqrt(D)) / Q
and every update keeps the invariant Q | (D - P**2).  Its period starts at
the first reduced state, whose value xi has xi > 1 and -1 < xi' < 0 (by
Galois' theorem, exactly the purely periodic expansions), and ends where
the walk returns to that state.  The minus expansion of xi_plus(f) runs on
the integer state (P, Q, M) = (-k, 2m, 2n) of the form g whose xi_plus is
the complete quotient (P + sqrt(D)) / Q, M = (P**2 - D) / Q: each digit b
moves g to R(A^b(g)), P' = bQ - P, Q' = M + b(P' - P) and M' = Q, the
regular step with the sign of P - P' flipped and no division.  Its period
starts at the first reduced state, that of a reduced form, as the minus CF
of a quadratic irrational xi is purely periodic exactly when
xi > 1 > xi' > 0 (Zagier, Zetafunktionen und quadratische Koerper, 1981),
and ends where the walk returns to that state.  It takes each run of 2s in
one stride and returns (digit, count) runs with the period's first state,
as a plain (P, Q, M) triple, and keeps no other state: a reader that asks
for a form replays the period's runs from that state once, to the state
that starts each run (``_run_starts``), the states inside a run follow
from that one by a closed form (``_along_run``), and the reader builds
the form (``_state_form``, ``reduction.CycleForms``).  Neither walk stores a state table or
builds a per-step object that no caller reads, and each raises
InternalError if it has not closed within a step bound taken from its
input (``_step_bound``), and ValueError if its period runs past a cap
taken from the discriminant (``_walk_cap``) where that bound is larger.

The regular walk is two loops, ``_preperiod_walk`` up to the first reduced
state and ``_period_walk`` round the cycle from it, and each caller asks
for the half it needs; ``_minus_walk`` is the one walk of the other
recurrence.  Every form that reduction and the H0 tour take from the
regular walk is a ``_state_form``, read off a state and the Q of the state
before it, with no squaring or division.  Each walk takes r = isqrt(D) from
its caller, so that an entry point (``cf_surd``, ``modular_cf_surd``,
``periods.classify_class``, ``reduction.reduce_to_H0``,
``reduction.reduced_cycle``) checks D and takes its root once.  The preperiod loop keeps its last ``_WALK_MEMO_SIZE``
walks, so the calls that answer one form query (classify, reduce to H0,
reduced cycle) walk the form's preperiod once: reduce_to_H0 reads the
preperiod of conjugate(f) off f's and walks at most three digits of its
own, and the reduced representative steps once past the first reduced
state itself.  Of these only classify walks the period, so the period loop
keeps no memo.  Both loops return the states' P and Q as two tuples of
ints, not a pair per state, with the digits.  The results are tuples,
which no caller can change.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat, starmap
from math import gcd, isqrt
from typing import NamedTuple, Tuple

from .forms import Form, InternalError, antipodal, require_indefinite

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


# (ps, qs, digits): the P and the Q of each state, and the digits.
Walk = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
Run = Tuple[int, int]
# (runs, first, start): first is the minus walk's state (P, Q, M) =
# (-k, 2m, 2n) of the period's first reduced form, not a Form.
MinusWalk = Tuple[Tuple[Run, ...], Tuple[int, int, int], int]

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
def _preperiod_walk(p: int, q: int, d: int, r: int) -> Walk:
    """Regular continued fraction of (p + sqrt(d)) / q, d > 0 non-square,
    r = isqrt(d) and q | (d - p**2), until it reaches its first reduced
    state.

    Returns (ps, qs, digits): (``ps[j]``, ``qs[j]``) is the state
    (P_j, Q_j) and ``digits[j]`` the floor of its value; the states run up
    to and including the first reduced state, (``ps[-1]``, ``qs[-1]``), and
    the digits are the preperiod's, one fewer.  A state is reduced when its
    value xi satisfies xi > 1 and -1 < xi' < 0, that is 0 < P <= r and
    r - P < Q <= r + P with r = isqrt(d); by Galois' theorem its expansion
    is then purely periodic, and the first reduced state is the period's
    first (``_period_walk``).  The state after (P_j, Q_j) has
    Q_{j+1} * Q_j = d - P_{j+1}**2, so that, with a_j the digit,
    Q_{j+1} = Q_{j-1} + a_j * (P_j - P_{j+1}) and only Q_{-1} takes a
    division.  A walk that has not reached a reduced state within
    ``_step_bound`` iterations raises InternalError.
    """
    q_prev = (d - p * p) // q
    ps = []
    qs = []
    digits = []
    for _ in range(_step_bound(d, p, q)):
        ps.append(p)
        qs.append(q)
        if 0 < p <= r and r - p < q <= r + p:
            return tuple(ps), tuple(qs), tuple(digits)
        # floor((p + sqrt(d))/q) from r = floor(sqrt(d)); d is not a square
        a = (p + r) // q if q > 0 else -((p + r) // -q) - 1
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
    raise InternalError(f"regular CF of a surd with radicand {d} did not "
                        "reach a reduced state within its step bound")


def _period_walk(p: int, q: int, d: int, r: int) -> Walk:
    """The period of the regular continued fraction of the reduced
    (p + sqrt(d)) / q, d > 0 non-square, r = isqrt(d) and q | (d - p**2), as
    (ps, qs, digits): the P and the Q of each state of the cycle from
    (p, q) until it returns to it, and the floor of each.  A state that is
    not reduced raises InternalError, as does a cycle that has not closed
    within ``_step_bound`` iterations; one that has not closed within
    ``_walk_cap``, where that is fewer, raises ValueError.  Every state of
    the cycle is reduced, so Q > 0 and the digit takes one floor division
    with no sign branch; the step is ``_preperiod_walk``'s.
    """
    if not (0 < p <= r and r - p < q <= r + p):
        raise InternalError(f"state {(p, q)} of {d} is not on a cycle")
    p0, q0 = p, q
    q_prev = (d - p * p) // q
    ps = []
    qs = []
    digits = []
    bound, cap = _step_bound(d, p, q), _walk_cap(d)
    for _ in range(min(bound, cap)):
        ps.append(p)
        qs.append(q)
        a = (p + r) // q
        digits.append(a)
        p_next = a * q - p
        p, q, q_prev = p_next, q_prev + a * (p - p_next), q
        if p == p0 and q == q0:
            return tuple(ps), tuple(qs), tuple(digits)
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


def _along_run(p: int, q: int, q_prev: int, i: int) -> Tuple[int, int, int]:
    """The minus walk's state i steps into the run of 2s from the state
    (p, q, q_prev); i = 0 gives it back.

    A step with digit 2 keeps E = 2P - Q - M (-2c, with c = m + n + k)
    and lowers eta = 1 / (xi - 1) = (sqrt(d) + Q - P) / E by one, so that
    t_i = Q_i - P_i is t_0 - i * E.  As eta is also Q / (sqrt(d) - t),
    Q_i = (d - t_i**2) / E, and Q_i - Q_0 = (t_0 - t_i)(t_0 + t_i) / E =
    i * (t_0 + t_i) takes no division; then P_i = Q_i - t_i and
    M_i = 2P_i - Q_i - E = Q_i - E - 2t_i."""
    e = 2 * p - q - q_prev
    t = q - p - i * e
    q_i = q + i * (q - p + t)
    return q_i - t, q_i, q_i - e - 2 * t


def _run_starts(first: Tuple[int, int, int], runs: Tuple[Run, ...]
                ) -> Tuple[Tuple[int, int, int], ...]:
    """The minus walk's state (P, Q, M) that starts each of the period's
    runs, replayed from the period's first state ``first`` as
    ``_minus_walk`` returns them: a single digit b by P' = bQ - P,
    Q' = M + b(P' - P), M' = Q, and a run of 2s by ``_along_run``.  The
    replay must end on ``first``, where the period closes; if it does not,
    the runs are not first's period, and it raises InternalError."""
    starts = []
    p, q, q_prev = first
    for b, count in runs:
        starts.append((p, q, q_prev))
        if b == 2:
            p, q, q_prev = _along_run(p, q, q_prev, count)
        else:
            p_next = b * q - p
            p, q, q_prev = p_next, q_prev + b * (p_next - p), q
    if (p, q, q_prev) != first:
        raise InternalError(f"the minus period runs from state {first} end "
                            f"on {(p, q, q_prev)}, not where they started")
    return tuple(starts)


def _index_in_run(g: Tuple[int, int, int], run: int,
                  h: Tuple[int, int, int]) -> int:
    """The i with 0 < i < run at which the run of 2s from the minus walk's
    state g passes the state h, or 0 if it does not.  Along the run t =
    Q - P falls by E per step (``_along_run``), so h can only be at
    i = (t_g - t_h) / E, one O(1) test; it is there when the state there
    is h."""
    p, q, q_prev = g
    i, rest = divmod(q - p - h[1] + h[0], 2 * p - q - q_prev)
    if not rest and 0 < i < run and _along_run(p, q, q_prev, i) == h:
        return i
    return 0


def _is_reduced_state(p: int, q: int, q_prev: int) -> bool:
    """The minus walk's state (P, Q, M) = (-k, 2m, 2n) is that of a reduced
    form (``forms.is_reduced``): Q > 0, M > 0 and Q + M < 2P."""
    return q > 0 and q_prev > 0 and q + q_prev < 2 * p


def _minus_walk(f: Form, d: int, r: int) -> MinusWalk:
    """Minus continued fraction of xi_plus(f) = (-k + sqrt(d)) / (2m), for
    the discriminant d of f, not a square, and r = isqrt(d), as runs.

    The walk runs on the integer state (P, Q, M) = (-k, 2m, 2n) of the
    form g whose xi_plus is the complete quotient (P + sqrt(d)) / Q; M is
    (P**2 - d) / Q, the Q of any state that steps into it.  The step is
    xi -> 1 / (b - xi) with b the ceiling of xi, which takes g to
    R(A^b(g)): P' = bQ - P, Q' = M + b(P' - P) and M' = Q, the regular
    walk's division-free step with the sign of P - P' flipped.  Returns
    (runs, first, start).  ``runs`` are (digit, count) pairs, the digits
    of every step from f on in order: a run of 2s is one pair, and every
    other digit a pair with count 1.  The period ``runs[start:]`` starts at
    the first reduced state and ends when the walk returns to it; ``first``
    is that state (P, Q, M), which the reader makes a Form
    (``_state_form``).  No other state is kept: the state that starts each
    period run follows from ``first`` by replaying the runs
    (``_run_starts``), those inside a run from its start by
    ``_along_run``, and the preperiod's not at all.

    A run of 2s is taken in one stride.  The digit is 2 exactly while
    1 < xi < 2, and each step lowers eta = 1 / (xi - 1) = (sqrt(d) + Q - P)
    / E by one, where E = 2P - Q - M (-2c, with c = m + n + k) is fixed
    along the run; so a run from g holds L = floor(eta) = (Q - P + r) // E
    2s, and the walk jumps to the state after it by ``_along_run``: with
    t = Q - P - L * E, Q_L = Q + L(Q - P + t), P_L = Q_L - t and
    M_L = Q_L - E - 2t.  The walk closes at the first reduced state: at the
    start of a run or single step by comparing states, and inside a run, as
    E is fixed along it, by ``_index_in_run``, one O(1) test.  In the
    preperiod the run is cut short if the first reduced state lies inside
    it: eta' = (Q - P - sqrt(d)) / E, read at the other root xi_minus,
    falls by one per step as well, and with E > 0 the run's i-th state is
    reduced exactly when eta' - i < -1, that is when xi_minus has entered
    (0, 1); with E < 0 no state of the run is.

    The period has a loop of its own.  There every state is reduced, so
    E > 0 and Q > 0, and the digit and the run length each take one floor
    division with no sign branch.  The digit comes first: on a reduced
    state xi > 1, so the digit is 2 exactly when xi < 2, that is when the
    run is not empty, and E and the run length are found only then.
    ``_is_reduced_state`` tests every state the walk stops at: each state
    it steps from alone, the first state g_0 of each run and the state g_L
    after it.  One that fails raises InternalError.  (Where the cycle
    closes inside the run, at g_i, the first reduced state, tested when the
    walk met it, stands for g_L.)  The states strictly inside the run are
    then reduced as well.  Its Q_i has second difference -2E < 0, so the
    least of Q_0 ... Q_L is at an end, and is positive; M_i = Q_{i-1} is
    positive; and Q_i + M_i - 2P_i = -E < 0.  Where g and R(A^2(g)) are
    both reduced, 2 is the digit of g, as xi_plus(R(A^e(g))) =
    1 / (e - xi_plus(g)) is above 1 only for e = ceil(xi_plus(g)).  So a
    wrong run length cannot slip a state into the cycle: a run too long
    ends on a state that is not reduced, and one too short is followed by
    more 2s.  A walk that has not closed within ``_step_bound``
    iterations, preperiod and period together, raises InternalError; a
    period that has not closed within ``_walk_cap`` runs, where that is
    fewer, raises ValueError.
    """
    p, q, q_prev = -f.k, 2 * f.m, 2 * f.n
    runs = []
    bound = _step_bound(d, *f)
    for steps in range(bound):
        if _is_reduced_state(p, q, q_prev):
            break
        e = 2 * p - q - q_prev  # not 0: the discriminant is not a square
        # the 2s from here: floor((sqrt(d) + Q - P) / E), from r
        num = q - p + r
        run = num // e if e > 0 else -(num // -e) - 1
        if run > 0:
            if e > 0:
                # the run's first reduced state is its state floor(eta') + 2
                entry = (q - p - r - 1) // e + 2
                if 0 < entry < run:
                    run = entry
            runs.append((2, run))
            p, q, q_prev = _along_run(p, q, q_prev, run)
            continue
        # ceiling of the irrational (P + sqrt(d))/Q, from r = floor(sqrt(d))
        b = (p + r) // q + 1 if q > 0 else -((p + r) // -q)
        runs.append((b, 1))
        p_next = b * q - p
        p, q, q_prev = p_next, q_prev + b * (p_next - p), q
    else:
        raise InternalError(
            f"minus CF of {f} did not close within its step bound")
    start = len(runs)
    first = p, q, q_prev
    p0, q0, e0 = p, q, 2 * p - q - q_prev
    cap = _walk_cap(d)
    for _ in range(min(bound - steps, cap)):
        b = (p + r) // q + 1
        if b == 2:
            e = 2 * p - q - q_prev
            run = (q - p + r) // e
            if e == e0:
                i = _index_in_run((p, q, q_prev), run, first)
                if i:  # the cycle closes inside the run
                    runs.append((2, i))
                    break
            runs.append((2, run))
            # _along_run(p, q, q_prev, run), written out
            t = q - p - run * e
            q = q + run * (q - p + t)
            p, q_prev = q - t, q - e - 2 * t
        else:
            runs.append((b, 1))
            p_next = b * q - p
            p, q, q_prev = p_next, q_prev + b * (p_next - p), q
        if not _is_reduced_state(p, q, q_prev):
            raise InternalError(f"minus CF of {f} left the reduced set: "
                                f"{_state_form(p, q, -q_prev)}")
        if p == p0 and q == q0:  # P and Q fix M = (P**2 - d) / Q
            break
    else:
        if bound - steps > cap:
            raise ValueError(f"the minus period of {f} is longer than the "
                             f"cap of {cap} runs")
        raise InternalError(
            f"minus CF of {f} did not close within its step bound")
    return tuple(runs), first, start


# The most minus-CF digits that ``modular_cf_surd`` and
# ``reduction.ReducedCycle.modular_period`` expand into a tuple.  A run of 2s is as long as the coefficients are large,
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


def _run_form(g: Tuple[int, int, int], i: int) -> Form:
    """The form of the minus walk's state i steps into the run of 2s from
    the state g, by ``_along_run``."""
    p, q, m = _along_run(*g, i)
    return _state_form(p, q, -m)


def _state_form(p: int, q: int, q_prev: int) -> Form:
    """The form whose xi_plus is (p + sqrt(d)) / q: the inverse of the state
    (-k, 2m) of a form; regular walks from such a state keep 2q | d - p**2.

    ``q_prev`` is the Q of a state that the regular walk steps from into
    (p, q).  As Q_{j-1} * Q_j is d - P_j**2, the middle coefficient
    (p**2 - d) / (2q) is -q_prev / 2; every state stepping into (p, q) has
    the same Q.  The minus walk's state (P, Q, M) carries M = -q_prev, so
    its form is ``_state_form(P, Q, -M)``.
    """
    return _new_form(Form, (q // 2, -q_prev // 2, -p))


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
    r = isqrt(d)
    if r * r == d:
        num, den = -f.k + r, 2 * f.m
        if den < 0:
            num, den = -num, -den
        return cf_rational(num, den)
    ps, qs, preperiod = _preperiod_walk(-f.k, 2 * f.m, d, r)
    return CFExpansion(preperiod, _period_walk(ps[-1], qs[-1], d, r)[2])


def _require_nonsquare(f: Form) -> Tuple[int, int]:
    """(d, isqrt(d)) for the discriminant d of f, which must be positive and
    not a square; so m != 0, as m = 0 gives delta = k**2."""
    d = require_indefinite(f)
    r = isqrt(d)
    if r * r == d:
        raise SquareDiscriminantError(f"form {f} has square discriminant {d}")
    return d, r


def modular_cf_surd(f: Form) -> ModularCF:
    """Minus continued fraction of xi_plus(f); non-square delta, m != 0.

    Digits after the first are always >= 2; the expansion of the root of a
    reduced form is purely periodic.  More than DIGIT_CAP digits in all
    raise ValueError.
    """
    runs, _, start = _minus_walk(f, *_require_nonsquare(f))
    _require_digit_cap(f, runs)
    return ModularCF(_digits(runs[:start]), _digits(runs[start:]))


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

"""Seeded inputs for the form_queries workload, and their expected answers.

Every query is a form whose answer is known by construction.  A period word
of a chosen symmetry type is built directly (palindromes, pairs of odd
palindromes, or random words), its type is confirmed by a brute-force check
over all reflections of the cyclic word, and the purely periodic form with
that period is disguised by a random word in the generators A, B and R until
its coefficients have 100-400 bits.  Square-discriminant queries take a form
(m, 0, k) and disguise it the same way; their type comes from a congruence on
m and k.

The mix is not free to choose.  Types are drawn with the shares they have
among all classes of the census to delta 2*10^4 (TYPE_SHARES).  Period
digits and the disguise's A/B exponents follow the Gauss-Kuzmin law
P(a >= j) = log2(1 + 1/j), the law of the partial quotients of almost every
real (Khinchin, "Continued Fractions", 1964, section 15), cut at A_MAX.
README.md records how both compare with the census.

This module does not import surdsym: the expected answers must not come from
the code under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, log2
from typing import List, Optional, Tuple

TYPES = ("super", "m+n", "k", "anti", "asymm")

# Classes of each type in `surdsym table --delta-max 20000` (67,291 classes;
# test_type_shares_match_the_census recounts them).
TYPE_SHARES = {"super": 6275, "m+n": 1362, "k": 39710, "anti": 3716, "asymm": 16228}

# Period lengths per type.  Odd types have odd lengths, the others even ones;
# every length-2 word is k-symmetric, so m+n and asymm start at 4.
LENGTHS = {
    "super": range(3, 96, 2),
    "anti": range(3, 96, 2),
    "k": range(2, 97, 2),
    "m+n": range(4, 97, 2),
    "asymm": range(4, 97, 2),
}
# Partial quotients above A_MAX, a share log2(1 + 1/(A_MAX + 1)) = 0.14% of
# Gauss-Kuzmin draws, are cut.  Under the law's 1/j tail the p99 of a few
# thousand queries swings with the seed; README.md gives the figures.
A_MAX = 1000
BITS = (100, 370)          # target coefficient size; the last step may add ~30 bits
MAX_BITS = 400
PERIOD_MAX_BITS = 330      # longer words are redrawn, so that the disguise fits
MIN_EXTRA_BITS = 30        # the disguise always adds at least this much
MAX_STEPS = 2000
SQUARE_K = range(3, 201)   # k = sqrt(delta) of square-discriminant queries
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Query:
    """One generated form and what a correct answer must say about it."""

    form: Tuple[int, int, int]
    symmetry: str
    period: Tuple[int, ...]                       # empty for square queries
    t_up: int                                     # non-square only
    square_rep: Optional[Tuple[int, int, int]]    # (m, 0, k) for square queries

    @property
    def square(self) -> bool:
        return self.square_rep is not None


def is_primitive_word(w: Tuple[int, ...]) -> bool:
    """True iff no rotation by a proper divisor of len(w) fixes w."""
    n = len(w)
    return not any(n % d == 0 and w[d:] + w[:d] == w for d in range(1, n))


def reflection_type(w: Tuple[int, ...]) -> Optional[str]:
    """Symmetry type of a cyclic word, by trying every reflection i -> c - i.

    For even length a reflection with even c fixes two letters (the word is a
    product of two odd palindromes: type k) and one with odd c fixes none (an
    even palindrome: type m+n).  For odd length every reflection fixes one
    letter.  Returns None for non-primitive words, or when both even-length
    reflection kinds occur (which only a non-primitive word allows).
    """
    n = len(w)
    if n == 0 or not is_primitive_word(w):
        return None
    kinds = set()
    for c in range(n):
        if all(w[i] == w[(c - i) % n] for i in range(n)):
            kinds.add(c % 2)
    if n % 2:
        return "super" if kinds else "anti"
    if len(kinds) == 2:
        return None
    if not kinds:
        return "asymm"
    return "k" if 0 in kinds else "m+n"


def gauss_kuzmin(rng: random.Random) -> int:
    """A partial quotient a in [1, A_MAX] with P(a >= j) proportional to
    log2(1 + 1/j) - log2(1 + 1/(A_MAX + 1)), by inverting that tail."""
    low = log2(1 + 1 / (A_MAX + 1))
    u = low + (1 - low) * rng.random()
    return min(A_MAX, int(1 / (2 ** u - 1)))


def _digits(rng: random.Random, count: int) -> Tuple[int, ...]:
    return tuple(gauss_kuzmin(rng) for _ in range(count))


def _palindrome(rng: random.Random, length: int) -> Tuple[int, ...]:
    half = _digits(rng, length // 2)
    middle = _digits(rng, length % 2)
    return half + middle + half[::-1]


def draw_word(rng: random.Random, sym: str) -> Tuple[int, ...]:
    """A primitive period word whose brute-force type is ``sym`` and whose
    purely periodic form has at most PERIOD_MAX_BITS-bit coefficients."""
    lengths = LENGTHS[sym]
    for _ in range(MAX_DRAWS):
        n = rng.choice(lengths)
        if sym in ("super", "m+n"):
            w = _palindrome(rng, n)
        elif sym == "k":
            a = rng.randrange(1, n, 2)
            w = _palindrome(rng, a) + _palindrome(rng, n - a)
        else:
            w = _digits(rng, n)
        if (reflection_type(w) == sym
                and _bits(period_form(w)) <= PERIOD_MAX_BITS):
            return w
    raise RuntimeError(f"no {sym} word after {MAX_DRAWS} draws")


def period_form(w: Tuple[int, ...]) -> Tuple[int, int, int]:
    """The primitive form whose first root is the purely periodic [[w]] > 1.

    With p/q, pp/qq the last two convergents of w, the root x satisfies
    x = (p x + pp) / (q x + qq), i.e. q x^2 + (qq - p) x - pp = 0.
    """
    p, pp, q, qq = 1, 0, 0, 1
    for a in w:
        p, pp, q, qq = a * p + pp, p, a * q + qq, q
    m, n, k = q, -pp, qq - p
    g = gcd(gcd(m, n), k)
    return m // g, n // g, k // g


def _bits(f: Tuple[int, int, int]) -> int:
    return max(abs(c) for c in f).bit_length()


def _apply(f: Tuple[int, int, int], gen: str, e: int) -> Tuple[int, int, int]:
    m, n, k = f
    if gen == "A":
        return m, n + e * k + e * e * m, k + 2 * e * m
    if gen == "B":
        return m + e * k + e * e * n, n, k + 2 * e * n
    return n, m, -k  # R


def disguise(rng: random.Random, f: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Move f within its class by a random A/B/R word to 100-400-bit
    coefficients, at least MIN_EXTRA_BITS more than f has."""
    target = max(rng.randint(*BITS), _bits(f) + MIN_EXTRA_BITS)
    gen = rng.choice("AB")
    for _ in range(MAX_STEPS):
        if _bits(f) >= target:
            break
        if rng.random() < 0.25:
            f = _apply(f, "R", 1)
        f = _apply(f, gen, gauss_kuzmin(rng))
        gen = "B" if gen == "A" else "A"
    if not BITS[0] <= _bits(f) <= MAX_BITS:
        raise RuntimeError(f"disguised form has {_bits(f)}-bit coefficients")
    return f


def t_up_of(w: Tuple[int, ...]) -> int:
    """t_up of the class with period w: the even-position digits of the
    even-length period (w, or w twice when len(w) is odd), counted from 1."""
    pi = w if len(w) % 2 == 0 else w + w
    return sum(pi[1::2])


def non_square_query(rng: random.Random, sym: str) -> Query:
    w = draw_word(rng, sym)
    return Query(disguise(rng, period_form(w)), sym, w, t_up_of(w), None)


def square_type(m: int, k: int) -> str:
    """Symmetry type of the square-discriminant class of (m, 0, k), 0 <= m < k.

    The type is read off the expansion of k/m, so m and k are first divided by
    their gcd.  With k/m = [a_0, ..., a_n] and p_{n-1} the numerator of the
    last-but-one convergent, p_{n-1} m = (-1)^n (mod k), and the reversed
    expansion is k/p_{n-1}.  So an expansion of even length is a palindrome
    iff m^2 = -1 (mod k) (type m+n), and one of odd length iff m^2 = 1 (mod k)
    (type k); the even-length test comes first.  m = 0 or 2m = k is super.
    """
    if m == 0 or 2 * m == k:
        return "super"
    g = gcd(m, k)
    m, k = m // g, k // g
    if (m * m + 1) % k == 0:
        return "m+n"
    if (m * m - 1) % k == 0:
        return "k"
    return "asymm"


def square_query(rng: random.Random) -> Query:
    while True:
        k = rng.choice(SQUARE_K)
        m = rng.randrange(1, k)
        if gcd(m, k) == 1:
            return Query(disguise(rng, (m, 0, k)), square_type(m, k), (), 0,
                         (m, 0, k))


def make_queries(seed: int, count: int, square_every: int,
                 part: int = 0) -> List[Query]:
    """``count`` queries from ``seed``: each block of ``square_every``
    consecutive queries holds exactly one square-discriminant query, at a
    seeded position; the others draw their type with TYPE_SHARES.  Each
    ``part`` is another independent set for the same seed."""
    rng = random.Random(f"{seed}/{part}")
    out = []
    for start in range(0, count, square_every):
        size = min(square_every, count - start)
        square_at = rng.randrange(size)
        for i in range(size):
            if i == square_at:
                out.append(square_query(rng))
            else:
                sym, = rng.choices(TYPES, [TYPE_SHARES[t] for t in TYPES])
                out.append(non_square_query(rng, sym))
    return out


def is_rotation(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    dbl = b + b
    return any(dbl[i:i + n] == a for i in range(n))


def check_answer(q: Query, answer: list) -> Optional[str]:
    """None if ``answer`` (as reported by the query runner) is right for q,
    else a description of what is wrong."""
    if q.square:
        _, sym, m, n, k = answer
        if (m, n, k) != q.square_rep:
            return f"representative {(m, n, k)} != {q.square_rep}"
        if sym != q.symmetry:
            return f"symmetry {sym} != {q.symmetry}"
        return None
    gamma, sym, t_up, cycle_len, hm, hn, hk = answer
    if not is_rotation(tuple(gamma), q.period):
        return f"period {gamma} is not a rotation of {list(q.period)}"
    if sym != q.symmetry:
        return f"symmetry {sym} != {q.symmetry}"
    if t_up != q.t_up or cycle_len != q.t_up:
        return f"t_up {t_up}, reduced cycle {cycle_len}, expected {q.t_up}"
    m, n, k = q.form
    if hm * hn > 0 or hk * hk - 4 * hm * hn != k * k - 4 * m * n:
        return f"reduce_to_H0 gave {(hm, hn, hk)}"
    return None

"""Cyclic-word analysis: symmetry types, representative counts, class reports.

A class of forms with non-square discriminant is described by the cyclic word
of its continued-fraction period; its symmetry type is determined by which
dihedral symmetries the doubled word (run structure) admits.  A class of
square discriminant k**2 is brought to its representative (m, 0, k),
0 <= m < k, and every fact about it (type, t, t_up, t_down, the word shown)
is read off one Euclidean expansion of k/m and its twin of the other length.
"""
from __future__ import annotations

import enum
from math import gcd
from typing import NamedTuple, Optional, Tuple

from .cf import (_check_word, _find_word, _least_period, cf_rational,
                 cf_surd, is_primitive_period)
from .exact import is_square, isqrt
from .forms import (Form, InternalError, discriminant, is_primitive,
                    require_indefinite)


class SymmetryType(enum.Enum):
    ASYMMETRIC = "asymm"
    K_SYMMETRIC = "k"
    M_PLUS_N_SYMMETRIC = "m+n"
    ANTISYMMETRIC = "anti"
    SUPERSYMMETRIC = "super"

    @property
    def code(self) -> str:
        return self.value


class ClassificationError(InternalError):
    """A period matched two supposedly exclusive symmetry patterns."""


def canonical_rotation(s: Tuple[int, ...]) -> Tuple[int, ...]:
    """Lexicographically least rotation of s, by Booth's algorithm (Booth,
    Lexicographically least circular substrings, 1980) in O(len(s)): a
    failure function over s + s, as in Knuth-Morris-Pratt, relative to the
    least rotation found so far, which starts at ``k``."""
    s = tuple(s)
    n = len(s)
    dbl = s + s
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        a = dbl[j]
        i = fail[j - k - 1]
        while i != -1 and a != dbl[k + i + 1]:
            if a < dbl[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and a != dbl[k]:  # then k + i + 1 == k
            if a < dbl[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return dbl[k:k + n]


def _reflection_kinds(s: Tuple[int, ...], p: int) -> Tuple[bool, bool]:
    """(palindromic, bipalindromic) from the reflections of the cyclic word.

    A reflection is a c with s[j] == s[(c - j) mod n] for all j; the rotation
    of s[::-1] starting at n - 1 - c equals s exactly then.  A rotation
    starting at i is its own reversal iff c = 2i + n - 1 is a reflection, and
    it splits into palindromes of odd lengths L and n - L iff c = 2i + L - 1
    is one.  So for odd n every reflection is palindromic; for even n odd c
    are palindromic and even c bipalindromic.

    Two reflections compose to a rotation by their difference, so a
    primitive word has at most one, found by one linear search of s in
    s[::-1] * 2.  A word s = u * (n / p), with u primitive of length
    p = _least_period(s) (n for a primitive word), has the reflections c + jp
    of u's one reflection c: of c's parity alone when p is even, of both
    when p is odd and n even.
    """
    n = len(s)
    root = s[:p]
    o = _find_word(root, root[::-1] * 2)  # c = p - 1 - o
    if o < 0:
        return False, False
    if n % 2:
        return True, False
    if p % 2:
        return True, True
    return o % 2 == 0, o % 2 == 1


def is_palindromic_cyclic(s: Tuple[int, ...]) -> bool:
    """True iff some rotation of s reads the same forwards and backwards."""
    s = tuple(s)
    return bool(s) and _reflection_kinds(s, _least_period(s))[0]


def is_bipalindromic(s: Tuple[int, ...]) -> bool:
    """True iff some rotation splits into two odd-length plain palindromes."""
    s = tuple(s)
    return bool(s) and _reflection_kinds(s, _least_period(s))[1]


def classify_period(s: Tuple[int, ...]) -> SymmetryType:
    """Symmetry type of a primitive cyclic period word."""
    s = tuple(s)
    _check_word(s)
    if not is_primitive_period(s):
        raise ValueError(f"period {s} is not primitive")
    return _classify_period(s)


def _classify_period(s: Tuple[int, ...]) -> SymmetryType:
    """``classify_period`` of a word known to be a primitive tuple of
    positive integers, such as a continued-fraction walk's period."""
    pal, bip = _reflection_kinds(s, len(s))
    odd = len(s) % 2 == 1
    if pal and bip:
        # For primitive words the two reflection types exclude each other.
        raise ClassificationError(f"period {s} is both palindromic and bipalindromic")
    if pal:
        return SymmetryType.SUPERSYMMETRIC if odd else SymmetryType.M_PLUS_N_SYMMETRIC
    if bip:
        return SymmetryType.K_SYMMETRIC
    return SymmetryType.ANTISYMMETRIC if odd else SymmetryType.ASYMMETRIC


def _counts_nonsquare(gamma: Tuple[int, ...], odd_start: bool) -> Tuple[int, int, int]:
    """(t, t_up, t_down) for a class with period gamma, a tuple of positive
    integers.  ``odd_start`` tells whether gamma starts at an odd absolute
    digit position of the full expansion, i.e. whether the preperiod before
    it has odd length; odd absolute positions count toward t_up, even ones
    toward t_down.  An odd-length word is doubled, so each digit counts once
    toward t_up and once toward t_down."""
    total = sum(gamma)
    if len(gamma) % 2:
        return 2 * total, total, total
    t_up = sum(gamma[0::2] if odd_start else gamma[1::2])
    return total, t_up, total - t_up


class ClassReport(NamedTuple):
    """Everything the reports print about one class."""

    representative: Form
    delta: int
    gamma: Tuple[int, ...]                 # period word; empty for square delta
    cf_of_k_over_m: Optional[Tuple[int, ...]]  # square delta only, else None
    p_or_l: int                            # period length P, or expansion length L
    t: int
    t_up: int
    t_down: int
    symmetry: SymmetryType
    primitive: bool

    @property
    def square(self) -> bool:
        return self.cf_of_k_over_m is not None

    @property
    def star(self) -> bool:
        return not self.primitive


def normalize_square_form(f: Form) -> Form:
    """The (m, 0, k) representative, 0 <= m < k, of a square-delta class.

    With s = isqrt(delta), f has a primitive zero (b, d): a root
    (-k +- s) / (2m) in lowest terms, or (1, 0) and (-n, k) when m = 0.
    Extended Euclid (a modular inverse) completes it to a det-1 substitution
    (x, y) -> (ax + by, cx + dy), which sends f to (f(a, c), 0, +-s); of the
    two zeros, the one giving +s is used.  B^e then takes m into [0, s).
    O(log max|coeff|) arithmetic steps.
    """
    m, n, k = f.m, f.n, f.k
    d = discriminant(f)
    if d <= 0 or not is_square(d):
        raise ValueError(f"form {f} does not have a positive square discriminant")
    s = isqrt(d)
    zeros = ((1, 0), (-n, k)) if m == 0 else ((-k + s, 2 * m), (-k - s, 2 * m))
    for b, dd in zeros:
        g = gcd(b, dd)
        b, dd = b // g, dd // g
        a = pow(dd, -1, abs(b)) if b else dd  # a*dd - b*c == 1
        c = (a * dd - 1) // b if b else 0
        if 2 * m * a * b + 2 * n * c * dd + k * (a * dd + b * c) == s:
            return Form((m * a * a + n * c * c + k * a * c) % s, 0, s)
    raise InternalError(f"no zero of {f} gives an (m,0,{s}) form")


def _square_report(rep: Form) -> ClassReport:
    """Report for the square-delta class of its representative (m, 0, k),
    0 <= m < k, read off the Euclidean expansion of k/m and its twin of
    the other length, [..., a] = [..., a - 1, 1]; for 0 < m < k the last
    digit a is at least 2.  The even-length word gives t_up and t_down
    (its digits at odd and at even positions, less one each) and the
    m+n type; the odd-length word the k type.  The palindromic word is
    shown, or the twin when neither is.  Content is a class invariant, so
    the class is primitive iff gcd(m, k) == 1."""
    m, k = rep.m, rep.k
    primitive = gcd(m, k) == 1
    if m == 0:
        return ClassReport(rep, k * k, (), (), 0, 0, 0, 0,
                           SymmetryType.SUPERSYMMETRIC, primitive)
    canon = cf_rational(k, m).preperiod
    twin = canon[:-1] + (canon[-1] - 1, 1)
    even, odd = (twin, canon) if len(canon) % 2 else (canon, twin)
    t_up, t_down = sum(even[0::2]) - 1, sum(even[1::2]) - 1
    if 2 * m == k:
        sym = SymmetryType.SUPERSYMMETRIC
    elif even == even[::-1]:
        sym = SymmetryType.M_PLUS_N_SYMMETRIC
    elif odd == odd[::-1]:
        sym = SymmetryType.K_SYMMETRIC
    else:
        sym = SymmetryType.ASYMMETRIC
    shown = canon if canon == canon[::-1] else twin
    return ClassReport(rep, k * k, (), shown, len(shown), t_up + t_down + 1,
                       t_up, t_down, sym, primitive)


def classify_square(m: int, k: int) -> SymmetryType:
    """Symmetry type of the square-discriminant class of (m, 0, k)."""
    if k == 0:
        raise ValueError("k must be non-zero")
    if not 0 <= m < abs(k):
        raise ValueError(f"need 0 <= m < |k|, got m={m}, k={k}")
    return _square_report(Form(m, 0, abs(k))).symmetry


def classify_class(f: Form) -> ClassReport:
    """Full report for the class of f.  Non-square delta requires no search;
    square delta is first normalized to its (m, 0, k) representative."""
    d = require_indefinite(f)
    if is_square(d):
        return _square_report(normalize_square_form(f))
    exp = cf_surd(f)
    gamma = exp.period
    t, t_up, t_down = _counts_nonsquare(gamma, len(exp.preperiod) % 2 == 1)
    return ClassReport(f, d, gamma, None, len(gamma), t, t_up, t_down,
                       _classify_period(gamma), is_primitive(f))

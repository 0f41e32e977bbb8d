"""Indefinite binary quadratic forms, generator actions, and domain tests.

A form ``Form(m, n, k)`` stands for m*x**2 + n*y**2 + k*x*y, with
discriminant k**2 - 4*m*n > 0.  Its roots xi_plus, xi_minus =
(-k +- sqrt(delta)) / (2m) are never computed: the domain of a form follows
from the signs of m, n, k and f(+-1) = m + n +- k.
"""
from __future__ import annotations

import enum
from math import gcd
from typing import Iterable, NamedTuple, Tuple


class InternalError(RuntimeError):
    """An invariant the code relies on failed; indicates a bug, not bad input."""


class Form(NamedTuple):
    """Immutable; compares, sorts, hashes and pickles as (m, n, k)."""

    m: int
    n: int
    k: int

    def coeffs(self) -> Tuple[int, int, int]:
        return (self.m, self.n, self.k)

    def max_abs(self) -> int:
        return max(abs(self.m), abs(self.n), abs(self.k))

    def __repr__(self) -> str:
        return f"({self.m},{self.n},{self.k})"


class DomainLabel(enum.Enum):
    H0 = "H0"
    H0R = "H0R"
    HA = "HA"
    HABAR = "HAbar"
    HB = "HB"
    HBBAR = "HBbar"
    BOUNDARY = "Boundary"
    OUTER = "Outer"


#: Run-length-encoded word in the generators: a sequence of (gen, exponent)
#: pairs with positive exponents, e.g. (("A", 2), ("B", 1), ("R", 1)).
GeneratorWord = Tuple[Tuple[str, int], ...]

INVOLUTION_NAMES = ("complementary", "conjugate", "adjoint", "antipodal", "opposite")


def is_reduced(m: int, n: int, k: int) -> bool:
    """The form (m, n, k) is reduced: m > 0, n > 0, k < 0 and m + n < |k|,
    exactly; that is xi_plus > 1 > xi_minus > 0, the forms whose minus
    continued fraction is purely periodic."""
    return m > 0 and n > 0 and m + n < -k  # k < 0 follows from m + n > 0


def discriminant(f: Form) -> int:
    return f.k * f.k - 4 * f.m * f.n


def require_indefinite(f: Form) -> int:
    """The discriminant of f, which must be positive."""
    d = discriminant(f)
    if d <= 0:
        raise ValueError(f"form {f} is not indefinite (delta={d})")
    return d


def involution(f: Form, which: str) -> Form:
    m, n, k = f.m, f.n, f.k
    if which == "complementary":
        return Form(n, m, -k)
    if which == "conjugate":
        return Form(m, n, -k)
    if which == "adjoint":
        return Form(-n, -m, k)
    if which == "antipodal":
        return Form(-n, -m, -k)
    if which == "opposite":
        return Form(-m, -n, -k)
    raise ValueError(f"unknown involution {which!r}")


def complementary(f: Form) -> Form:
    return involution(f, "complementary")


def conjugate(f: Form) -> Form:
    return involution(f, "conjugate")


def adjoint(f: Form) -> Form:
    return involution(f, "adjoint")


def antipodal(f: Form) -> Form:
    return involution(f, "antipodal")


def gen_power(f: Form, g: str, e: int) -> Form:
    """Apply g**e in closed form; e may be any integer for A and B."""
    m, n, k = f.m, f.n, f.k
    if g == "A":
        return Form(m, n + e * k + e * e * m, k + 2 * e * m)
    if g == "B":
        return Form(m + e * k + e * e * n, n, k + 2 * e * n)
    if g == "R":
        if e % 2 == 0:
            return f
        return Form(n, m, -k)
    if g in ("A-", "B-"):
        return gen_power(f, g[0], -e)
    raise ValueError(f"unknown generator {g!r}")


def apply_word(f: Form, word: Iterable[Tuple[str, int]]) -> Form:
    """Apply an RLE word left factor first: apply_word(f, ((A,2),(B,1))) = B(A(A(f)))."""
    for g, e in word:
        if e < 0:
            raise ValueError(f"word exponent must be positive, got {e}")
        f = gen_power(f, g, e)
    return f


def word_str(word: GeneratorWord) -> str:
    if not word:
        return "(empty)"
    parts = []
    for g, e in word:
        parts.append(g if e == 1 else f"{g}^{e}")
    return " ".join(parts)


def domain_of(f: Form) -> DomainLabel:
    """Classify f into the cylinder-domain partition by integer sign tests.

    The domains are intervals for the roots: HA has xi_plus in (-1, 0) and
    xi_minus < -1, HAbar xi_plus > 1 and xi_minus in (0, 1), HB xi_plus < -1
    and xi_minus in (-1, 0), HBbar xi_plus in (0, 1) and xi_minus > 1.  When
    m and n share a sign, the roots share the sign of -k/m, xi_plus is the
    larger root iff m > 0, and +-1 lies strictly between the roots iff
    f(+-1) = m + n +- k has the sign of -m; a root on +-1 is f(+-1) = 0.
    """
    require_indefinite(f)
    m, n, k = f.m, f.n, f.k
    if m > 0 and n < 0:
        return DomainLabel.H0
    if m < 0 and n > 0:
        return DomainLabel.H0R
    if m == 0 or n == 0 or m + n + k == 0 or m + n - k == 0:
        return DomainLabel.BOUNDARY
    if m > 0:
        if k < 0 and m + n + k < 0:
            return DomainLabel.HABAR
        if k > 0 and m + n - k < 0:
            return DomainLabel.HA
    else:
        if k > 0 and m + n + k > 0:
            return DomainLabel.HBBAR
        if k < 0 and m + n - k > 0:
            return DomainLabel.HB
    return DomainLabel.OUTER


def content(f: Form) -> int:
    """gcd of the coefficients; 0 only for the zero form."""
    return gcd(gcd(abs(f.m), abs(f.n)), abs(f.k))


def is_primitive(f: Form) -> bool:
    return content(f) == 1


def scale(f: Form, s: int) -> Form:
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return Form(s * f.m, s * f.n, s * f.k)

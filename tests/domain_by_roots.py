"""Reference domain test for the suite: exact root comparisons.

``forms.domain_of`` decides a form's domain by integer sign tests.  This
module decides it from the definition instead, by comparing the roots
xi_plus, xi_minus = (-k +- sqrt(delta)) / (2m) with -1, 0 and 1 exactly.
"""

from surdsym.forms import DomainLabel


def sign_u_plus_v_root(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for integers u, v and d >= 0."""
    if d == 0 or v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # Opposite signs: compare u*u against v*v*d; the sign follows the larger.
    uu, vv = u * u, v * v * d
    if uu == vv:
        return 0
    big_is_rational = uu > vv
    if u > 0:  # v < 0
        return 1 if big_is_rational else -1
    return -1 if big_is_rational else 1


def _compare(p: int, q: int, d: int, c: int) -> int:
    """Exact sign of (p + sqrt(d))/q - c for integers q != 0 and c."""
    return sign_u_plus_v_root(p - c * q, 1, d) * (1 if q > 0 else -1)


def domain_by_roots(m: int, n: int, k: int) -> DomainLabel:
    """The domain of (m, n, k), delta > 0, from its roots' positions."""
    d = k * k - 4 * m * n
    if m > 0 and n < 0:
        return DomainLabel.H0
    if m < 0 and n > 0:
        return DomainLabel.H0R
    if m == 0 or n == 0:
        return DomainLabel.BOUNDARY
    # xi_plus = (-k + sqrt(d))/(2m) and xi_minus = (k + sqrt(d))/(-2m)
    cp1, cp0, cpm1 = (_compare(-k, 2 * m, d, c) for c in (1, 0, -1))
    cm1, cm0, cmm1 = (_compare(k, -2 * m, d, c) for c in (1, 0, -1))
    if cp1 == 0 or cpm1 == 0 or cm1 == 0 or cmm1 == 0:
        return DomainLabel.BOUNDARY
    if cpm1 > 0 and cp0 < 0 and cmm1 < 0:
        return DomainLabel.HA
    if cp1 > 0 and cm0 > 0 and cm1 < 0:
        return DomainLabel.HABAR
    if cpm1 < 0 and cmm1 > 0 and cm0 < 0:
        return DomainLabel.HB
    if cp0 > 0 and cp1 < 0 and cm1 > 0:
        return DomainLabel.HBBAR
    return DomainLabel.OUTER

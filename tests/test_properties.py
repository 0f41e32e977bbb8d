"""Property-based suite: randomized exact checks over forms and periods.

Every property runs at least 500 randomized cases with exact assertions
(derandomized so the suite is reproducible).
"""

from hypothesis import assume, given, settings, strategies as st

from cf_helpers import period_of_class
from surdsym.cf import cf_surd, period_to_forms
from surdsym.exact import is_square
from surdsym.forms import (INVOLUTION_NAMES, Form, apply_word, discriminant,
                           gen_power, involution, is_primitive)
from surdsym.periods import (SymmetryType, canonical_rotation, classify_class,
                             classify_period, classify_square,
                             _counts_nonsquare,
                             is_bipalindromic, is_palindromic_cyclic,
                             is_primitive_period, normalize_square_form)
from surdsym.reduction import is_reduced, reduced_cycle, reduced_representative
from test_reduction import h0_word_holds, r_a_steps_close
from test_walk_memo import cold_answers, warm_answers

BASE = settings(max_examples=500, deadline=None, derandomize=True)

SYMMETRIC_TYPES = {SymmetryType.SUPERSYMMETRIC, SymmetryType.ANTISYMMETRIC,
                   SymmetryType.M_PLUS_N_SYMMETRIC}

# Forms drawn straight from H0 (m > 0 > n) are always indefinite.
h0_forms = st.builds(Form,
                     st.integers(min_value=1, max_value=25),
                     st.integers(min_value=-25, max_value=-1),
                     st.integers(min_value=-20, max_value=20))

any_forms = st.builds(Form,
                      st.integers(min_value=-15, max_value=15),
                      st.integers(min_value=-15, max_value=15),
                      st.integers(min_value=-15, max_value=15))

# Words over the five generators, positive exponents.
words = st.lists(st.tuples(st.sampled_from(("A", "B", "R", "A-", "B-")),
                           st.integers(min_value=1, max_value=4)),
                 min_size=0, max_size=6).map(tuple)

period_words = st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=8).map(tuple)


# A/B words with large exponents, to disguise a form up to a coefficient cap.
disguise_words = st.lists(st.tuples(st.sampled_from(("A", "B", "A-", "B-")),
                                    st.integers(min_value=1, max_value=10 ** 6)),
                          min_size=1, max_size=12)

# The same with R steps, for square-discriminant forms.
square_disguise_words = st.lists(
    st.tuples(st.sampled_from(("A", "B", "R", "A-", "B-")),
              st.integers(min_value=1, max_value=10 ** 6)),
    min_size=1, max_size=12)

BIG = 10 ** 30


def nonsquare_h0(f: Form) -> bool:
    return not is_square(discriminant(f))


@BASE
@given(h0_forms)
def test_period_inverse_relation(f):
    """The conjugate class's period is the reversal, up to rotation."""
    assume(nonsquare_h0(f))
    gamma = period_of_class(f)
    gamma_inv = period_of_class(Form(f.m, f.n, -f.k))
    rev = tuple(reversed(gamma))
    assert canonical_rotation(gamma_inv) == canonical_rotation(rev)


@BASE
@given(h0_forms, words)
def test_period_invariant_under_words(f, w):
    """Any generator word fixes the class period (up to rotation)."""
    assume(nonsquare_h0(f))
    g = apply_word(f, w)
    assume(g.m != 0)  # avoid the m=0 reroute; R-images of boundary-ish forms
    base = canonical_rotation(period_of_class(f))
    moved = canonical_rotation(period_of_class(g))
    assert base == moved


@BASE
@given(any_forms, words)
def test_discriminant_invariant_under_words(f, w):
    assert discriminant(apply_word(f, w)) == discriminant(f)


@BASE
@given(any_forms, st.sampled_from(INVOLUTION_NAMES))
def test_discriminant_invariant_under_involutions(f, name):
    assert discriminant(involution(f, name)) == discriminant(f)


@BASE
@given(any_forms, st.sampled_from(("A", "B")), st.integers(-6, 6))
def test_gen_power_closed_form(f, g, e):
    """Closed-form powers equal iterated application for any exponent."""
    expected = f
    step = g if e >= 0 else g + "-"
    for _ in range(abs(e)):
        expected = apply_word(expected, ((step, 1),))
    assert gen_power(f, g, e) == expected


@BASE
@given(period_words)
def test_classification_exclusivity(w):
    """Each primitive word is exactly one of the five symmetry types."""
    assume(is_primitive_period(w))
    sym = classify_period(w)
    pal = is_palindromic_cyclic(w)
    bip = is_bipalindromic(w)
    odd = len(w) % 2 == 1
    assert not (pal and bip)
    if pal:
        assert sym is (SymmetryType.SUPERSYMMETRIC if odd
                       else SymmetryType.M_PLUS_N_SYMMETRIC)
    elif bip:
        assert sym is SymmetryType.K_SYMMETRIC
    elif odd:
        assert sym is SymmetryType.ANTISYMMETRIC
    else:
        assert sym is SymmetryType.ASYMMETRIC


@BASE
@given(st.integers(min_value=-40, max_value=-1), st.integers(-15, 15))
def test_unit_m_classes_are_super_or_k(n, k):
    """Classes of forms (1, n, k) with n < 0 are super- or k-symmetric."""
    f = Form(1, n, k)
    assume(nonsquare_h0(f))
    sym = classify_class(f).symmetry
    assert sym in (SymmetryType.SUPERSYMMETRIC, SymmetryType.K_SYMMETRIC)


@BASE
@given(h0_forms)
def test_symmetric_types_split_counts_evenly(f):
    """Super/anti/(m+n) classes have t_up = t_down = t/2."""
    assume(nonsquare_h0(f))
    r = classify_class(f)
    if r.symmetry in SYMMETRIC_TYPES:
        assert r.t % 2 == 0
        assert r.t_up == r.t_down == r.t // 2
    # no converse: k-symmetric words can split evenly by accident,
    # e.g. (8,14,8,2) has 14+2 == 8+8.


@BASE
@given(st.integers(min_value=2, max_value=60), st.data())
def test_square_symmetric_classes_have_odd_t(k, data):
    """Square-discriminant super and (m+n) classes with m > 0 have odd t."""
    m = data.draw(st.integers(min_value=1, max_value=k - 1))
    r = classify_class(Form(m, 0, k))
    assert r.t == r.t_up + r.t_down + 1
    if r.symmetry in (SymmetryType.SUPERSYMMETRIC, SymmetryType.M_PLUS_N_SYMMETRIC):
        assert r.t % 2 == 1
        assert r.t_up == r.t_down == (r.t - 1) // 2


@BASE
@given(h0_forms)
def test_counts_match_period_sum(f):
    """t is the sum of the doubled-if-odd period; parity fixes the order."""
    assume(nonsquare_h0(f))
    gamma = period_of_class(f)
    t, t_up, t_down = _counts_nonsquare(gamma, True)
    pi = gamma if len(gamma) % 2 == 0 else gamma + gamma
    assert t == sum(pi)
    assert t_up + t_down == t
    r = classify_class(f)
    assert r.t == t
    assert {r.t_up, r.t_down} == {t_up, t_down}


def _disguise(f: Form, word) -> Form:
    """f moved by the longest prefix of word that keeps max |coeff| <= BIG."""
    for step in word:
        g = apply_word(f, (step,))
        if g.max_abs() > BIG:
            break
        f = g
    return f


@settings(max_examples=500, deadline=500, derandomize=True)
@given(period_words, disguise_words)
def test_large_coefficient_reduction(s, word):
    """A period form disguised by A/B words to coefficients up to 10**30
    reduces to a reduced form of its own class, whose period is a rotation
    of the disguised form's; its reduced cycle steps by R A^c and the
    reduce_to_H0 word reaches the form returned.  Each case has a 500 ms
    deadline."""
    assume(is_primitive_period(s))
    f0 = period_to_forms(s)[0]
    f = _disguise(f0, word)
    h = reduced_representative(f)
    assert is_reduced(*h)
    assert h in reduced_cycle(f0).forms
    assert canonical_rotation(cf_surd(f).period) == \
        canonical_rotation(cf_surd(h).period)
    assert r_a_steps_close(reduced_cycle(f))
    assert h0_word_holds(f)


@settings(max_examples=500, deadline=500, derandomize=True)
@given(period_words, disguise_words)
def test_large_coefficient_walk_memo(s, word):
    """classify_class, reduce_to_H0 and reduced_cycle of a form disguised to
    coefficients up to 10**30 give the same answers from a cold cache as in
    query order from a warm one."""
    assume(is_primitive_period(s))
    f = _disguise(period_to_forms(s)[0], word)
    assert warm_answers(f) == cold_answers(f)


@settings(max_examples=500, deadline=500, derandomize=True)
@given(st.integers(min_value=1, max_value=500), st.data(), square_disguise_words)
def test_large_coefficient_square_normal_form(k, data, word):
    """A form (m, 0, k), 0 <= m < k, of any content, disguised by A/B/R words
    to coefficients up to 10**30, normalizes back to (m, 0, k) and keeps its
    symmetry type; each case has a 500 ms deadline."""
    m = data.draw(st.integers(min_value=0, max_value=k - 1))
    f = _disguise(Form(m, 0, k), word)
    assert normalize_square_form(f) == Form(m, 0, k)
    report = classify_class(f)
    assert report.symmetry is classify_square(m, k)
    assert report.primitive == is_primitive(f)

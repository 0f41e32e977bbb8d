"""Unit tests for reduction to the reduced cycle and to H0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import surdsym.cf
import surdsym.forms
from surdsym.cf import (SquareDiscriminantError, modular_cf_surd,
                        period_to_forms)
from surdsym.cli import main
from surdsym.exact import is_square
from surdsym.forms import (Form, InternalError, apply_word, discriminant,
                           domain_of, DomainLabel, gen_power, involution)
from surdsym.periods import SymmetryType, classify_class
from surdsym.reduction import (ReducedCycle, check_sum_rule, is_reduced,
                               reduce_classical, reduce_to_H0,
                               reduced_cycle, reduced_representative)


NONSQUARE_GRID = [f for f in (Form(m, n, k) for m in range(-12, 13)
                               for n in range(-12, 13) for k in range(-25, 26))
                  if discriminant(f) > 0 and not is_square(discriminant(f))]


def r_a_steps_close(cyc: ReducedCycle) -> bool:
    """forms[i+1] == R(A^{c_i}(forms[i])) for every i, cyclically."""
    forms = cyc.forms
    return all(gen_power(gen_power(g, "A", c), "R", 1) == h
               for g, c, h in zip(forms, cyc.modular_period,
                                  forms[1:] + forms[:1]))


def h0_word_holds(f: Form) -> bool:
    """reduce_to_H0's word has positive exponents and sends iota(f) to
    iota(out)."""
    out, word, tag = reduce_to_H0(f)
    if any(e < 1 for _, e in word):
        return False
    if tag == "identity":
        return apply_word(f, word) == out
    return apply_word(involution(f, tag), word) == involution(out, tag)


class TestIsReduced:
    def test_examples(self):
        assert is_reduced(2, 4, -7)
        assert is_reduced(1, 2, -5)
        assert not is_reduced(2, -1, -3)   # n < 0
        assert not is_reduced(2, 1, -2)    # m + n >= -k
        assert not is_reduced(1, 1, 3)     # k > 0
        assert is_reduced is surdsym.forms.is_reduced

    def test_reduced_forms_live_in_habar(self):
        for f in (Form(2, 4, -7), Form(1, 2, -5), Form(4, 2, -7), Form(4, 4, -9)):
            assert is_reduced(*f)
            assert domain_of(f) == DomainLabel.HABAR


class TestReducedRepresentative:
    def test_already_reduced_is_fixed_point(self):
        f = Form(2, 4, -7)
        assert reduced_representative(f) == f

    def test_from_h0(self):
        h = reduced_representative(Form(2, -2, 1))
        assert is_reduced(*h)
        assert discriminant(h) == 17
        assert h == Form(1, 2, -5)

    def test_output_always_reduced(self):
        for f in (Form(2, -1, -3), Form(5, -3, -13), Form(5, 7, 22),
                  Form(3, -11, -2), Form(1, -4, -1), Form(7, -3, -8)):
            h = reduced_representative(f)
            assert is_reduced(*h)
            assert discriminant(h) == discriminant(f)

    def test_square_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            reduced_representative(Form(1, 0, 3))


class TestReducedCycle:
    def test_worked_example(self):
        cyc = reduced_cycle(Form(2, 4, -7))
        assert cyc.forms[0] == Form(2, 4, -7)
        assert len(cyc.forms) == 5
        assert cyc.modular_period == (3, 5, 3, 2, 2)
        assert set(cyc.forms) == {Form(2, 4, -7), Form(1, 2, -5), Form(2, 1, -5),
                                  Form(4, 2, -7), Form(4, 4, -9)}

    def test_all_members_reduced_distinct(self):
        for f in (Form(2, -1, -3), Form(5, -3, -13), Form(3, -11, -2)):
            cyc = reduced_cycle(f)
            assert len(set(cyc.forms)) == len(cyc.forms)
            assert all(is_reduced(*g) for g in cyc.forms)
            assert len(cyc.forms) == len(cyc.modular_period)

    def test_cycle_members_have_pure_modular_cf(self):
        cyc = reduced_cycle(Form(2, -1, -3))
        for g in cyc.forms:
            assert modular_cf_surd(g).is_purely_periodic

    def test_leaving_the_reduced_set_fails_loudly(self, monkeypatch, capsys):
        """A walk whose reducedness test rejects the second of the five
        forms of the cycle of (2, 4, -7) raises InternalError, and
        `surdsym modular 2 4 -7` exits 2."""
        second = reduced_cycle(Form(2, 4, -7)).forms[1]
        monkeypatch.setattr(surdsym.cf, "is_reduced", lambda m, n, k: (
            (m, n, k) != second and surdsym.forms.is_reduced(m, n, k)))
        with pytest.raises(InternalError, match="left the reduced set"):
            reduced_cycle(Form(2, 4, -7))
        assert main(["modular", "2", "4", "-7"]) == 2
        assert "left the reduced set" in capsys.readouterr().err

    def test_cycle_closes_inside_a_run(self):
        """The class of the regular period (1, 9) has the minus period
        (3, 2, 2, 2, 2, 2, 2, 2, 2).  From each member the cycle is the
        rotation that starts there, so from the members after the run's
        first it closes inside the run of 2s, where m takes most values
        twice."""
        f, _ = period_to_forms((1, 9))
        base = reduced_cycle(f)
        assert base.modular_period == (3,) + (2,) * 8
        forms, period = base.forms, base.modular_period
        assert len({g.m for g in forms}) < len(forms)
        for i, g in enumerate(forms):
            assert reduced_cycle(g) == ReducedCycle(
                forms[i:] + forms[:i], period[i:] + period[:i]), g

    def test_leaving_the_reduced_set_after_a_run_fails_loudly(
            self, monkeypatch, capsys):
        """The cycle of (17, 9, -42) has the minus period (3, 2, 2, 2, 5).
        A reducedness test that rejects the form after the run of three 2s,
        the first the walk tests after the run's first, raises
        InternalError, and `surdsym modular 17 9 -42` exits 2."""
        cyc = reduced_cycle(Form(17, 9, -42))
        assert cyc.modular_period == (3, 2, 2, 2, 5)
        after = cyc.forms[4]
        monkeypatch.setattr(surdsym.cf, "is_reduced", lambda m, n, k: (
            (m, n, k) != after and surdsym.forms.is_reduced(m, n, k)))
        with pytest.raises(InternalError, match="left the reduced set"):
            reduced_cycle(Form(17, 9, -42))
        assert main(["modular", "17", "9", "-42"]) == 2
        assert "left the reduced set" in capsys.readouterr().err

    def test_rotation_invariance(self):
        base = reduced_cycle(Form(2, 4, -7))
        other = reduced_cycle(Form(1, 2, -5))
        n = len(base.modular_period)
        assert len(other.modular_period) == n
        assert any(base.modular_period[i:] + base.modular_period[:i]
                   == other.modular_period for i in range(n))
        assert set(base.forms) == set(other.forms)


class TestGeneratorRelationsOnGrid:
    """The forms read off continued-fraction states are the forms the
    generator words reach, on every non-square form with |m|, |n| <= 12 and
    |k| <= 25."""

    def test_reduced_cycle_steps_by_r_a_power(self):
        for f in NONSQUARE_GRID:
            cyc = reduced_cycle(f)
            assert r_a_steps_close(cyc), f
            assert len(set(cyc.forms)) == len(cyc.forms), f

    def test_reduce_to_h0_word(self):
        for f in NONSQUARE_GRID:
            assert h0_word_holds(f), f

    def test_reduce_classical_word(self):
        checked = 0
        for f in NONSQUARE_GRID:
            if f.m > 0 and f.n > 0 and f.k < 0:
                h, word = reduce_classical(f)
                assert apply_word(f, word) == h, f
                checked += 1
        assert checked > 1000


class TestReduceToH0:
    def test_worked_example(self):
        g, word, tag = reduce_to_H0(Form(2, 4, -7))
        assert (g, word, tag) == (Form(2, -2, 1), (("A", 2),), "identity")
        assert apply_word(Form(2, 4, -7), word) == g

    def test_involution_bridge(self):
        g, word, tag = reduce_to_H0(Form(5, 7, 22))
        assert (g, tag) == (Form(5, -1, -18), "conjugate")
        assert discriminant(g) == discriminant(Form(5, 7, 22)) == 344
        assert g.m > 0 > g.n

    def test_identity_when_already_mixed_sign(self):
        f = Form(2, -1, -3)
        assert reduce_to_H0(f) == (f, (), "identity")

    def test_square_rejected(self):
        with pytest.raises(SquareDiscriminantError):
            reduce_to_H0(Form(2, 2, -5))

    def test_long_period_is_not_walked(self):
        """The peel stops at the first reduced state, so the period of a
        278-bit discriminant is never walked.  In a child process, so that a
        walk of the whole period fails by timeout instead of hanging."""
        f = Form(10000000000000000000000000000000000000003,
                 70000000000000000000000000000000000000001,
                 530000000000000000000000000000000000000011)
        src = str(Path(surdsym.cf.__file__).resolve().parents[1])
        code = ("import sys; from surdsym.forms import Form; "
                "from surdsym.reduction import reduce_to_H0; "
                "print(repr(reduce_to_H0(Form(*map(int, sys.argv[1:])))))")
        proc = subprocess.run([sys.executable, "-c", code, *map(str, f)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(reduce_to_H0(f))
        g, word, tag = reduce_to_H0(f)
        assert discriminant(g) == discriminant(f)
        assert discriminant(f).bit_length() == 278
        assert g.m * g.n <= 0 and tag == "conjugate"
        assert h0_word_holds(f)

    def test_always_lands_in_h0(self):
        for f in (Form(2, 4, -7), Form(5, 7, 22), Form(1, 5, -5),
                  Form(3, 3, 7), Form(11, 3, 23), Form(2, 9, -1)):
            if discriminant(f) <= 0:
                continue
            g, word, tag = reduce_to_H0(f)
            assert g.m * g.n <= 0
            assert tag in ("identity", "conjugate", "adjoint", "antipodal")


class TestReduceClassical:
    def test_worked_example(self):
        h, word = reduce_classical(Form(1, 5, -5))
        assert h == Form(1, 1, -3)
        assert word == (("A", 4), ("R", 1))
        assert is_reduced(*h)

    def test_fixed_point(self):
        h, word = reduce_classical(Form(1, 1, -3))
        assert (h, word) == (Form(1, 1, -3), ())

    def test_requires_positive_coefficients(self):
        with pytest.raises(ValueError):
            reduce_classical(Form(2, -1, -3))

    def test_reduces_various(self):
        for f in (Form(1, 5, -5), Form(3, 7, -11), Form(2, 11, -10),
                  Form(5, 11, -15)):
            if discriminant(f) <= 0:
                continue
            h, word = reduce_classical(f)
            assert is_reduced(*h)
            assert discriminant(h) == discriminant(f)


class TestSumRule:
    def test_super_class_holds(self):
        f = Form(2, -1, -3)
        cyc = reduced_cycle(f)
        assert check_sum_rule(cyc, classify_class(f).symmetry) is True
        assert sum(cyc.modular_period) == 3 * len(cyc.modular_period)

    def test_k_class_not_applicable(self):
        # (3, 2) breaks the rule, which does not constrain k classes.
        f = Form(2, -1, 2)
        cyc = reduced_cycle(f)
        sym = classify_class(f).symmetry
        assert sym is SymmetryType.K_SYMMETRIC
        assert cyc.modular_period == (3, 2)
        assert check_sum_rule(cyc, sym) is True
        assert check_sum_rule(cyc, SymmetryType.SUPERSYMMETRIC) is False

    def test_anti_class_holds(self):
        f = Form(7, -3, -8)  # delta 148, antisymmetric
        cyc = reduced_cycle(f)
        sym = classify_class(f).symmetry
        assert sym is SymmetryType.ANTISYMMETRIC
        assert check_sum_rule(cyc, sym) is True

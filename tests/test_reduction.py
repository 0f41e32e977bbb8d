"""Unit tests for reduction to the reduced cycle and to H0."""

import importlib.util
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
from surdsym.forms import (Form, INVOLUTION_NAMES, InternalError, apply_word,
                           discriminant, domain_of, DomainLabel, gen_power,
                           involution)
from surdsym.periods import SymmetryType, classify_class
from surdsym.reduction import (ReducedCycle, check_sum_rule, is_reduced,
                               reduce_classical, reduce_to_H0,
                               reduced_cycle, reduced_representative)


NONSQUARE_GRID = [f for f in (Form(m, n, k) for m in range(-12, 13)
                               for n in range(-12, 13) for k in range(-25, 26))
                  if discriminant(f) > 0 and not is_square(discriminant(f))]


def run_in_child(code: str, *args, timeout: float = 30):
    """Run ``code`` in a fresh interpreter on this checkout's surdsym, with
    ``args`` as sys.argv[1:] and its address space capped at 1 GB, so that
    a walk that hangs fails by timeout or MemoryError and takes no more."""
    src = str(Path(surdsym.cf.__file__).resolve().parents[1])
    cap = ("import resource; "
           "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
    return subprocess.run([sys.executable, "-c", cap + code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


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
            cyc = reduced_cycle(g)
            assert tuple(cyc.forms) == forms[i:] + forms[:i], g
            assert cyc.modular_period == period[i:] + period[:i], g

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

    def test_indexing_matches_the_tuple(self):
        """From every reduced form of the grid, each index of the cycle's
        lazy forms, from -len to len - 1, and slices with steps 1, 2 and -1
        give what the tuple of its iterated forms gives; an index out of
        range raises IndexError.  The sequence compares and hashes as that
        tuple."""
        checked = 0
        for f in NONSQUARE_GRID:
            if not is_reduced(*f):
                continue
            forms = reduced_cycle(f).forms
            whole = tuple(forms)
            n = len(forms)
            assert n == len(whole) and forms[0] == f
            for i in range(-n, n):
                assert forms[i] == whole[i], (f, i)
            for cut in (slice(None), slice(1, None, 2), slice(None, None, -1),
                        slice(-3, n + 5), slice(n, None)):
                assert forms[cut] == whole[cut], (f, cut)
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    forms[i]
            assert forms == whole and hash(forms) == hash(whole)
            checked += n
        assert checked > 20000

    def test_membership_matches_the_tuple(self):
        """On the cycle of each reduced form of the grid, ``in``, ``index``
        and ``count`` of the lazy forms answer as the tuple of its
        iterated forms does, for each of its forms and for every reduced
        form of the grid with the same discriminant; ``index`` honours
        start and stop and raises ValueError for a form not in the cycle."""
        by_delta = {}
        for f in NONSQUARE_GRID:
            if is_reduced(*f):
                by_delta.setdefault(discriminant(f), []).append(f)
        checked, seen = 0, set()
        for f in (f for fs in by_delta.values() for f in fs if f not in seen):
            forms = reduced_cycle(f).forms
            whole = tuple(forms)
            seen.update(whole)
            for h in whole + tuple(by_delta[discriminant(f)]) + ((1, 2), "form"):
                assert (h in forms) == (h in whole), (f, h)
                assert forms.count(h) == whole.count(h), (f, h)
                if h in whole:
                    i = whole.index(h)
                    assert forms.index(h) == i and forms.index(h, i, i + 1) == i
                    with pytest.raises(ValueError):
                        forms.index(h, i + 1)
                else:
                    with pytest.raises(ValueError):
                        forms.index(h)
                checked += 1
        assert checked > 10000

    def test_a_million_forms_are_not_searched(self):
        """On the class of regular period (1, 10**6), membership, ``index``
        and ``count`` of forms at both ends of its run of 999,999 2s come
        back in well under 0.2 s, in a child process with a timeout."""
        f, _ = period_to_forms((1, 10 ** 6))
        code = (
            "import sys, time\n"
            "from surdsym.forms import Form\n"
            "from surdsym.reduction import reduced_cycle\n"
            "forms = reduced_cycle(Form(*map(int, sys.argv[1:]))).forms\n"
            "t = time.perf_counter()\n"
            "assert forms[-1] in forms\n"
            "assert forms.index(forms[-1]) == 10 ** 6 - 1\n"
            "assert forms.count(forms[0]) == 1\n"
            "print(time.perf_counter() - t)\n")
        proc = run_in_child(code, *f)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.2

    def test_a_million_forms_are_not_built(self):
        """The class of the regular period (1, 10**6) has the minus period
        (3,) + (2,) * 999999, two runs.  Its cycle's length and its last
        form come back in well under 0.2 s and about the memory of the
        digits alone, as no form inside the run is built; in a child
        process with a timeout.  The last form steps to the first by R A^2."""
        f, _ = period_to_forms((1, 10 ** 6))
        code = (
            "import resource, sys, time\n"
            "from surdsym.forms import Form\n"
            "from surdsym.reduction import reduced_cycle\n"
            "f = Form(*map(int, sys.argv[1:]))\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "t = time.perf_counter()\n"
            "cycle = reduced_cycle(f)\n"
            "n, last = len(cycle.forms), cycle.forms[-1]\n"
            "t = time.perf_counter() - t\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss\n"
            "assert cycle.modular_period == (3,) + (2,) * (10 ** 6 - 1)\n"
            "print(n, *last, t, rss)\n")
        proc = run_in_child(code, *f)
        assert proc.returncode == 0, proc.stderr
        n, m, nn, k, seconds, kib = proc.stdout.split()
        last = Form(int(m), int(nn), int(k))
        assert int(n) == 10 ** 6
        assert gen_power(gen_power(last, "A", 2), "R", 1) == \
            reduced_representative(f)
        assert float(seconds) < 0.2
        assert int(kib) < 64 * 1024  # a million Forms take over 100 MB

    def test_a_trillion_digits_are_not_expanded(self):
        """The class of the regular period (1, 10**12) has a reduced cycle of
        10**12 forms, two runs of minus-CF digits.  The cycle, its length
        and its sum rule come back in well under 1 s, and reading its
        expanded period raises ValueError naming the count; in a child
        process with a timeout and a 1 GB address-space cap."""
        f, _ = period_to_forms((1, 10 ** 12))
        code = (
            "import sys, time\n"
            "from surdsym.forms import Form\n"
            "from surdsym.periods import SymmetryType, classify_class\n"
            "from surdsym.reduction import check_sum_rule, reduced_cycle\n"
            "f = Form(*map(int, sys.argv[1:]))\n"
            "t = time.perf_counter()\n"
            "cycle = reduced_cycle(f)\n"
            "n = len(cycle.forms)\n"
            "rule = check_sum_rule(cycle, SymmetryType.SUPERSYMMETRIC)\n"
            "t = time.perf_counter() - t\n"
            "assert check_sum_rule(cycle, classify_class(f).symmetry)\n"
            "try:\n"
            "    cycle.modular_period\n"
            "except ValueError as exc:\n"
            "    error = str(exc)\n"
            "print(n, cycle.runs, rule, t)\n"
            "print(error)\n")
        proc = run_in_child(code, *f)
        assert proc.returncode == 0, proc.stderr
        first, error = proc.stdout.splitlines()
        *head, seconds = first.rsplit(" ", 1)
        assert head == [f"{10 ** 12} {((3, 1), (2, 10 ** 12 - 1))} False"]
        assert float(seconds) < 1
        assert f"has {10 ** 12} digits to expand" in error

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
        code = ("import sys; from surdsym.forms import Form; "
                "from surdsym.reduction import reduce_to_H0; "
                "print(repr(reduce_to_H0(Form(*map(int, sys.argv[1:])))))")
        proc = run_in_child(code, *f)
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


# The form_queries benchmark's seeded query forms, read from its generator,
# which does not import surdsym.
_spec = importlib.util.spec_from_file_location(
    "form_queries", Path(__file__).resolve().parents[1] / "benchmarks" / "queries.py")
form_queries = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(form_queries)


class TestFormsLeaveAsForms:
    """The minus walk keeps each run's first form as a plain (m, n, k)
    triple, which prints as (m, n, k) where a Form prints (m,n,k).  Every
    form that reduction hands out is a Form, and the cycle finds each of
    its own forms, on the grid 0 < m, n <= 30, -61 <= k < 0 (the signs
    reduce_classical takes) and on the seeded form_queries forms."""

    WIDE_GRID = [f for f in (Form(m, n, k) for m in range(1, 31)
                             for n in range(1, 31) for k in range(-61, 0))
                 if discriminant(f) > 0 and not is_square(discriminant(f))]
    QUERY_FORMS = [Form(*q.form) for q in form_queries.make_queries(0, 200, 100)
                   if not q.square]

    @staticmethod
    def assert_cycle_is_of_forms(f):
        forms = reduced_cycle(f).forms
        whole = tuple(forms)
        assert all(type(h) is Form for h in whole), f
        for cut in (slice(None), slice(1, None, 2), slice(None, None, -1)):
            assert all(type(h) is Form for h in forms[cut]), (f, cut)
        for i, h in enumerate(whole):
            assert type(forms[i]) is Form, (f, i)
            assert h in forms and forms.index(h) == i, (f, i)
        return whole

    def test_reduce_classical_returns_a_form(self):
        signed = [g for f in self.QUERY_FORMS
                  for g in (f, *(involution(f, w) for w in INVOLUTION_NAMES))
                  if g.m > 0 and g.n > 0 and g.k < 0]
        assert len(self.WIDE_GRID) > 25000 and len(signed) > 100
        for f in self.WIDE_GRID + signed:
            h = reduce_classical(f)[0]
            assert type(h) is Form and repr(h) == "({},{},{})".format(*h), f

    def test_cycle_forms_are_forms_on_the_grid(self):
        seen, members = set(), 0
        for f in self.WIDE_GRID:
            if is_reduced(*f) and f not in seen:
                whole = self.assert_cycle_is_of_forms(f)
                seen.update(whole)
                members += len(whole)
        assert members > 100000

    def test_cycle_forms_are_forms_on_query_forms(self):
        assert len(self.QUERY_FORMS) > 190
        for f in self.QUERY_FORMS:
            self.assert_cycle_is_of_forms(f)


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

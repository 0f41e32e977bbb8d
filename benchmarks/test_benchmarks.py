"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""
import csv
import io
import json
import math
import os
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

import child
import queries
import tracer
from surdsym import forms, periods, reduction
from surdsym.cf import period_to_forms

HERE = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}


class TestQueries:
    def test_same_seed_same_queries(self):
        assert queries.make_queries(7, 200, 100) == queries.make_queries(7, 200, 100)
        assert queries.make_queries(7, 200, 100) != queries.make_queries(8, 200, 100)
        assert queries.make_queries(7, 200, 100) != queries.make_queries(7, 200, 100, 1)

    def test_one_square_per_block(self):
        qs = queries.make_queries(3, 250, 100)
        assert [sum(q.square for q in qs[i:i + 100]) for i in (0, 100, 200)] == [1, 1, 1]

    @pytest.mark.parametrize("word, sym", [
        ((1, 1, 3), "super"), ((4,), "super"), ((1, 2, 2, 1), "m+n"),
        ((1, 2), "k"), ((1, 2, 1, 3), "k"), ((1, 2, 3), "anti"),
        ((2, 1, 1, 3), "asymm"), ((3, 1, 1, 2, 2, 1), "asymm"),
        ((1, 2, 1, 2), None), ((5, 5), None)])
    def test_reflection_type_by_hand(self, word, sym):
        assert queries.reflection_type(word) == sym

    @pytest.mark.parametrize("sym", queries.TYPES)
    def test_construction_agrees_with_classifier(self, sym):
        rng = queries.random.Random(sym)
        for _ in range(40):
            w = queries.draw_word(rng, sym)
            assert queries.reflection_type(w) == sym
            assert periods.classify_period(w).value == sym

    def test_period_form_matches_library(self):
        for w in ((1, 1, 3), (2, 1, 1, 3), (1, 2, 3, 4, 5, 6)):
            assert queries.period_form(w) == period_to_forms(w)[0].coeffs()

    def test_library_answers_pass_the_check(self):
        qs = [q for q in queries.make_queries(11, 60, 100) if not q.square]
        for q in qs:
            answer = child._query(periods, reduction, forms, *q.form)
            assert queries.check_answer(q, answer) is None
        q = qs[0]
        wrong = child._query(periods, reduction, forms, *qs[1].form)
        assert queries.check_answer(q, wrong) is not None

    @pytest.mark.parametrize("m, k", [(2, 5), (3, 8), (4, 15), (2, 7)])
    def test_library_square_answers_pass_the_check(self, m, k):
        # Lightly disguised, so that the square-discriminant search ends.
        form = queries._apply(queries._apply((m, 0, k), "A", 1), "B", 2)
        q = queries.Query(form, queries.square_type(m, k), (), 0, (m, 0, k))
        answer = child._query(periods, reduction, forms, *form)
        assert queries.check_answer(q, answer) is None
        other = "asymm" if q.symmetry != "asymm" else "k"
        assert queries.check_answer(replace(q, symmetry=other), answer) is not None

    def test_square_type_agrees_with_classifier(self):
        for k in range(1, 120):
            for m in range(k):
                assert queries.square_type(m, k) == periods.classify_square(m, k).value

    def test_disguised_sizes_and_every_form_is_moved(self):
        for q in queries.make_queries(5, 300, 100):
            start = q.square_rep or queries.period_form(q.period)
            bits = queries._bits(q.form)
            assert queries.BITS[0] <= bits <= queries.MAX_BITS
            assert bits >= queries._bits(start) + queries.MIN_EXTRA_BITS
            assert q.form != start

    def test_gauss_kuzmin_shares(self):
        rng = queries.random.Random(0)
        draws = [queries.gauss_kuzmin(rng) for _ in range(40000)]
        assert 1 <= min(draws) and max(draws) <= queries.A_MAX
        for j in (1, 2, 10, 100):
            share = sum(a >= j for a in draws) / len(draws)
            assert abs(share - math.log2(1 + 1 / j)) < 0.01


def test_type_shares_match_the_census():
    out = subprocess.run([sys.executable, "-m", "surdsym.cli", "stats",
                          "--delta-max", "20000", "--jobs", "2", "--format", "csv"],
                         env=ENV, capture_output=True, text=True, timeout=300,
                         check=True).stdout
    rows = list(csv.DictReader(io.StringIO(out)))
    column = {"super": "count_super", "m+n": "count_mpn", "k": "count_k",
              "anti": "count_anti", "asymm": "count_asymm"}
    counts = {t: sum(int(r[c]) for r in rows if r["square"] == "0")
              for t, c in column.items()}
    assert counts == queries.TYPE_SHARES


def _spans(rows, names):
    flat = array("d")
    for row in rows:
        flat.extend(row)
    return {"names": names, "flat": flat, "absent": [], "extra": {}}


class TestTracer:
    def test_self_time_excludes_children(self):
        # (name, id, parent, proc, start, end, size)
        spans = _spans([
            (0, 0, -1, 0, 0.0, 10.0, 0),
            (1, 1, 0, 0, 2.0, 5.0, 0),
            (2, 2, 1, 0, 3.0, 4.0, 0),
            (1, 3, 0, 0, 6.0, 6.5, 0),
            (2, 2 ** 40, 0, 1, 1.0, 9.0, 0),   # a worker's span: other process
        ], ["a", "b", "c"])
        assert tracer.self_times(tracer.columns(spans)) == [6.5, 2.0, 1.0, 0.5, 8.0]

    def test_wrap_records_nesting_and_sizes(self):
        t = tracer.Tracer()
        inner = t.wrap(lambda n: list(range(n)), "cf.cf_surd", len)
        outer = t.wrap(lambda: inner(3) + inner(4), "census.census_nonsquare_primitive")
        assert outer() == [0, 1, 2, 0, 1, 2, 3]
        inner(5)
        cols = tracer.columns({"flat": t.flat})
        by_id = dict(zip(cols[tracer.ID], cols[tracer.PARENT]))
        outer_id = next(i for i, n in zip(cols[tracer.ID], cols[tracer.NAME])
                        if t.names[int(n)] == "census.census_nonsquare_primitive")
        assert sorted(by_id.values()) == [-1, -1, outer_id, outer_id]
        m = tracer.layer_metrics({"names": t.names, "flat": t.flat})
        assert m["cf.cf_surd_calls"] == 3 and m["cf.digits"] == 3 + 4 + 5
        assert m["census.crosscheck_s"] < m["cf.cf_surd_s"]

    def test_size_counts(self):
        t = tracer.Tracer()
        enum = t.wrap(lambda: [1, 2, 3], "census._h0_primitive_triples", len)
        enum(), enum()
        m = tracer.layer_metrics({"names": t.names, "flat": t.flat})
        assert m["census.h0_forms"] == 6
        assert m["census.enumerate_s"] >= 0


def _traced_table(tmp_path, jobs):
    spans = tmp_path / f"spans{jobs}.pkl"
    out = subprocess.run([sys.executable, str(HERE / "child.py"), "cli", str(spans),
                          "table", "--delta-max", "300", "--jobs", str(jobs),
                          "--format", "csv"], env=ENV, capture_output=True,
                         timeout=120, check=True)
    return out.stdout, tracer.layer_metrics(tracer.load(str(spans)))


def test_traced_cli_counts_repeat_and_output_unchanged(tmp_path):
    plain = subprocess.run([sys.executable, "-m", "surdsym.cli", "table",
                            "--delta-max", "300", "--format", "csv"], env=ENV,
                           capture_output=True, timeout=120, check=True).stdout
    out1, m1 = _traced_table(tmp_path, 1)
    out2, m2 = _traced_table(tmp_path, 2)
    assert out1 == out2 == plain
    counts = ("census.deltas", "census.h0_forms", "census.classes",
              "cf.cf_surd_calls", "cf.digits", "periods.classify_period_calls")
    assert {c: m1[c] for c in counts} == {c: m2[c] for c in counts}
    rows = plain.count(b"\n") - 1                  # non-square classes
    assert m1["census.classes"] == rows + sum(range(1, 18))  # + k per delta = k*k
    assert m2["census.pool_map_s"] > 0 and m1["census.pool_map_s"] == 0


def _query_loop(tmp_path, qs, deadline_s):
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps({"deadline_s": deadline_s,
                                "forms": [list(q.form) for q in qs]}))
    out = tmp_path / "out.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "queries", str(spec),
                    str(out), "-"], env=ENV, timeout=120, check=True)
    return json.loads(out.read_text())["results"]


def test_query_loop_answers_and_deadlines(tmp_path):
    qs = [q for q in queries.make_queries(2, 100, 100) if not q.square][:3]
    results = _query_loop(tmp_path, qs, 5.0)
    assert [r[0] for r in results] == ["ok"] * 3
    for q, (_, _, answer) in zip(qs, results):
        assert queries.check_answer(q, answer) is None
    results = _query_loop(tmp_path, qs, 1e-5)
    assert [r[0] for r in results] == ["deadline"] * 3


def test_benchmark_json_names_what_run_reports():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


class TestRepeat:
    def test_runs_once_even_without_time(self):
        import run
        calls = []
        run.repeat(0, lambda: calls.append(1))
        assert calls == [1]

    def test_does_not_start_an_operation_it_cannot_finish(self):
        import run
        from time import perf_counter, sleep
        calls = []
        start = perf_counter()
        run.repeat(0.5, lambda: (calls.append(1), sleep(0.05)))
        # Ten calls of 0.05 s fit in 0.5 s; sleep jitter may cost a few.
        assert 5 <= len(calls) <= 10
        assert perf_counter() - start < 0.6


def test_speed_samples_and_scale():
    import run
    assert 0 < run.speed_sample() < 1
    nominal = run.SPEED_NOMINAL_S
    assert run.speed_scale([3 * nominal, 2 * nominal]) == 0.5

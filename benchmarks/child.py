"""The program side of a benchmark run: surdsym running in this process.

    child.py cli SPANS ARGS...
        Traced CLI run: install the tracer, run ``surdsym.cli.main(ARGS)``
        and write the spans to SPANS.  Exits with the CLI's exit code.
    child.py queries IN OUT SPANS
        One pass of single-form queries, one after another, over the forms
        in IN (JSON), each under the deadline IN gives.  Writes to OUT (JSON)
        the pass's wall time and each query's status, latency and answer.
        SPANS is ``-`` for an untraced run.

surdsym is imported from PYTHONPATH, which the benchmark points at ./src.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
from time import perf_counter


class DeadlineMissed(Exception):
    pass


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(spans_path: str, argv: list) -> int:
    import surdsym.cli
    import tracer as tracing

    t = tracing.install()
    cpu_before = _children_cpu_s()  # interpreter start-up may run children
    code = surdsym.cli.main(argv)
    sys.stdout.flush()
    t.dump(spans_path, {"worker_cpu_s": _children_cpu_s() - cpu_before})
    return code


def _query(periods, reduction, forms, m: int, n: int, k: int) -> list:
    """classify_class, then reduce_to_H0 and reduced_cycle for non-square delta."""
    f = forms.Form(m, n, k)
    report = periods.classify_class(f)
    if report.square:
        rep = report.representative
        return [None, report.symmetry.code, rep.m, rep.n, rep.k]
    h, _, _ = reduction.reduce_to_H0(f)
    cycle = reduction.reduced_cycle(f)
    return [list(report.gamma), report.symmetry.code, report.t_up,
            len(cycle.forms), h.m, h.n, h.k]


def run_queries(in_path: str, out_path: str, spans_path: str) -> int:
    import surdsym.forms as forms
    import surdsym.periods as periods
    import surdsym.reduction as reduction

    with open(in_path) as fh:
        spec = json.load(fh)
    deadline = spec["deadline_s"]
    todo = [tuple(f) for f in spec["forms"]]
    t = None
    if spans_path != "-":
        import tracer as tracing
        t = tracing.install()

    # The alarm raises only while a query is running; a query that returns
    # just as the timer fires still counts as a miss (it took the deadline).
    armed = [False]

    def on_alarm(signum, frame):
        if armed[0]:
            armed[0] = False
            raise DeadlineMissed

    signal.signal(signal.SIGALRM, on_alarm)
    results = []
    pass_start = perf_counter()
    for m, n, k in todo:
        t0 = perf_counter()
        try:
            armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, deadline)
            answer = _query(periods, reduction, forms, m, n, k)
            armed[0] = False
            results.append(["ok", perf_counter() - t0, answer])
        except DeadlineMissed:
            results.append(["deadline", perf_counter() - t0, None])
        except Exception as exc:  # a failed query is reported, not fatal
            results.append(["error", perf_counter() - t0,
                            f"{type(exc).__name__}: {exc}"])
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if t is not None:
            t.stack.clear()  # a deadline may have cut a span's bookkeeping
    wall = perf_counter() - pass_start
    with open(out_path, "w") as fh:
        json.dump({"wall_s": wall, "results": results}, fh)
    if t is not None:
        t.dump(spans_path, {})
    return 0


def main(argv: list) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 3:
        return run_cli(argv[1], argv[2:])
    if argv[:1] == ["queries"] and len(argv) == 4:
        return run_queries(argv[1], argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""surdsym benchmark: census sweeps through the CLI, single-form queries
through the library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; surdsym is imported from ./src.  NAME is one of
WORKLOADS, or ``all`` to run each in turn.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured untraced, with timings from the
fastest repeat of the workload's operation, scaled to a nominal machine speed;
with --trace 1 they are the per-layer ones from traced runs.  A human-readable summary, fail_frac
included, goes to stderr.  See README.md for what each workload and metric is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Tuple

import queries
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170          # a run ends within this, even if the program hangs
SETUP_PER_OP = 3           # setup_s (and speed) samples before each sweep or
                           # pass, so that they spread over the whole run

# A fixed pure-Python loop that does not import surdsym.  Its best time in a
# fresh interpreter says how fast the machine runs Python at that moment; the
# machine's speed moves in steps of up to 1.5x.  form_queries timings are
# scaled by it; census sweeps on 2 cores are not (README.md says why).
SPEED_LOOP = """
import time
def loop():
    x = 3
    for i in range(60000):
        x = (x * x + i) % 1000000007
times = []
for _ in range(7):
    t0 = time.perf_counter()
    loop()
    times.append(time.perf_counter() - t0)
print(min(times))
"""
SPEED_NOMINAL_S = 0.005    # SPEED_LOOP's best time on the 2-vCPU VM at its fastest

CENSUS = {
    # name: (sweep arguments, sha256 of its stdout at the seed commit,
    #        arguments of the small sweep run with --jobs 1 and --jobs 2)
    "census_table_parallel": (
        ["table", "--delta-max", "10000", "--jobs", "2", "--format", "csv"],
        "c05b96fe3a1728e787143b2765fb2d77d2d8036c41d57fe2c5d6f58255037a12",
        ["table", "--delta-max", "2000", "--format", "csv"]),
}
QUERY_COUNT = 4000         # forms per pass
SQUARE_EVERY = 100         # one square-discriminant form per 100
DEADLINE_S = 0.1           # per query; far above the non-square p99

WORKLOADS = tuple(CENSUS) + ("form_queries",)

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
}
EXTRA_LAYER_UNITS = {
    "census.worker_cpu_s": "s", "cli.output_bytes": "bytes",
    "periods.deadline_misses": "count", "trace.overhead_s": "s",
}


def layer_units() -> Dict[str, str]:
    units = {m: "s" if m.endswith("_s") else "count" for m in tracer.LAYER_METRICS}
    units.update(EXTRA_LAYER_UNITS)
    return units


@dataclass
class Tally:
    """Operations attempted and failed; wrong outputs also clear ``correct``."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, wrong: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            if note and len(self.notes) < 10:
                self.notes.append(note)


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


class Runner:
    """Starts program processes inside a per-run work directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, argv: List[str], stdout: Optional[Path] = None) -> Child:
        """Run argv to completion; wall time, and the peak RSS of the largest
        single process among it and the children it waited for."""
        timeout = max(1.0, self.deadline - perf_counter())
        with open(stdout or os.devnull, "wb") as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_group(proc.pid)
            err.seek(0)
            msg = err.read().decode(errors="replace")
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, msg)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    start = perf_counter()
    while perf_counter() - start < 10:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        sleep(0.01)


def median(xs: List[float]) -> float:
    return statistics.median(xs)


def p99(xs: List[float]) -> float:
    """Nearest-rank 99th percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def warm_import(runner: Runner) -> None:
    """Import surdsym once, untimed, which also writes the bytecode cache."""
    first = runner.run(["-c", "import surdsym"])
    if first.code != 0:
        raise SystemExit(f"cannot import surdsym from {SRC}:\n{first.stderr}")


def setup_samples(runner: Runner) -> List[float]:
    """Times for a fresh interpreter to import surdsym."""
    return [runner.run(["-c", "import surdsym"]).wall_s for _ in range(SETUP_PER_OP)]


def speed_sample() -> float:
    """SPEED_LOOP's best time in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SPEED_LOOP], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return float(out)


def speed_scale(speed: List[float]) -> float:
    """The factor that takes the run's timings to the machine's nominal speed:
    timings come from the fastest repeat, so speed from the fastest sample."""
    scale = SPEED_NOMINAL_S / min(speed)
    print(f"form_queries: fastest speed sample {1000 * min(speed):.3f} ms, nominal "
          f"{1000 * SPEED_NOMINAL_S:.3f} ms: timings scaled by {scale:.4f}",
          file=sys.stderr)
    return scale


def repeat(seconds: float, op: Callable[[], None]) -> None:
    """Call op at least once, and again while the slowest call so far says
    that the next one ends within ``seconds`` of the first."""
    start = perf_counter()
    longest = 0.0
    while not longest or perf_counter() + longest - start <= seconds:
        t0 = perf_counter()
        op()
        longest = max(longest, perf_counter() - t0)


# ---- census workloads -------------------------------------------------------

def check_jobs(runner: Runner, argv: List[str], tally: Tally) -> None:
    """A small sweep gives the same bytes with --jobs 1 and --jobs 2."""
    outs = []
    for jobs in ("1", "2"):
        path = runner.work / f"jobs{jobs}.out"
        child = runner.run(["-m", "surdsym.cli", *argv, "--jobs", jobs], path)
        outs.append((child.code, path.read_bytes()))
    same = outs[0][0] == outs[1][0] == 0 and outs[0][1] == outs[1][1]
    tally.record(same, wrong=not same, note=f"--jobs 1 and 2 differ on {argv}")


def census_sweep(runner: Runner, name: str, tally: Tally,
                 traced_spans: Optional[Path] = None) -> Tuple[Child, int]:
    argv, digest, _ = CENSUS[name]
    out = runner.work / "sweep.out"
    if traced_spans is None:
        child = runner.run(["-m", "surdsym.cli", *argv], out)
    else:
        child = runner.run([str(HERE / "child.py"), "cli", str(traced_spans),
                            *argv], out)
    if child.code != 0:
        tally.record(False, note=f"exit {child.code}: {child.stderr[-300:]}")
    else:
        got = sha256_of(out)
        tally.record(got == digest, wrong=got != digest,
                     note=f"output sha256 {got} != {digest}")
    return child, out.stat().st_size


def census_workload(runner: Runner, name: str, seconds: float, trace: bool,
                    tally: Tally) -> Dict[str, float]:
    check_jobs(runner, CENSUS[name][2], tally)
    if trace:
        return traced(runner, seconds,
                      lambda: census_sweep(runner, name, tally)[0].wall_s,
                      lambda spans: census_layers(runner, name, tally, spans))
    warm_import(runner)
    setup, sweeps = [], []

    def one_sweep() -> None:
        setup.extend(setup_samples(runner))
        sweeps.append(census_sweep(runner, name, tally)[0])

    repeat(seconds, one_sweep)
    walls = [c.wall_s for c in sweeps if c.code == 0] or [c.wall_s for c in sweeps]
    best = min(walls)  # a request is one sweep: the query metrics restate it
    return {"setup_s": median(setup), "sweep_s": best,
            "peak_rss_mb": median([c.rss_mb for c in sweeps]),
            "query_p50_ms": 1000 * best, "query_p99_ms": 1000 * best,
            "queries_per_s": 1 / best}


def census_layers(runner: Runner, name: str, tally: Tally,
                  spans: Path) -> Tuple[float, Dict[str, float]]:
    child, size = census_sweep(runner, name, tally, spans)
    data = tracer.load(str(spans))
    layers = tracer.layer_metrics(data)
    layers["census.worker_cpu_s"] = data["extra"]["worker_cpu_s"]
    layers["cli.output_bytes"] = size
    report_absent(data)
    return child.wall_s, layers


# ---- form_queries -----------------------------------------------------------

def query_file(runner: Runner, seed: int) -> Tuple[Path, List[queries.Query]]:
    qs = queries.make_queries(seed, QUERY_COUNT, SQUARE_EVERY)
    path = runner.work / "queries.json"
    path.write_text(json.dumps({"deadline_s": DEADLINE_S,
                                "forms": [list(q.form) for q in qs]}))
    return path, qs


def query_child(runner: Runner, forms: Path, qs: List[queries.Query],
                tally: Tally, spans: Optional[Path] = None):
    """Run one pass of the query loop in a child and check every answer.
    Returns the child, the pass wall time, the latency of each answered
    non-square query by its index, and the latency of each deadline miss.
    Each query's exception is caught in the child, so a child that fails
    ends the run."""
    out = runner.work / "answers.json"
    child = runner.run([str(HERE / "child.py"), "queries", str(forms), str(out),
                        str(spans) if spans else "-"])
    if child.code != 0:
        raise SystemExit(f"query loop exit {child.code}: {child.stderr[-2000:]}")
    one_pass = json.loads(out.read_text())
    answered, missed = {}, []
    for i, (status, latency, answer) in enumerate(one_pass["results"]):
        q = qs[i]
        if status != "ok":
            if status == "deadline":
                missed.append(latency)
            tally.record(False, note=f"query {i} {status} {answer or ''}")
            continue
        wrong = queries.check_answer(q, answer)
        tally.record(wrong is None, wrong=wrong is not None,
                     note=f"query {i}: {wrong}")
        if not q.square:
            answered[i] = latency
    return child, one_pass["wall_s"], answered, missed


def queries_workload(runner: Runner, seed: int, seconds: float, trace: bool,
                     tally: Tally) -> Dict[str, float]:
    forms, qs = query_file(runner, seed)
    if trace:
        return traced(runner, seconds,
                      lambda: query_child(runner, forms, qs, tally)[1],
                      lambda spans: queries_layers(runner, forms, qs, tally, spans))
    warm_import(runner)
    setup, speed, walls, rss = [], [], [], []
    fastest: Dict[int, float] = {}

    def one_pass() -> None:
        for _ in range(SETUP_PER_OP):
            setup.append(runner.run(["-c", "import surdsym"]).wall_s)
            speed.append(speed_sample())
        child, wall, answered, missed = query_child(runner, forms, qs, tally)
        walls.append((wall - sum(missed), sum(missed)))
        rss.append(child.rss_mb)
        for i, latency in answered.items():
            fastest[i] = min(latency, fastest.get(i, latency))

    repeat(seconds, one_pass)
    if not fastest:
        raise SystemExit("form_queries: no non-square query was answered")
    # Every pass runs the same queries; each query's latency is its fastest.
    # Time spent waiting out deadlines does not depend on the machine's speed.
    scale = speed_scale(speed)
    lat = [scale * t for t in fastest.values()]
    return {"setup_s": scale * median(setup),
            "sweep_s": min(scale * busy + waited for busy, waited in walls),
            "peak_rss_mb": median(rss), "query_p50_ms": 1000 * median(lat),
            "query_p99_ms": 1000 * p99(lat), "queries_per_s": len(lat) / sum(lat)}


def queries_layers(runner: Runner, forms: Path, qs: List[queries.Query],
                   tally: Tally, spans: Path) -> Tuple[float, Dict[str, float]]:
    _, wall, _, missed = query_child(runner, forms, qs, tally, spans)
    data = tracer.load(str(spans))
    layers = tracer.layer_metrics(data)
    layers["periods.deadline_misses"] = len(missed)
    report_absent(data)
    return wall, layers


# ---- traced runs ------------------------------------------------------------

def traced(runner: Runner, seconds: float, untraced_op,
           traced_op) -> Dict[str, float]:
    """Alternate one untraced and one traced operation while time remains.
    Seconds are medians over the traced operations, counts come from the
    first, and trace.overhead_s is the median traced-minus-untraced time."""
    per_op, overhead = [], []
    spans = runner.work / "spans.pkl"

    def one_pair() -> None:
        plain = untraced_op()
        wall, layers = traced_op(spans)
        per_op.append(layers)
        overhead.append(wall - plain)

    repeat(seconds, one_pair)
    out = {}
    for metric, unit in layer_units().items():
        values = [layers.get(metric, 0) for layers in per_op]
        out[metric] = median(values) if unit == "s" else values[0]
    out["trace.overhead_s"] = median(overhead)
    return out


def report_absent(data: dict) -> None:
    if data["absent"]:
        print(f"absent (reported as 0): {', '.join(data['absent'])}", file=sys.stderr)


# ---- entry point --------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    tally = Tally()
    try:
        runner = Runner(work, perf_counter() + RUN_LIMIT_S)
        if name == "form_queries":
            values = queries_workload(runner, seed, seconds, trace, tally)
        else:
            values = census_workload(runner, name, seconds, trace, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = layer_units() if trace else END_TO_END_UNITS
    for note in tally.notes:
        print(f"{name}: {note}", file=sys.stderr)
    print(f"{name}: attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_frac {tally.failed / max(1, tally.attempted):.4f}", file=sys.stderr)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "surdsym" / "__init__.py").is_file():
        print(f"no surdsym package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in results[name]["metrics"].items():
            value = m["value"]
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
            print(f"{name:24s} {metric:36s} {shown} {m['unit']}",
                  file=sys.stderr if len(names) == 1 else sys.stdout)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{m}": v for n, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

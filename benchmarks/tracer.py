"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

``install`` replaces selected surdsym functions, wherever a loaded surdsym
module binds them, by wrappers that record one span per call: name, start,
end, parent span, process, and a size taken from the result (such as the
number of forms enumerated).  Spans stay in memory until ``dump``.  A pool
created through ``census.Pool`` runs each task under ``_run_task``, which
sends the worker's spans back with the result.  ``layer_metrics`` turns spans
into per-layer seconds (self time: a span's duration minus its same-process
children) and counts.

Importing this module does not import surdsym.
"""
from __future__ import annotations

import functools
import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _digits(exp) -> int:
    return len(exp.preperiod) + len(exp.period)


# (module, function, size of the result).  Functions a later version of the
# program no longer has are reported as absent, not as an error.
TARGETS = (
    ("census", "full_census", None),
    ("census", "valid_deltas", None),
    ("census", "census_nonsquare_primitive", None),
    ("census", "_h0_primitive_triples", len),
    ("census", "_cycle_of", None),
    ("census", "_aligned_pi", None),
    ("census", "_primitive_root", None),
    ("census", "census_for_delta", len),
    ("census", "_scaled_rows", None),
    ("census", "census_square", len),
    ("cf", "cf_surd", _digits),
    ("cf", "modular_cf_surd", None),
    ("periods", "classify_period", None),
    ("periods", "canonical_rotation", None),
    ("periods", "counts_nonsquare", None),
    ("periods", "normalize_square_form", None),
    ("reduction", "reduced_representative", None),
    ("reduction", "reduced_cycle", None),
    ("reduction", "reduce_to_H0", None),
    ("cli", "_report_record", None),
    ("cli", "_stat_record", None),
    ("cli", "_render", None),
    ("cli", "_emit", None),
)

POOL_MAP = "census.pool_map"   # the parent blocked in Pool.map
MERGE = "trace.merge"          # folding worker spans in; in no metric

# metric -> (kind, span names[, parent span name]).  "self" sums self time,
# "calls" counts spans, "size" sums result sizes.  A parent name restricts
# the sum to spans called directly from that function.
LAYER_METRICS = {
    "census.enumerate_s": ("self", ["census._h0_primitive_triples"]),
    "census.cycle_walk_s": ("self", ["census._cycle_of"]),
    "census.runs_s": ("self", ["census._aligned_pi", "census._primitive_root"]),
    "census.crosscheck_s": ("self", ["cf.cf_surd", "periods.canonical_rotation",
                                     "periods.counts_nonsquare"],
                            "census.census_nonsquare_primitive"),
    "census.assemble_s": ("self", ["census.full_census", "census.valid_deltas",
                                   "census.census_nonsquare_primitive",
                                   "census.census_for_delta", "census._scaled_rows"]),
    "census.square_s": ("self", ["census.census_square"]),
    "census.deltas": ("calls", ["census.census_nonsquare_primitive",
                                "census.census_square"]),
    "census.h0_forms": ("size", ["census._h0_primitive_triples"]),
    "census.classes": ("size", ["census.census_for_delta", "census.census_square"]),
    "census.pool_map_s": ("self", [POOL_MAP]),
    "cli.render_s": ("self", ["cli._report_record", "cli._stat_record",
                              "cli._render", "cli._emit"]),
    "periods.classify_period_s": ("self", ["periods.classify_period"]),
    "periods.classify_period_calls": ("calls", ["periods.classify_period"]),
    "periods.normalize_square_form_s": ("self", ["periods.normalize_square_form"]),
    "cf.cf_surd_s": ("self", ["cf.cf_surd"]),
    "cf.cf_surd_calls": ("calls", ["cf.cf_surd"]),
    "cf.digits": ("size", ["cf.cf_surd"]),
    "cf.modular_cf_surd_s": ("self", ["cf.modular_cf_surd"]),
    "reduction.reduced_representative_s": ("self", ["reduction.reduced_representative"]),
    "reduction.reduced_cycle_s": ("self", ["reduction.reduced_cycle"]),
    "reduction.reduce_to_H0_s": ("self", ["reduction.reduce_to_H0"]),
}

# One span is REC consecutive doubles in Tracer.flat.  Ids and sizes are
# integers below 2**53, so doubles hold them exactly.
NAME, ID, PARENT, PROC, START, END, SIZE = range(7)
REC = 7
_PROC_SHIFT = 2 ** 40   # ids of merged worker spans: id + proc * _PROC_SHIFT


class Tracer:
    """Spans of one process, in a flat array of doubles.

    A span is written by a single ``array.extend`` when it ends, so an
    exception raised by a signal handler (the query deadline) can lose a
    span but never leaves a partial one.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.flat = array("d")
        self.stack: List[int] = []
        self.absent: List[str] = []
        self._ids = itertools.count()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str,
             size: Optional[Callable] = None) -> Callable:
        nid, flat, stack, ids = self.name_id(name), self.flat, self.stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(i)
            n = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    n = size(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                flat.extend((nid, i, parent, 0, t0, t1, n))

        return traced

    def add(self, name: str, t0: float, t1: float) -> int:
        """Record a span that the caller timed itself; returns its id."""
        i = next(self._ids)
        parent = self.stack[-1] if self.stack else -1
        self.flat.extend((self.name_id(name), i, parent, 0, t0, t1, 0))
        return i

    def merge(self, flat: array, names: List[str], proc: int, parent: int) -> None:
        """Append another process's spans; its root spans get ``parent``."""
        remap = [self.name_id(n) for n in names]
        shift = proc * _PROC_SHIFT
        cols = [flat[c::REC] for c in range(REC)]
        cols[NAME] = [remap[int(x)] for x in cols[NAME]]
        cols[ID] = [x + shift for x in cols[ID]]
        cols[PARENT] = [parent if x < 0 else x + shift for x in cols[PARENT]]
        cols[PROC] = [proc] * len(cols[ID])
        self.flat.extend(v for rec in zip(*cols) for v in rec)

    def dump(self, path: str, extra: Dict[str, float]) -> None:
        with open(path, "wb") as fh:
            pickle.dump({"names": self.names, "absent": self.absent,
                         "extra": extra, "flat": self.flat}, fh)


# The tracer of this process.  Pool workers forked from a traced process
# inherit it, and ``_run_task`` (which a worker finds by import path) reads it.
_active: Optional[Tracer] = None


def _run_task(fn: Callable, item):
    tracer = _active
    mark, saved = len(tracer.flat), tracer.stack[:]
    tracer.stack.clear()
    try:
        result = fn(item)
    finally:
        tracer.stack[:] = saved
    spans = tracer.flat[mark:]
    del tracer.flat[mark:]
    return result, os.getpid(), tracer.names, spans


class _TracedPool(multiprocessing.pool.Pool):
    """A Pool whose map collects the workers' spans along with the results."""

    def map(self, func, iterable, chunksize=None):
        tracer = _active
        t0 = perf_counter()
        raw = super().map(functools.partial(_run_task, func), iterable, chunksize)
        pool_span = tracer.add(POOL_MAP, t0, perf_counter())
        t1 = perf_counter()
        procs: Dict[int, int] = {}
        for _, pid, names, spans in raw:
            tracer.merge(spans, names, procs.setdefault(pid, len(procs) + 1),
                         pool_span)
        tracer.add(MERGE, t1, perf_counter())
        return [r[0] for r in raw]


def install() -> Tracer:
    """Wrap every TARGETS function in all loaded surdsym modules."""
    global _active
    tracer = Tracer()
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "surdsym" or name.startswith("surdsym.")}
    for modname, attr, size in TARGETS:
        mod = mods.get(f"surdsym.{modname}")
        if mod is None:  # not loaded by this entry point
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            tracer.absent.append(f"{modname}.{attr}")
            continue
        _rebind(mods, orig, tracer.wrap(orig, f"{modname}.{attr}", size))
    census = sys.modules.get("surdsym.census")
    if census is not None and hasattr(census, "Pool"):
        # Workers must be forked to inherit the installed wrappers.
        ctx = multiprocessing.get_context("fork")

        def traced_pool(*args, **kwargs):
            return _TracedPool(*args, context=ctx, **kwargs)

        census.Pool = traced_pool
    else:
        tracer.absent.append("census.Pool")
    _active = tracer
    return tracer


def _rebind(mods: dict, orig: Callable, new: Callable) -> None:
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)


def load(path: str) -> dict:
    """Read spans written by ``Tracer.dump`` (of a run this benchmark made)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def columns(spans: dict) -> Dict[int, list]:
    flat = spans["flat"]
    return {c: flat[c::REC] for c in range(REC)}


def self_times(cols: Dict[int, list]) -> List[float]:
    """Duration of each span minus the durations of its children in the same
    process.  Children run nested inside their parent, so they never overlap."""
    row_of = {i: r for r, i in enumerate(cols[ID])}
    starts, ends, procs = cols[START], cols[END], cols[PROC]
    out = [e - s for s, e in zip(starts, ends)]
    for r, p in enumerate(cols[PARENT]):
        q = row_of.get(p)
        if q is not None and procs[q] == procs[r]:
            out[q] -= ends[r] - starts[r]
    return out


def layer_metrics(spans: dict) -> Dict[str, float]:
    """Every LAYER_METRICS value; spans of absent functions contribute 0."""
    ids = {n: i for i, n in enumerate(spans["names"])}
    by_name: Dict[int, list] = {}
    for metric, (kind, wanted, *parent) in LAYER_METRICS.items():
        parent_id = ids.get(parent[0], -2) if parent else None
        for n in wanted:
            if n in ids:
                by_name.setdefault(ids[n], []).append((metric, kind, parent_id))
    cols = columns(spans)
    own = self_times(cols)
    name_of = dict(zip(cols[ID], cols[NAME]))
    out = dict.fromkeys(LAYER_METRICS, 0)
    for r, nid in enumerate(cols[NAME]):
        for metric, kind, parent_id in by_name.get(int(nid), ()):
            if parent_id is not None and name_of.get(cols[PARENT][r]) != parent_id:
                continue
            out[metric] += (own[r] if kind == "self" else
                            1 if kind == "calls" else int(cols[SIZE][r]))
    return out

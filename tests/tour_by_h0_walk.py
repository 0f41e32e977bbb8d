"""Reference H0 tour for the suite: step through every H0 form.

``cli._orbit_tour`` reads the run starts of a class's H0 cycle off one
regular continued-fraction walk.  This module finds them instead by walking
the whole H0 cycle with ``oracle.h0_cycle_walk`` (A while m + n + k < 0,
else B), listing each form where the step letter changes, and expanding
each listed form's continued fraction on its own.
"""
from typing import List

from surdsym.cf import cf_surd
from surdsym.forms import Form
from surdsym.oracle import h0_cycle_walk
from surdsym.reduction import reduce_to_H0


def tour_by_h0_walk(f: Form) -> List[str]:
    """Run-boundary forms of the H0 cycle through f, with their periods."""
    if f.m * f.n >= 0:
        f = reduce_to_H0(f)[0]
    if f.m < 0:  # H0R member: complementary partner lies in the same class
        f = Form(f.n, f.m, -f.k)
    cycle, _ = h0_cycle_walk(f)
    t = len(cycle)

    def step(i):
        g = cycle[i]
        return "A" if g.m + g.n + g.k < 0 else "B"

    starts = [i for i in range(t) if step(i) != step(i - 1)]
    lines = []
    for i in starts:
        g = cycle[i]
        seq = ",".join(str(a) for a in cf_surd(g).period)
        lines.append(f"{g.m} {g.n} {g.k}  [{seq}]")
    return lines

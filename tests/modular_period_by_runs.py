"""Reference map from the regular period to the minus period, for the suite:
the paper's rewriting of A- and B-runs.

``reduction.reduced_cycle`` reads a class's minus-CF period off one minus
walk.  The paper obtains it from the regular period instead: aligned so that
its first digit is an A-run, the even-length word (an odd one doubled)
becomes a+2 for each A-run a and a-1 copies of 2 for each B-run a.  The
tests check that this gives the cycle's period up to rotation.
"""
from typing import Tuple


def cf_period_to_modular_period(pi: Tuple[int, ...]) -> Tuple[int, ...]:
    """Rewrite an even-length regular period as a minus-CF period.

    Odd positions (1-indexed) map to a+2; each even-position digit a becomes
    a-1 copies of 2.  The input must be aligned so that position 1 carries an
    A-run; the output then equals, up to rotation, the minus-CF period of
    the class's reduced cycle.  No rotation is distinguished: the cycle of
    ``reduction.reduced_cycle`` starts wherever its input enters it.
    """
    pi = tuple(pi)
    if len(pi) % 2 != 0:
        raise ValueError(f"period length must be even, got {len(pi)} (double it first)")
    if not pi or any((not isinstance(a, int)) or a < 1 for a in pi):
        raise ValueError(f"period digits must be positive integers: {pi}")
    out = []
    for i, a in enumerate(pi):
        if i % 2 == 0:  # 1-indexed odd position
            out.append(a + 2)
        else:
            out.extend([2] * (a - 1))
    return tuple(out)

"""Statistics and naming rules shared by run.py and its tests.

Timings are reported as a median with their quartiles. A distribution's
tail is the highest percentile of a fixed ladder that still has at least
ten samples beyond it, reported together with the sample count.
"""

import re
import statistics
from fractions import Fraction

# Percentile ladder for tails, as exact fractions so "ten samples beyond"
# is decided without rounding.
TAIL_LADDER = (Fraction(50), Fraction(90), Fraction(99), Fraction(999, 10),
               Fraction(9999, 100))
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 100] (util::percentile)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = float(p) / 100.0 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of n samples lie beyond the p-th percentile: n * (1 - p/100)."""
    return n * (100 - Fraction(str(p))) / 100


def tail_percentile(values):
    """(p, value, n) for the highest ladder percentile with at least ten
    samples beyond it, or None when even the median has fewer."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    if best is None:
        return None
    return (float(best), percentile(values, float(best)), n)


def describe(values):
    """One-line summary: median, quartiles, sample count and the tail."""
    q1, m, q3 = quartiles(values)
    text = "median %.6g [q1 %.6g, q3 %.6g] n=%d" % (m, q1, q3, len(values))
    tail = tail_percentile(values)
    if tail is None:
        text += ", no tail (needs >= %d samples beyond p50)" % MIN_BEYOND
    else:
        text += ", p%g %.6g" % (tail[0], tail[1])
    return text


def valid_metric_name(name):
    return isinstance(name, str) and _NAME.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.match(unit) is not None

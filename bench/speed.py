"""Scaling of measured times to a reference CPU speed.

The benchmark runs on shared machines whose CPU speed drifts by up to half,
between runs and within them, on a scale of seconds: far more than the
differences worth reporting.  Every ~50 ms of operations the benchmark times
a fixed piece of its own code (a probe), and each operation's time is scaled
by ``REFERENCE_S`` over the median of the probes around it.  Timings then
read as on a machine where one probe takes ``REFERENCE_S``; the probes
themselves are reported, so raw times can be recovered.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 3


def _fill(rows: list[int], cols: tuple[int, ...], acc: list, out: list):
    if not cols:
        if not any(rows):
            out.append(tuple(acc))
        return

    def split(i, rem, row):
        if i == len(rows) - 1:
            if rem <= rows[i]:
                rows[i] -= rem
                acc.append(tuple(row + [rem]))
                _fill(rows, cols[1:], acc, out)
                acc.pop()
                rows[i] += rem
            return
        for v in range(min(rem, rows[i]) + 1):
            rows[i] -= v
            row.append(v)
            split(i + 1, rem - v, row)
            row.pop()
            rows[i] += v

    split(0, cols[0], [])


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work in the style of the
    package's inner loops: recursive table enumeration with tuples and lists,
    then Fraction sums in a dict.  It runs only benchmark code, so no change
    to the package can move it."""
    started = time.perf_counter()
    found: list = []
    _fill([2, 2, 2, 2], (2, 2, 2, 2), [], found)
    sums: dict = {}
    for m in found:
        sums[m[0]] = sums.get(m[0], Fraction(0)) + Fraction(1, 1 + sum(m[1]))
    return time.perf_counter() - started


def scaled(seconds: float, probes: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(probes)


class SpeedScale:
    """Probes taken between operations, and each operation's scale factor."""

    def __init__(self):
        self.probes = [probe()]
        self.marks: list[int] = []    # number of probes taken before each operation
        self.since = 0.0

    def after_op(self, seconds: float):
        self.marks.append(len(self.probes))
        self.since += seconds
        if self.since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.since = 0.0

    def factors(self) -> list[float]:
        self.probes.append(probe())
        return [REFERENCE_S / statistics.median(self.probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW])
                for j in self.marks]

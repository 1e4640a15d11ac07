"""Machine-speed probe: the scale every timed sample is reported on.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop takes anywhere from 0.7x to 1.4x its usual
time from one ten-second stretch to the next, and a whole run can land
in a slow or a fast stretch.  Medians over a run cannot remove drift
that lasts as long as the run.  So a fixed ``kernel`` is timed in
thread CPU time by the SUT next to the measured work (before each
closed-loop dispatch, every ``PROBE_EVERY_S`` while it serves the
season-end reads, and between the live dashboard reads while it waits
for segments), and the benchmark reports each latency
sample scaled by ``NOMINAL_S`` over the probes around that sample:
seconds on a machine where the kernel takes ``NOMINAL_S``.  A change to
the program moves the scaled values exactly as it moves the wall-clock
ones (the kernel is benchmark code and does not change); a machine
running at 0.7x its usual speed does not.  The unscaled values are
printed too (``wall.*`` per-layer metrics).

The kernel is timed with ``time.thread_time``, so time the probing
thread spends waiting for the GIL or for a core is not counted: a
program that keeps the GIL busy in the background makes its own
latencies longer without making the machine look slower.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: About the kernel's thread time on the two-core machine the benchmark
#: was tuned on; scaled samples are in seconds on a machine where it
#: takes exactly this.
NOMINAL_S = 0.020
#: How often an otherwise idle SUT probes.
PROBE_EVERY_S = 0.5
#: Probes within this many seconds of a sample set its scale: the
#: host's speed holds for stretches of ten seconds or more, and one
#: probe alone is off by up to a tenth.
WINDOW_S = 2.0


#: Entries of the table the kernel's memory-bound half reads.
TABLE_ENTRIES = 120000
_TABLE: Dict[Tuple[str, str], Tuple[str, int]] = {}
_KEYS: List[Tuple[str, str]] = []


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def prepare() -> int:
    """Build the table of the kernel's memory-bound half (a dict of
    triple-like string tuples, tens of MB), once; returns the resident
    bytes it took, which the SUT leaves out of its peak RSS."""
    if _TABLE:
        return 0
    before = _resident_bytes()
    for i in range(TABLE_ENTRIES):
        key = (f"http://example.org/s{i}", f"p{i % 50}")
        _TABLE[key] = (f"o{i}", i)
        _KEYS.append(key)
    return max(0, _resident_bytes() - before)


def kernel() -> int:
    """Two halves of about the same time.  Dict updates, string
    building and a sort on data that stays in cache, and scattered reads
    of the large table with small tuples allocated: together they speed
    up and slow down with the host about as much as the SUT's stSPARQL
    and refinement work does (each half alone does not: the first
    swings more than the SUT, the second less)."""
    if not _TABLE:
        prepare()
    counts: Dict[int, int] = {}
    names = []
    for i in range(30000):
        key = (i * 7919) % 4093
        counts[key] = counts.get(key, 0) + 1
        if i % 7 == 0:
            names.append(str(key))
    names.sort()
    total = 0
    picked = []
    size = len(_KEYS)
    for j in range(6000):
        key = _KEYS[(j * 104729) % size]
        value = _TABLE[key]
        total += value[1]
        if j % 3 == 0:
            picked.append((value[0], key[1]))
    return len(names) + len(counts) + total + len(picked)


def probe() -> float:
    """Thread CPU seconds one run of ``kernel`` takes."""
    began = time.thread_time()
    kernel()
    return time.thread_time() - began


def record(probes: List[List[float]]) -> None:
    """Probe once; append ``[monotonic midpoint, seconds]``."""
    began = time.monotonic()
    seconds = probe()
    probes.append([(began + time.monotonic()) / 2.0, seconds])


class SpeedScale:
    """Maps a sample taken at ``time.monotonic()`` instant ``at`` to its
    scale factor, from the probes ``(at, seconds)`` of the timed phase."""

    def __init__(self, probes: Sequence[Sequence[float]]) -> None:
        if not probes:
            raise ValueError("no speed probes were taken")
        ordered = sorted((float(at), float(s)) for at, s in probes)
        self.times = [at for at, _ in ordered]
        self.seconds = [s for _, s in ordered]

    def factor(self, at: float) -> float:
        """``NOMINAL_S`` over the median probe within ``WINDOW_S`` of
        ``at`` (the nearest probe when none is that close)."""
        low = bisect.bisect_left(self.times, at - WINDOW_S)
        high = bisect.bisect_right(self.times, at + WINDOW_S)
        near = self.seconds[low:high]
        if not near:
            index = bisect.bisect_left(self.times, at)
            candidates = [
                i for i in (index - 1, index) if 0 <= i < len(self.times)
            ]
            nearest = min(candidates, key=lambda i: abs(self.times[i] - at))
            near = [self.seconds[nearest]]
        return NOMINAL_S / statistics.median(near)

    def scale(self, samples: List[Tuple[float, float]]) -> List[float]:
        """``(at, value)`` pairs to scaled values."""
        return [value * self.factor(at) for at, value in samples]

    def median_probe(self) -> float:
        return statistics.median(self.seconds)

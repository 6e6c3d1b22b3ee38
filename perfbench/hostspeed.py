"""The host's speed, sampled through a run.

The benchmark's machine is a few vCPUs of a shared host, and its speed drifts
by itself: for minutes at a time the program and a fixed pure-Python loop
both run up to twice as slow as in other minutes. A timing taken as it is
then says as much about the neighbours as about the program.

So the measured process runs a fixed calibration loop before each build and
load and about every CAL_EVERY_S during the query phase, and scales every
timing of the run by REFERENCE_LOOP_S over the median loop time. A scaled
timing is the time the operation would have taken on a host where the loop
takes REFERENCE_LOOP_S, about its time on a calm 2-vCPU Xeon VM. The loop is
the program's kind of work: dict updates and float arithmetic in the
interpreter. The median is over the whole run, because single samples meet
bursts of tens of milliseconds (kernel work after a build's writes, for one)
that a build or a search of seconds barely feels. Calibration time is never
part of a timing.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter

REFERENCE_LOOP_S = 0.010
LOOPS_PER_SAMPLE = 3
# Longest gap between samples in the query phase.
CAL_EVERY_S = 0.5


def calibration_loop() -> float:
    """Seconds one fixed loop of dict updates and float arithmetic takes."""
    table: dict[int, float] = {}
    start = clock()
    for i in range(60000):
        key = i * 7919 % 5003
        table[key] = table.get(key, 0.0) + i * 0.5
    return clock() - start


class HostSpeed:
    """Calibration loop times of one run.

    With enabled=False nothing is sampled and the scale is 1, so timings are
    reported as taken (traced runs, whose spans the loops would pad).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.loops: list[float] = []
        self.sampling_s = 0.0  # wall time spent sampling
        self._last = clock()

    def sample(self) -> None:
        if self.enabled:
            start = clock()
            self.loops += [calibration_loop() for _ in range(LOOPS_PER_SAMPLE)]
            self._last = clock()
            self.sampling_s += self._last - start

    def due(self) -> bool:
        """True when the last sample is older than CAL_EVERY_S."""
        return self.enabled and clock() - self._last >= CAL_EVERY_S

    def scale(self) -> float:
        """Factor from a timing as taken to the reference host speed."""
        if not self.enabled or not self.loops:
            return 1.0
        return REFERENCE_LOOP_S / statistics.median(self.loops)

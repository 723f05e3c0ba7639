"""Host-speed calibration of the end-to-end times.

On the shared 2-vCPU host this benchmark was built on, the same call
took up to twice as long a few seconds later, in user time as well as
wall time, and the host's speed also drifted over minutes. A fixed piece
of work that uses no soficert code is therefore timed between CLI calls
throughout the run, and each call's time is reported at a reference host
speed, using the samples taken nearest to it:

    reported seconds = wall seconds * REFERENCE_S / mean(sample just before, sample just after)

A change to the program moves the reported time by the same share as the
wall time, since the calibration does not run the program; a change in
host speed moves both and cancels. The wall times and the calibration
median are recorded in the run's context line.
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import time

# the calibration sample's duration on the host at its fastest, in seconds
REFERENCE_S = 0.025
# least time between two samples, so sampling takes about a tenth of a run
INTERVAL_S = 0.4


class Calibration:
    def __init__(self):
        # every 4th permutation of 8 points: tuple, dict and JSON work on
        # about a megabyte of data, shaped like the program's carrier code
        self.perms = list(itertools.islice(itertools.permutations(range(8)), 0, None, 4))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        g = self.perms[5]
        index = {p: i for i, p in enumerate(self.perms)}
        images = [index.get(tuple(g[x] for x in p), -1) for p in self.perms]
        blob = json.loads(json.dumps([list(p) for p in self.perms]))
        if len(blob) != len(images):
            raise AssertionError("calibration sample lost data")
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.samples.append(end - start)
        return end - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean duration of the last sample that ended by ``start`` and the
        first that began at or after ``end`` (either alone at the edges)."""
        near = []
        before = bisect.bisect_right(self.ends, start) - 1
        if before >= 0:
            near.append(self.samples[before])
        after = bisect.bisect_left(self.starts, end)
        if after < len(self.samples):
            near.append(self.samples[after])
        return statistics.mean(near)

    def scale(self, start: float, end: float) -> float:
        """Reported seconds of a span timed from ``start`` to ``end``."""
        return (end - start) * REFERENCE_S / self.around(start, end)

    def median_s(self) -> float:
        return statistics.median(self.samples)

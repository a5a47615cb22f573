"""A fixed pure-Python workload that measures how fast the host runs now.

On a 2-vCPU virtual machine whose host other tenants load, the same pass
takes from 1x to 1.8x its fastest time, in phases that last from seconds
to minutes.  A sample of the probe is a
small subset construction over a fixed automaton, the kind of work the
library does (frozensets built, hashed and looked up).  Over 33
`small-groups` passes, the median time of a larger version of this sample
(150 subsets) followed the pass time more closely (correlation of the
logarithms 0.92, slope 1.09) than random lookups in a 40 MB dictionary
(0.85, slope 1.78) did.  Its inputs never change and it calls
nothing in the library, so a change to the library cannot change its time.
run.py takes samples from a timer signal while a pass runs and divides the
pass time by their median.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
from time import perf_counter

STATES = 1200
SUBSETS = 60  # subsets one sample constructs
POINT_SAMPLES = 9  # a probe point outside a pass is the median of these
INTERVAL_S = 0.2  # time between samples in a pass


class Probe:
    def __init__(self, seed: int = 20030512):
        rng = random.Random(seed)
        # letters 0-2 always move; letters 3-5 move only odd states
        self.succ = [[rng.randrange(STATES) for _ in range(6)] for _ in range(STATES)]
        self.busy_s = 0.0  # time spent in samples so far
        self.samples: list[float] = []
        self.check = self._work()

    def _work(self) -> int:
        succ = self.succ
        first = frozenset([0, 1, 2])
        seen = {first: 0}
        todo = [first]
        while todo and len(seen) < SUBSETS:
            subset = todo.pop()
            for x in range(3):
                image = frozenset(succ[q][x] for q in subset) | frozenset(
                    succ[q][x + 3] for q in subset if q & 1)
                if image not in seen:
                    seen[image] = len(seen)
                    todo.append(image)
        return sum(len(t) for t in seen)

    def sample(self) -> float:
        """Seconds one sample takes now."""
        t0 = perf_counter()
        got = self._work()
        elapsed = perf_counter() - t0
        if got != self.check:
            raise AssertionError(f"probe returned {got}, want {self.check}")
        self.busy_s += perf_counter() - t0
        return elapsed

    def point(self) -> float:
        """The median of POINT_SAMPLES samples taken now."""
        return statistics.median(self.sample() for _ in range(POINT_SAMPLES))

    def clock(self) -> float:
        """perf_counter() less the time spent in samples, so that a pass
        timed with it leaves out the samples taken while it ran."""
        return perf_counter() - self.busy_s

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.sample())

    @contextlib.contextmanager
    def sampling(self):
        """Takes a sample every INTERVAL_S inside the block, into self.samples."""
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

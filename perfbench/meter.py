"""Speed meter: how fast the CPU that runs dop is while dop runs.

On a shared host the speed of one CPU drifts by a third or more within
minutes, as other tenants load the cores and caches it shares, so wall
times of the same work taken minutes apart differ by more than any
change worth measuring. The meter is a child process pinned to the CPU
that the benchmark and its dop commands are pinned to, at nice 19: while a
dop command runs, the scheduler gives the meter about 1.5% of that CPU in
slices spread over the command, and the meter counts fixed units of
dict, tuple and heap work (the kind of work dop does) per CPU second in
them. Its rate, over NOMINAL_RATE, is the factor by which the CPU ran
faster than nominal during the command; a time multiplied by it is the
time the same work takes on a CPU that runs the meter at NOMINAL_RATE.
"""

import heapq
import multiprocessing
import os
import random
import signal
import time

# meter units per CPU second that count as nominal speed: a round figure
# near the meter's rate beside dop on a 2.1 GHz Xeon VM. It only sets the
# scale of the reported times.
NOMINAL_RATE = 12000.0
# below this much meter CPU time in an interval the rate is too coarse
MIN_CPU = 0.002


def _unit(table, keys, start):
    heap = []
    total = 0.0
    for key in keys[start:start + 100]:
        weight = table[key]
        heapq.heappush(heap, (-weight, key))
        total += weight * 0.5
    while heap:
        heapq.heappop(heap)
    return total


def _run(shared, table, keys):
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.nice(19)
    units = 0
    while True:
        _unit(table, keys, (units * 100) % (len(keys) - 100))
        units += 1
        shared[1] = time.process_time()
        shared[0] = units


class Meter:
    """The meter process; `read` gives (units, meter CPU seconds)."""

    def __init__(self):
        rng = random.Random(7)
        table = {(rng.randrange(400), rng.randrange(60), rng.randrange(8)):
                 rng.random() for _ in range(4000)}
        keys = list(table)
        rng.shuffle(keys)
        context = multiprocessing.get_context("fork")
        self._shared = context.RawArray("d", 2)
        self._process = context.Process(target=_run,
                                        args=(self._shared, table, keys),
                                        daemon=True)
        self._process.start()
        # the first read must follow a whole unit, not the meter's start-up
        while not self._shared[0]:
            time.sleep(0.001)
        self.units = self.cpu = 0.0     # totals over every measured interval

    def read(self):
        return self._shared[0], self._shared[1]

    def factor(self, before, after):
        """Speed of the CPU between two reads, relative to nominal.

        An interval too short for the meter to measure gets the rate of
        all intervals measured so far.
        """
        units, cpu = after[0] - before[0], after[1] - before[1]
        self.units += units
        self.cpu += cpu
        if cpu < MIN_CPU:
            units, cpu = self.units, self.cpu
        return units / cpu / NOMINAL_RATE if cpu > 0 else 1.0

    def stop(self):
        self._process.terminate()
        self._process.join()

"""Scaling measured times to a reference machine speed.

The host this benchmark was built on (a shared 2-vCPU VM) changes speed
by about 1.6x on a scale of seconds, on both vCPUs, with the guest's
steal counter flat; neither CPU time nor wall time hides that -- the same
seed of durable-commit ran at 98 and 159 ops/s a minute apart.  A fixed
pure-Python loop of the same kind of work as the library's (dict and
list traffic) slows down with the machine: scaling by it cut the spread
(interquartile range / median) of read-mostly's ops_per_s over five
seeds from 0.38 to 0.02.

So every end-to-end interval is timed in the process's CPU time, and
that time is multiplied by ``REF_SECONDS / probe``, where ``probe`` is
the reference loop's CPU time around the interval: the figures read as
seconds on a machine where the loop takes ``REF_SECONDS``, which is this
host's slower, more common state.  A workload that blocks (fsync, file
reads) adds the interval's wall time beyond its CPU time unscaled: a
disk does not speed up with the CPU.  The raw figures go to the run
record.  A change to the program cannot move the probe: it calls nothing
of the program and keeps nothing it allocates.
"""

import time

CPU = time.process_time
WALL = time.perf_counter

#: Iterations of the reference loop (about 1.2-2 ms on the reference host).
REF_ITERATIONS = 10_000
#: The reference loop's time at the reference speed.
REF_SECONDS = 0.002
#: A probe runs once at least this much timed work has passed since the
#: last one, between two operations.
PROBE_EVERY_S = 0.1


def reference_loop(n=REF_ITERATIONS):
    table = dict.fromkeys(range(256), 0)
    cells = [0] * 256
    for i in range(n):
        k = i & 255
        table[k] = cells[k] + i
        cells[k] = table[k] >> 1
    return cells[0]


def factor(before, after):
    """Scale of an interval bracketed by probes ``before`` and ``after``."""
    return 2 * REF_SECONDS / (before + after)


class Pace:
    """Probes the machine's speed and scales intervals to the reference
    speed; with ``blocking``, time blocked off the CPU is added as is."""

    def __init__(self, blocking=False):
        self.blocking = blocking

    def probe(self):
        """CPU seconds the reference loop takes now (best of three, so one
        interrupt does not count)."""
        best = float("inf")
        for _ in range(3):
            started = CPU()
            reference_loop()
            best = min(best, CPU() - started)
        return best

    def scaled(self, cpu, wall, f):
        if self.blocking and wall > cpu:
            return cpu * f + (wall - cpu)
        return cpu * f

    def time(self, call):
        """Run ``call()`` between two probes; returns ``(its result, wall
        seconds, scaled seconds)``."""
        before = self.probe()
        cpu, wall = CPU(), WALL()
        result = call()
        cpu, wall = CPU() - cpu, WALL() - wall
        return result, wall, self.scaled(cpu, wall,
                                         factor(before, self.probe()))

    def scale(self, cpu, wall, probes):
        """Per-op CPU and wall seconds, scaled by the probes around each
        op.  ``probes`` holds ``(index, seconds)`` pairs, the first at
        index 0 and the last at ``len(cpu)``."""
        scaled = []
        for (start, before), (stop, after) in zip(probes, probes[1:]):
            f = factor(before, after)
            scaled += [self.scaled(c, w, f)
                       for c, w in zip(cpu[start:stop], wall[start:stop])]
        return scaled

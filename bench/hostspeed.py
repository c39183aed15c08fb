"""The host's speed, measured beside the operations it slows.

The machine the benchmark was tuned on shares its cores with other
containers.  Their load slows the CPU itself, not only the scheduling of
this process: process CPU time grows with wall time, and the best of a few
hundred repeats of a fixed loop moves by a third between two 10-second
runs.  No statistic taken over the operations alone removes that.

So the runner interleaves a fixed piece of pure-Python work, the reference
run, with the operations: before the first operation, after any operation
that ends at least ``EVERY_S`` after the last reference run, and after the
last operation.  An operation's measured time is divided by the mean of the
two reference runs around it and multiplied by ``NOMINAL_S``, the reference
run's time on the reference machine when it was not slowed.  The result is
the operation's time at that nominal host speed, in seconds.  The
reference run touches no lampirs code, so no change to the program can move
it; a change that makes the program slower shows in full.
"""

from __future__ import annotations

from time import perf_counter

# Reference run's time on a 2-CPU Linux container (Python 3.11.7) when the
# host was not slowed: the fastest readings seen there.  It only sets the
# scale of the reported times.
NOMINAL_S = 0.008
# A reading follows the first operation that ends this long after the last.
EVERY_S = 0.1


class _Cell:
    __slots__ = ("key", "bits")

    def __init__(self, key, bits):
        self.key = key
        self.bits = bits

    def merged(self, other):
        return _Cell(self.key, self.bits ^ other.bits)


def reference_run():
    """Fixed interpreter work of the kinds lampirs does: small-int and
    bit-table arithmetic, tuple-keyed dicts, lists and method calls."""
    table = {}
    acc = 0
    cell = _Cell(0, 1)
    for i in range(6000):
        key = ((i * 7919) & 1023, i & 15)
        table[key] = table.get(key, 0) + 1
        cell = cell.merged(_Cell(key, (acc << (i & 31)) | i))
        acc = (acc + sum([key[0], i, cell.bits & 255])) & 0xFFFFFFFF
    return acc + len(table)


def reference_seconds():
    started = perf_counter()
    reference_run()
    return perf_counter() - started


class Readings:
    """Reference readings taken between operations, and the interval each
    timed operation fell into."""

    def __init__(self):
        self.readings = [reference_seconds()]
        self.last = perf_counter()

    def interval(self):
        """Index of the interval an operation that just ended falls into;
        takes a new reading if the interval is long enough."""
        index = len(self.readings) - 1
        if perf_counter() - self.last >= EVERY_S:
            self.close()
        return index

    def close(self):
        self.readings.append(reference_seconds())
        self.last = perf_counter()

    def factor(self, index):
        """Nominal over measured host time, around interval ``index``; the
        last interval must have been closed."""
        return 2 * NOMINAL_S / (self.readings[index] + self.readings[index + 1])


def at_nominal_speed(fn):
    """Run ``fn()`` between two reference runs; return its result and its
    time at the nominal host speed."""
    before = reference_seconds()
    started = perf_counter()
    result = fn()
    elapsed = perf_counter() - started
    after = reference_seconds()
    return result, elapsed * 2 * NOMINAL_S / (before + after)

"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same pass can take 4 s in one minute and 6 s in the
next: the neighbours' load changes how much work a core does per second,
from one tenth of a second to the next.  The benchmark therefore runs this
loop while it times the program, and reports each timed step in seconds at
a fixed reference speed: every slice of the step's wall time is multiplied
by ``REFERENCE_S / loop time`` of the loop run next to it.  A change to the
program moves the scaled time as much as the wall time; a change in the
machine's speed moves the step and the loop alike, and cancels.

The loop is exact rational arithmetic written here (integer pairs reduced by
``gcd``) followed by scattered reads from a fixed table and dict stores, the
same kinds of work as the program's.  It uses no program code and no
``fractions``, so no change to the program can speed it up or slow it down.
"""

import signal
from math import gcd
from time import perf_counter

# seconds one loop took (median of many) on the machine the reference
# figures in README.md were measured on: 2 cores, CPython 3.11
REFERENCE_S = 0.009

# wall seconds between two loops run inside a timed step (about a tenth of
# the step's time goes to the loops)
SAMPLE_INTERVAL_S = 0.1


class _Q:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = gcd(n, d)
        if d < 0:
            g = -g
        self.n = n // g
        self.d = d // g

    def __add__(self, other):
        return _Q(self.n * other.d + other.n * self.d, self.d * other.d)

    def __mul__(self, other):
        return _Q(self.n * other.n, self.d * other.d)


# a fixed table of a few MB, read in scattered order by the loop: the
# program's large sparse matrices feel the neighbours' use of the shared
# caches, and an arithmetic loop alone does not
_TABLE_SIZE = 40000
_TABLE = [_Q(i % 13 + 1, i % 11 + 1) for i in range(_TABLE_SIZE)]


def _loop():
    xs = [_Q((7 * i) % 19 - 9, i % 9 + 1) for i in range(48)]
    acc = _Q(0, 1)
    for _ in range(4):
        for i in range(48):
            row = xs[i]
            for j in range(0, 48, 3):
                acc = acc + row * xs[j]
    table = {}
    for i in range(0, 160000, 16):
        table[(i % 1000, i % 3)] = _TABLE[(i * 7919) % _TABLE_SIZE]
    total = 0
    for i in range(0, 160000, 32):
        total += _TABLE[(i * 104729) % _TABLE_SIZE].n
    return acc.n, acc.d, len(table), total


def loop_seconds():
    """Wall time of one run of the reference loop."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def speed_probe(reps=6):
    """Loop times of ``reps`` runs in a row, in seconds."""
    return [loop_seconds() for _ in range(reps)]


def scale(before, after):
    """Factor that turns a wall time measured between two speed probes
    into seconds at the reference speed."""
    loops = before + after
    return REFERENCE_S * len(loops) / sum(loops)


class Sampled:
    """Time a step with the reference loop run inside it.

    A wall-clock timer interrupts the step every ``SAMPLE_INTERVAL_S`` and
    runs the loop once (the step's Python code is paused meanwhile and
    touches nothing of the loop's).  The step's own time is split into the
    slices between two loops; each slice is scaled by the loop that ends it,
    and the last slice by the loop run right after the step.  After the
    ``with`` block, ``wall_s`` is the step's wall time without the loops and
    ``scaled_s`` the same time at the reference speed.
    """

    def __enter__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.loops = 0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _slice(self, end):
        step = end - self._mark
        self.wall_s += step
        self.scaled_s += step * REFERENCE_S / loop_seconds()
        self.loops += 1

    def _tick(self, signum, frame):
        self._slice(perf_counter())
        self._mark = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._slice(end)
        return False

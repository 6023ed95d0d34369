"""The host's speed during a round, read from a fixed kernel timed every 50 ms.

On a shared host the same work can run up to twice as slow for seconds or
minutes at a time, in CPU time as much as in wall time, so a round's time in
seconds moves with the neighbours.  A SpeedProbe interrupts the measured
rounds with SIGALRM every PERIOD_S and times one call of ``kernel``, plain
Python arithmetic of the kind discdet does (a modular polynomial power and a
row reduction) that never touches discdet.  Each stretch of the program's
time between two samples, divided by the kernel times around it, is its time
in kernel units ("ref"): a host slowdown stretches both and cancels, while a
change to discdet moves only the stretches.
"""

import signal
from contextlib import contextmanager
from time import perf_counter_ns

import refarith as ref

PERIOD_S = 0.05
# The kernel time that defines the reference speed: a set-up of s seconds in
# a run whose median kernel time is k reads s * KERNEL_REF_S / k.
KERNEL_REF_S = 1e-3
_P = 10007
_POLY = [3, 1, 4, 1, 5, 9, 2, 6]


def _lcg_rows(n, x=1):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = x * 48271 % 2147483647
            row.append(x % _P)
        rows.append(row)
    return rows


_ROWS = _lcg_rows(16)  # nonsingular mod _P, so the elimination runs to the end


def kernel():
    """Fixed work, about 1 ms on a 2-core x86 VM; its result is checked."""
    return ref.poly_power(_POLY, 10, _P)[40], ref.det_mod(_ROWS, _P)


KERNEL_RESULT = kernel()


class SpeedProbe:
    """The program's time in kernel units, added up sample by sample.

    Each sample times one kernel call and keeps it in ``kernel_ns``.  The
    program's time since the previous sample ended is divided by the mean of
    the kernel times at both ends of that stretch and added to ``ref``;
    ``program_ns`` adds up the same stretches in plain nanoseconds.  A
    slowdown of the host is thus read where it happens, not averaged over a
    whole round.
    """

    def __init__(self):
        self.ref = 0.0
        self.program_ns = 0
        self.kernel_ns = []
        self.wrong = 0
        self._busy = False
        self._last_end = None

    def sample(self, *_signal_args):
        if self._busy:  # SIGALRM arrived during an explicit sample
            return
        self._busy = True
        start = perf_counter_ns()
        out = kernel()
        end = perf_counter_ns()
        if self._last_end is not None:
            stretch = start - self._last_end
            self.ref += 2 * stretch / (end - start + self.kernel_ns[-1])
            self.program_ns += stretch
        self.kernel_ns.append(end - start)
        self._last_end = end
        self.wrong += out != KERNEL_RESULT
        self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

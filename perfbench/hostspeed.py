"""Host speed during an operation, for timing on a host whose speed varies.

On a shared host the same code can run at different speeds from one
second to the next (README.md, Noise).  `HostSpeed` times a fixed loop
of about 0.2 ms at the start of an operation and then every `interval`
seconds of it, from a SIGALRM handler in the operation's own thread.
`work()` divides each stretch of the operation between two probes by
the loop time of the probe that began it, which gives the operation's
length in loop times, probe time left out.  Times `REFERENCE_LOOP_S`,
that is the operation's wall time on a host that runs the loop in that
time.  The loop does what ratimm's hot paths do, `Fraction` arithmetic
and dict stores under tuple keys, so that it slows as they do.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05  # seconds between probes
LOOP_STEPS = 100
# about the loop time at the fast speed of the host the benchmark was built on
REFERENCE_LOOP_S = 0.2e-3
WARM_UP_LOOPS = 20


def _loop() -> dict:
    table = {}
    total = Fraction(0)
    for i in range(LOOP_STEPS):
        total += Fraction(i, 7)
        table[i % 13, i] = total
    return table


class HostSpeed:
    """Context manager: probes the host's speed while it is entered."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        # (probe start, probe end) of the current operation
        self.probes: list[tuple[float, float]] = []
        self.loop_times: list[float] = []  # every probe of the run
        for _ in range(WARM_UP_LOOPS):  # the interpreter specializes the loop
            _loop()

    def _probe(self, *_):
        start = perf_counter()
        _loop()
        end = perf_counter()
        self.probes.append((start, end))
        self.loop_times.append(end - start)

    def __enter__(self):
        self.probes = []
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def work(self, start: float, end: float) -> float:
        """Length of [start, end] in loop times, probes left out."""
        total = 0.0
        bounds = self.probes + [(end, end)]
        for (p_start, p_end), (next_start, _) in zip(bounds, bounds[1:]):
            lo, hi = max(p_end, start), min(next_start, end)
            if hi > lo:
                total += (hi - lo) / (p_end - p_start)
        return total

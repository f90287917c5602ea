"""Host-speed normalization of the end-to-end times.

On a shared machine the same computation can take twice as long from one
second to the next, because the host's CPU throughput drifts.  Medians
over a run do not remove drift that lasts longer than the run.  So while
a stage runs, a timer signal interrupts it every ``INTERVAL_S`` and runs a
fixed pure-Python probe of about 0.1 ms.  The mean probe time measures how
fast the host was during that stage.  A stage's time is reported as

    (wall time - probe time) * REFERENCE_S / mean probe time

which is the time the stage would take on a host where the probe takes
``REFERENCE_S``.  The probe costs about 0.6% of the run and is excluded
from the times.  ``setup_s`` is normalized the same way, with the probe
running inside the fresh interpreter.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
#: The probe's typical time on the 2-core machine the baseline was recorded on.
REFERENCE_S = 1.2e-4
_PROBE_STEPS = 300


def probe() -> float:
    """A fixed amount of interpreter work: float arithmetic, tuples and a dict."""
    acc = 0.0
    seen = {}
    for i in range(_PROBE_STEPS):
        acc += (i * 0.5) ** 0.5
        seen[i % 7] = (acc, i)
        acc -= len(seen) * 1e-3
    return acc


class HostSpeed:
    """Runs the probe on a SIGALRM timer while the ``with`` block runs."""

    def __init__(self):
        self.count = 0
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.spent += perf_counter() - t0
        self.count += 1

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference probe time over the mean probe time seen."""
        if self.count:
            return REFERENCE_S * self.count / self.spent
        t0 = perf_counter()  # a block shorter than one interval: probe once now
        probe()
        return REFERENCE_S / (perf_counter() - t0)

    def normalize(self, seconds: float, wall: float) -> float:
        """``seconds`` of a block that took ``wall``, minus its share of probe time, scaled."""
        return seconds * (1.0 - self.spent / wall) * self.scale()

"""Host-speed normalization of the benchmark's timings.

The benchmark runs on small shared hosts whose speed drifts by 10-30 %
over tens of seconds as neighbours come and go; passes of identical work
drift with it. A fixed probe, fired by a timer every ``PERIOD_S`` while a
run is measured, samples the host's speed *during* each timed window.
A window's time is then reported as::

    (wall seconds - seconds in the probe) * REFERENCE_PROBE_S / mean probe

that is, in seconds on a host where the probe takes ``REFERENCE_PROBE_S``.
The probe is the benchmark's own code: small-array NumPy arithmetic, the
program's commonest operation, timed after an untimed warm-up so that its
data is in cache whatever the interrupted work was doing. A change to the
program cannot move it. Raw seconds are kept in each run's record.

The scale uses the *mean* probe time of a window, not its median. The
host switches between a fast and a slow state for seconds at a time, so
probe times are bimodal (about 0.085 ms and 0.15 ms on the 2-core host
the benchmark was tuned on); a window's median jumps between the two
modes as their shares cross one half, while its mean follows the
time-averaged speed the window's work saw. Over 52 passes of ``schedule``
and 53 of ``calibrate``, the spread of 3- to 5-pass medians was
0.19-0.29 unnormalized, 0.13-0.23 scaled by the median probe and
0.03-0.05 scaled by the mean.

The timer is per process: worker processes are not probed, but they run on
the same host and drift with it. While this process's own workers hold
the cores (inside :func:`quiet`), the probe would time the contention
with them rather than the host, so it does not sample.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter
from typing import Iterator, List, Tuple

import numpy as np

#: Probe interval. At ~0.25 ms per probe this costs about 1 % of a pass.
PERIOD_S = 0.025
#: Probe seconds on the reference host; sets the scale of reported times.
REFERENCE_PROBE_S = 0.0002
#: Windows with fewer samples use the whole run's mean probe.
MIN_SAMPLES = 5

#: Depth of nested :func:`quiet` blocks; the probe skips while above 0.
_quiet_depth = 0


@contextmanager
def quiet() -> Iterator[None]:
    """Suspend probing while this process's own workers hold the cores."""
    global _quiet_depth
    _quiet_depth += 1
    try:
        yield
    finally:
        _quiet_depth -= 1


class HostSpeed:
    """Samples the probe while in its ``with`` block."""

    def __init__(self) -> None:
        self._grid = np.linspace(0.0, 1.0, 112)
        #: (start, seconds in the handler, seconds of the timed probe).
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _steps(self, count: int) -> float:
        total = 0.0
        for step in range(count):
            total += float((self._grid * (1.0 + step * 1e-6) + 0.5).sum())
        return total

    def _probe(self, signum, frame) -> None:
        if _quiet_depth:
            return
        start = perf_counter()
        self._steps(8)
        timed = perf_counter()
        self._steps(30)
        end = perf_counter()
        self.samples.append((start, end - start, end - timed))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_probe(self, start: float = 0.0, end: float = float("inf")) -> float:
        inside = [probe for t, _, probe in self.samples if start <= t < end]
        if len(inside) < MIN_SAMPLES:
            inside = [probe for _, _, probe in self.samples]
        return fmean(inside)

    def unprobed(self, start: float, end: float) -> float:
        """Seconds of the window ``[start, end)`` not spent in the probe."""
        return end - start - sum(s for t, s, _ in self.samples if start <= t < end)

    def normalize(self, start: float, end: float) -> float:
        """Reference-host seconds of the window ``[start, end)``."""
        return self.unprobed(start, end) * self.scale(start, end)

    def scale(self, start: float, end: float) -> float:
        """Factor from this host's seconds to reference-host seconds."""
        return REFERENCE_PROBE_S / self.mean_probe(start, end)

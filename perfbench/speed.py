"""The host's speed, probed while a workload runs.

The 2-CPU VM (Xeon, 2.0 GHz) the benchmark was built on shares its cores:
the same fixed Python loop runs at one speed for a few seconds and at about
half of it for the next few (CPU time moves with wall time, so the process
is not descheduled; the core itself is slower).  A run of at most a minute
therefore reads fast or slow depending on how much of it fell into fast
spells, and its median wall time spreads by more than any useful bound.

`Probe` times a short, fixed exact-arithmetic loop - the kind of work treehopf
does - every 25 ms from a SIGALRM handler, so the samples are spread evenly
over the run's wall time and land between the program's own steps.
`reference_s` scales the run's own time (probe time taken out) by the mean,
over the samples, of (REFERENCE_PROBE_S / probe time) ** elasticity: the time
the run would have taken at the reference speed.  A change that makes
treehopf do less work moves the scaled time; a slow spell of the host moves
the probe and the raw time together and mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_OPS = 250  # Fraction additions per probe: 0.6 to 1.2 ms
INTERVAL_S = 0.025  # one probe every 25 ms of wall time: 2 to 5% of the run
# How much of the host's change in speed a time follows (1: all of it, as
# the probe's own time does), fitted to 2.0 GHz Xeon runs that span both
# speeds: the iteration-to-iteration spread of scaled workload times was
# least at 0.9-0.95 for sweep and renorm and 0.8 for enum, whose 360 MB of
# trees make it wait on memory more, and set-up (process start, imports)
# took 0.110 s against 0.135 s while the probe took 0.69 against 1.18 ms.
WALL_ELASTICITY = 0.85
SETUP_ELASTICITY = 0.4
# The probe time that scaled times refer to: a run whose probes average 1 ms
# reports its own time.  It sets the unit of the scaled times and nothing else.
REFERENCE_PROBE_S = 0.001


def probe_once() -> float:
    """Seconds for the fixed loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(PROBE_OPS):
        acc += Fraction(i % 7 - 3, 1 + i % 5)
    return time.perf_counter() - start


class Probe:
    """Probes the host speed on a wall-clock timer until stopped."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # an alarm that fires inside a probe is dropped
            return
        self._busy = True
        try:
            self.samples.append(probe_once())
        finally:
            self._busy = False

    def start(self) -> None:
        probe_once()  # warm the loop's code and objects before timing
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        """Seconds of every probe, and their total."""
        return {"probe_s": sum(self.samples), "samples": self.samples}


def reference_s(wall_s: float, probe: dict, elasticity: float) -> float:
    """`wall_s` without the probes' own time, at the reference speed.

    `elasticity` is how much of the host's change in speed the workload
    follows: at 1 its time moves with the probe's, below 1 it moves less.
    """
    if not probe["samples"]:
        return wall_s
    factor = statistics.fmean((REFERENCE_PROBE_S / s) ** elasticity for s in probe["samples"])
    return (wall_s - probe["probe_s"]) * factor


def burst(n: int = 4) -> dict:
    """`n` probes in a row, after one untimed, in the form of `Probe.summary`.

    Two bursts bracket an interval too short for the timer, such as set-up.
    """
    start = time.perf_counter()
    probe_once()
    samples = [probe_once() for _ in range(n)]
    return {"probe_s": time.perf_counter() - start, "samples": samples}

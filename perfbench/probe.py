"""Host-speed probe: a fixed interpreter-bound workload.

The shared hosts this benchmark runs on change speed under it: each
vCPU switches between a fast and a ~50% slower state every fraction of
a second, and the mix drifts over minutes, so raw times of the same
code spread 15-25% between runs.  The probe is timed on the working
process's CPU beside the measured work, and a time is reported both as
measured and scaled to the host's speed at that moment::

    ref_s = measured_s * REFERENCE_S / probe_s

* serve workloads: before and after each chunk of the closed loop,
  while the load is paused (:func:`probe_on`);
* paper-suite: on a timer inside the suite's own process
  (:class:`Sampler`), every :data:`SAMPLE_INTERVAL_S`;
* set-up: before and after each set-up, on the working process's CPU
  (:func:`scaled`).

A change that makes the server busy while idle (a background thread)
also slows the probe on its CPU; the raw times printed beside the
scaled ones still show it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: Probe duration (one :func:`spin`) on the host the benchmark was
#: defined on, in its fast state: scaled times read as seconds there.
REFERENCE_S = 4.0e-3

#: Period of the in-process probe timer; a probe costs ~4 ms (<1%).
SAMPLE_INTERVAL_S = 0.5


def spin() -> float:
    """Run the fixed workload once; its duration in seconds."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        table[i & 255] = acc
        acc = (acc + i * 7) % 1_000_003
    return time.perf_counter() - t0


def probe_on(cpu: int | None, repeats: int = 5) -> float:
    """Median of ``repeats`` spins on ``cpu``; this thread stays put."""
    if cpu is None:
        return statistics.median(spin() for _ in range(repeats))
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return statistics.median(spin() for _ in range(repeats))
    finally:
        os.sched_setaffinity(0, home)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Sampler:
    """Spins on a timer signal while this process works.

    The handler runs in the main thread between bytecodes, so each
    probe lands on the working process's own CPU at a moment unrelated
    to the host's state; the mean of the samples is the run's speed.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(spin())

    def start(self) -> None:
        self.samples = [spin()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)

    def stop(self) -> float:
        """Stop sampling; the mean probe duration."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(spin())
        return statistics.fmean(self.samples)

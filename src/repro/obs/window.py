"""Rolling request windows: one time-bucketed ring per timescale.

The cumulative instruments in :mod:`repro.obs.metrics` answer "what
happened since the process started"; a long-running service also needs
"what is happening *now*".  A :class:`RequestWindow` slices time into
fixed buckets arranged in a ring — by default 60 buckets, so a 1 s
bucket width gives a 60 s window and a 60 s width gives a 1 h window —
and lazily reclaims stale slots on write, so cost is O(1) per request
with zero background threads.

Each slot holds everything every reader needs about the requests that
finished in it: the request count, the 5xx count, the count at or over
each latency threshold, and the latency distribution in the
power-of-two bin layout of :class:`repro.obs.metrics.Histogram` (same
``bin_index`` / ``bin_edges`` math, so windowed p50/p95/p99 are directly
comparable with the cumulative snapshot's quantiles, bucket for bucket).
The ``/metrics`` windows block, the SLO burn rates
(:mod:`repro.obs.slo`) and the dashboard all read the same slots, so a
finished request is written once per timescale.

Clocks are injectable (``time.monotonic`` by default) and every read
method accepts an explicit ``now``, which is what lets tests inject an
old latency spike and watch it age out without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs import names
from repro.obs.metrics import Histogram

#: Schema version of the ``windows`` block served by ``/metrics``;
#: bump on breaking changes (the serve benchmark is a tolerant reader).
WINDOW_SCHEMA = 1

# Slot layout: [epoch, requests, errors, over, bins, sum, min, max], where
# ``over[i]`` counts requests with duration >= thresholds[i].
_REQUESTS, _ERRORS, _OVER, _BINS, _SUM, _MIN, _MAX = range(1, 8)


class RequestWindow:
    """Finished requests over a trailing window of ``buckets`` slots.

    Slot ``epoch % buckets`` holds data for epoch ``floor(now /
    bucket_s)``; a slot whose stored epoch has fallen out of the live
    window is reset on next use and skipped on reads.  ``thresholds``
    are the latency thresholds (seconds) whose at-or-over counts each
    slot keeps, one per latency objective.
    """

    def __init__(self, bucket_s: float = 1.0, buckets: int = 60,
                 clock: Callable[[], float] = time.monotonic,
                 thresholds: tuple[float, ...] = ()) -> None:
        if bucket_s <= 0 or buckets < 2:
            raise ValueError(
                f"want bucket_s > 0 and buckets >= 2, got "
                f"bucket_s={bucket_s} buckets={buckets}")
        self.bucket_s = float(bucket_s)
        self.buckets = int(buckets)
        self.thresholds = tuple(thresholds)
        self.clock = clock
        self._created = clock()
        self._slots: list = [None] * self.buckets
        self._lock = threading.Lock()

    # -- ingest ---------------------------------------------------------------

    def record(self, duration_s: float, error: bool,
               now: float | None = None) -> None:
        """Count one finished request in the slot for ``now``."""
        if duration_s < 0:
            raise ValueError(f"request duration {duration_s} is negative")
        now = self.clock() if now is None else now
        epoch = int(now // self.bucket_s)
        idx = epoch % self.buckets
        e = Histogram.bin_index(duration_s)
        with self._lock:
            slot = self._slots[idx]
            if slot is None or slot[0] != epoch:
                self._slots[idx] = slot = [
                    epoch, 0, 0, [0] * len(self.thresholds), {}, 0.0,
                    duration_s, duration_s]
            slot[_REQUESTS] += 1
            if error:
                slot[_ERRORS] += 1
            for i, threshold in enumerate(self.thresholds):
                if duration_s >= threshold:
                    slot[_OVER][i] += 1
            bins = slot[_BINS]
            bins[e] = bins.get(e, 0) + 1
            slot[_SUM] += duration_s
            if duration_s < slot[_MIN]:
                slot[_MIN] = duration_s
            elif duration_s > slot[_MAX]:
                slot[_MAX] = duration_s

    # -- read side ------------------------------------------------------------

    def _aligned(self, now: float, last: int | None = None) -> list:
        """One entry per bucket, oldest first: the slot, or ``None``.

        ``last`` restricts to the most recent ``last`` buckets — how the
        SLO tracker carves a 5 m sub-window out of the 1 h ring.  The
        caller holds the lock.
        """
        span = self.buckets if last is None else min(last, self.buckets)
        cur = int(now // self.bucket_s)
        out = []
        for epoch in range(cur - span + 1, cur + 1):
            slot = self._slots[epoch % self.buckets]
            out.append(slot if slot is not None and slot[0] == epoch else None)
        return out

    def span_s(self, now: float | None = None) -> float:
        """Effective averaging span: window size capped by lifetime.

        Rates divide by this, so a service two seconds old reports its
        actual rate instead of one diluted over an empty minute.
        """
        now = self.clock() if now is None else now
        alive = max(now - self._created, self.bucket_s)
        return min(self.buckets * self.bucket_s, alive)

    def totals(self, now: float | None = None, last: int | None = None
               ) -> tuple[int, int, tuple[int, ...]]:
        """``(requests, errors, over)`` summed over the live window."""
        now = self.clock() if now is None else now
        requests = errors = 0
        over = [0] * len(self.thresholds)
        with self._lock:
            for slot in self._aligned(now, last):
                if slot is None:
                    continue
                requests += slot[_REQUESTS]
                errors += slot[_ERRORS]
                for i, n in enumerate(slot[_OVER]):
                    over[i] += n
        return requests, errors, tuple(over)

    def merged(self, now: float | None = None) -> Histogram:
        """A transient cumulative :class:`Histogram` of the live latencies."""
        now = self.clock() if now is None else now
        with self._lock:
            return _histogram(self._aligned(now))

    def summary(self, now: float | None = None) -> dict:
        """The standard histogram summary (count/sum/mean/min/max/p*)."""
        out = self.merged(now).summary()
        out.pop("bins", None)  # window payloads stay compact
        return out

    def _column(self, field: int, now: float | None) -> list[float]:
        # Floats, as window_schema 1 has always served these series.
        now = self.clock() if now is None else now
        with self._lock:
            return [0.0 if slot is None else float(slot[field])
                    for slot in self._aligned(now)]

    def series(self, now: float | None = None) -> list[float]:
        """Per-bucket request counts, oldest to newest; stale buckets 0."""
        return self._column(_REQUESTS, now)

    def error_series(self, now: float | None = None) -> list[float]:
        """Per-bucket 5xx counts, oldest to newest; stale buckets 0."""
        return self._column(_ERRORS, now)

    def bucket_quantiles(self, q: float,
                         now: float | None = None) -> list[float | None]:
        """Per-bucket quantile (``None`` for empty buckets), oldest first.

        The dashboard's tail-latency sparkline: one p99 per time bucket.
        """
        now = self.clock() if now is None else now
        with self._lock:
            hists = [None if slot is None else _histogram((slot,))
                     for slot in self._aligned(now)]
        return [None if h is None else h.quantile(q) for h in hists]


def _histogram(slots) -> Histogram:
    """The latency :class:`Histogram` of ``slots`` (``None`` entries skipped).

    The caller holds the ring's lock.
    """
    hist = Histogram(names.WINDOW_LATENCY_SECONDS)
    for slot in slots:
        if slot is None:
            continue
        for e, c in slot[_BINS].items():
            hist.bins[e] = hist.bins.get(e, 0) + c
        hist.count += slot[_REQUESTS]
        hist.sum += slot[_SUM]
        vmin, vmax = slot[_MIN], slot[_MAX]
        hist.min = vmin if hist.min is None else min(hist.min, vmin)
        hist.max = vmax if hist.max is None else max(hist.max, vmax)
    return hist

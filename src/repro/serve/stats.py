"""Per-server request statistics: rolling windows, SLOs, request ring.

One :class:`ServiceTelemetry` lives on each
:class:`repro.serve.http.PredictionServer` and is the single place a
finished request is recorded.  Each :meth:`record` call feeds

* the cumulative session metrics (``serve.requests`` per
  ``status_class`` and the ``serve.request_seconds`` timer) — when a
  telemetry session is active;
* two request rings (:mod:`repro.obs.window`), a fast 60×1 s one and a
  slow 60×1 m one, each written once.  Their slots hold the request,
  5xx and over-threshold counts and the latency bins that the
  ``/metrics`` windows block, the SLO burn rates (:mod:`repro.obs.slo`,
  driving ``degraded`` on ``/healthz``) and the dashboard all read;
* a bounded ring of recent and slowest requests — each entry carrying
  its ``request_id`` and, for traced requests, the detached span tree
  — behind ``/debug/requests``.

Unlike the session metrics, the windows and the request ring live on
the *server object*, so they work (and the dashboard renders) even when
telemetry is disabled, and two servers in one process never mix
streams.  The clock is injectable for tests.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import Callable

from repro import obs
from repro.obs import names
from repro.obs.slo import DEFAULT_OBJECTIVES, SLOTracker, request_windows
from repro.obs.window import WINDOW_SCHEMA

#: How many recent / slowest requests ``/debug/requests`` retains.
REQUEST_LOG_SIZE = 128

#: Requests at or above this duration are logged as slow via
#: ``serve.request_logged`` structured-log events.
SLOW_REQUEST_S = 0.25


class RequestLog:
    """Bounded ring of recent requests plus a bounded slowest-N board.

    The board is a min-heap keyed on ``(duration_s, -seq)``: its root is
    the entry a newcomer must beat — the fastest, and among equal
    durations the latest — so :meth:`add` never sorts.  Read out, the
    board runs slowest first, the earlier request first among ties.
    """

    def __init__(self, size: int = REQUEST_LOG_SIZE) -> None:
        if size < 1:
            raise ValueError("request log size must be >= 1")
        self.size = size
        self.total = 0
        self._recent: deque[dict] = deque(maxlen=size)
        self._slowest: list[tuple[float, int, dict]] = []
        self._lock = threading.Lock()

    def add(self, entry: dict) -> None:
        with self._lock:
            self.total += 1
            self._recent.append(entry)
            # ``-total`` is unique, so the heap never compares entries.
            item = (entry["duration_s"], -self.total, entry)
            if len(self._slowest) < self.size:
                heapq.heappush(self._slowest, item)
            elif item > self._slowest[0]:
                heapq.heapreplace(self._slowest, item)

    def _board(self) -> list[dict]:
        """The slowest board in read-out order; the caller holds the lock."""
        return [item[2] for item in sorted(self._slowest, reverse=True)]

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent requests, newest first."""
        with self._lock:
            out = list(reversed(self._recent))
        return out[:limit] if limit else out

    def slowest(self, limit: int | None = None) -> list[dict]:
        """Slowest retained requests, slowest first."""
        with self._lock:
            out = self._board()
        return out[:limit] if limit else out

    def find(self, request_id: str) -> dict | None:
        """Look a request up by id across both boards."""
        with self._lock:
            for entry in reversed(self._recent):
                if entry["request_id"] == request_id:
                    return entry
            for entry in self._board():
                if entry["request_id"] == request_id:
                    return entry
        return None


class ServiceTelemetry:
    """The per-server aggregation point for finished requests."""

    def __init__(self, clock: Callable[[], float] = time.monotonic, *,
                 objectives=DEFAULT_OBJECTIVES,
                 request_log_size: int = REQUEST_LOG_SIZE,
                 slow_request_s: float = SLOW_REQUEST_S) -> None:
        self._clock = clock
        self.slow_request_s = slow_request_s
        self.fast, self.slow = request_windows(objectives, clock)
        self.slo = SLOTracker(objectives, self.fast, self.slow)
        self.request_log = RequestLog(request_log_size)
        self._eval_epoch: int | None = None

    # -- ingest ---------------------------------------------------------------

    def record(self, *, method: str, path: str, status: int,
               duration_s: float, request_id: str,
               trace: dict | None = None) -> None:
        """Record one finished request on every aggregation surface.

        Called exactly once per response the HTTP layer writes — error
        paths and malformed-framing rejections included — so windowed
        error rates and ``serve.requests{status_class=...}`` are
        trustworthy denominators.
        """
        now = self._clock()
        error = status >= 500

        session = obs.session()
        if session is not None:
            metrics = session.metrics
            metrics.counter(names.SERVE_REQUESTS,
                            status_class=f"{status // 100}xx").inc()
            metrics.timer(names.SERVE_REQUEST_SECONDS).observe(duration_s)

        self.fast.record(duration_s, error, now)
        self.slow.record(duration_s, error, now)

        self.request_log.add({
            "request_id": request_id,
            "ts_unix": round(time.time(), 6),
            "method": method,
            "path": path,
            "status": status,
            "duration_s": round(duration_s, 6),
            "trace": trace,
        })
        if error or duration_s >= self.slow_request_s:
            obs.log_event(
                names.EVENT_SERVE_REQUEST,
                level="error" if error else "warning",
                request_id=request_id, method=method, path=path,
                status=status, duration_s=round(duration_s, 6))

        # Re-evaluate SLO burn rates at most once per second: transition
        # events fire promptly under load without a per-request scan of
        # the rings.
        epoch = int(now)
        if epoch != self._eval_epoch:
            self._eval_epoch = epoch
            self.slo.evaluate(now)

    # -- read side ------------------------------------------------------------

    def windows_payload(self, now: float | None = None) -> dict:
        """The ``windows`` block ``/metrics`` serves next to the snapshot."""
        now = self._clock() if now is None else now
        out: dict = {"window_schema": WINDOW_SCHEMA}
        for label, ring in (("fast", self.fast), ("slow", self.slow)):
            total, errs, _over = ring.totals(now)
            out[label] = {
                "bucket_s": ring.bucket_s,
                "buckets": ring.buckets,
                names.WINDOW_REQUESTS: {
                    "total": total,
                    "rate_per_s": round(total / ring.span_s(now), 3),
                    "series": ring.series(now),
                },
                names.WINDOW_ERRORS: {
                    "total": errs,
                    "error_rate": round(errs / total, 6) if total else 0.0,
                },
                names.WINDOW_LATENCY_SECONDS: ring.summary(now),
            }
        return out

    def slo_state(self, now: float | None = None) -> dict:
        """Evaluate and return the SLO block ``/healthz`` embeds.

        Goes through :meth:`SLOTracker.evaluate` (not the pure
        :meth:`~SLOTracker.state`) so a recovery that happens while no
        requests arrive still emits its transition event on the next
        health probe.
        """
        now = self._clock() if now is None else now
        return self.slo.evaluate(now)

    def debug_payload(self, limit: int = 32,
                      request_id: str | None = None) -> dict:
        """The ``/debug/requests`` payload: by id, or recent + slowest."""
        if request_id is not None:
            entry = self.request_log.find(request_id)
            if entry is None:
                return {"error": f"no retained request with id "
                                 f"{request_id!r}",
                        "retained": self.request_log.total}
            return {"request": entry}
        limit = max(1, min(limit, self.request_log.size))
        return {
            "capacity": self.request_log.size,
            "total": self.request_log.total,
            "recent": self.request_log.recent(limit),
            "slowest": self.request_log.slowest(limit),
        }


__all__ = ["ServiceTelemetry", "RequestLog", "REQUEST_LOG_SIZE",
           "SLOW_REQUEST_S"]

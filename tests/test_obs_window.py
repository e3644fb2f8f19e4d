"""Tests of the service-observability substrate.

Covers the rolling request windows (:mod:`repro.obs.window`), the
burn-rate SLO tracker (:mod:`repro.obs.slo`), trace-context propagation
across thread-pool hops (:mod:`repro.obs.tracing`), and the bounded
structured-log buffer (:mod:`repro.obs.log`).  Everything time-based
runs against injected fake clocks — no sleeping.
"""

import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs import names
from repro.obs.log import DEFAULT_LOG_BUFFER, StructuredLog, parse_jsonl
from repro.obs.metrics import Histogram
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    FAST_BURN,
    SLObjective,
    SLOTracker,
    request_windows,
)
from repro.obs.tracing import Tracer
from repro.obs.window import RequestWindow
from repro.serve.stats import ServiceTelemetry


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    obs.disable()


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def record(ring, n, *, duration_s=0.001, error=False):
    for _ in range(n):
        ring.record(duration_s, error)


class TestRollingCounter:
    """Request counts kept by :class:`RequestWindow`."""

    def test_counts_within_the_window(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        record(ring, 3)
        assert ring.totals()[0] == 3

    def test_old_buckets_age_out(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        record(ring, 5)
        clock.advance(30)
        record(ring, 1)
        assert ring.totals()[0] == 6
        clock.advance(31)          # first bucket now outside the window
        assert ring.totals()[0] == 1
        clock.advance(30)          # second bucket gone too
        assert ring.totals() == (0, 0, ())

    def test_slot_reuse_resets_stale_data(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 4, clock, thresholds=(0.25,))
        record(ring, 9, duration_s=0.5, error=True)
        clock.advance(4)           # same ring slot, four epochs later
        record(ring, 1)
        assert ring.totals() == (1, 0, (0,))
        assert ring.summary()["max"] == 0.001

    def test_rate_uses_lifetime_not_window_when_young(self):
        # A two-second-old service reports its actual rate, not one
        # diluted over an empty minute.
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        record(ring, 10)
        clock.advance(2)
        assert ring.totals()[0] / ring.span_s() == pytest.approx(5.0)
        clock.advance(120)
        record(ring, 60)
        assert ring.totals()[0] / ring.span_s() == pytest.approx(1.0)

    def test_series_is_oldest_to_newest(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        record(ring, 1, error=True)
        clock.advance(2)
        record(ring, 3)
        series = ring.series()
        assert len(series) == 60
        assert series[-1] == 3.0
        assert series[-3] == 1.0
        assert sum(series) == 4.0
        errors = ring.error_series()
        assert errors[-3] == 1.0 and sum(errors) == 1.0

    def test_last_restricts_to_recent_buckets(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        record(ring, 5)
        clock.advance(10)
        record(ring, 1)
        assert ring.totals(last=5)[0] == 1
        assert ring.totals()[0] == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            RequestWindow().record(-1.0, False)

    @pytest.mark.parametrize("bucket_s,buckets", [(0.0, 60), (-1.0, 60),
                                                  (1.0, 1), (1.0, 0)])
    def test_bad_geometry_rejected(self, bucket_s, buckets):
        with pytest.raises(ValueError):
            RequestWindow(bucket_s, buckets)


class TestRollingHistogram:
    """Latency distribution kept by :class:`RequestWindow`."""

    def test_summary_over_live_window(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        for v in (0.001, 0.002, 0.004):
            ring.record(v, False)
        summary = ring.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 0.004
        assert "bins" not in summary

    def test_old_spike_ages_out_of_the_p99(self):
        # The acceptance scenario: inject an old latency spike, then
        # watch the windowed p99 reflect only the active window.
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        ring.record(5.0, False)                 # the spike
        clock.advance(30)
        for _ in range(50):
            ring.record(0.001, False)           # healthy traffic
        assert ring.summary()["p99"] >= 5.0     # spike still in window
        clock.advance(31)                       # spike bucket now aged out
        summary = ring.summary()
        assert summary["count"] == 50
        assert summary["p99"] < 0.01
        assert summary["max"] == 0.001

    def test_series_counts_per_bucket(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        ring.record(0.001, False)
        ring.record(0.002, False)
        clock.advance(1)
        ring.record(0.003, False)
        series = ring.series()
        assert series[-1] == 1
        assert series[-2] == 2

    def test_bucket_quantiles_mark_empty_buckets_none(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        ring.record(0.004, False)
        clock.advance(2)
        ring.record(0.001, False)
        quantiles = ring.bucket_quantiles(0.99)
        assert len(quantiles) == 60
        assert quantiles[-1] is not None
        assert quantiles[-2] is None
        assert quantiles[-3] is not None
        assert quantiles[-3] > quantiles[-1]

    def test_merged_matches_cumulative_histogram_layout(self):
        clock = FakeClock()
        ring = RequestWindow(1.0, 60, clock)
        cumulative = Histogram(names.WINDOW_LATENCY_SECONDS)
        for v in (0.001, 0.002, 0.3, 0.0):
            ring.record(v, False)
            cumulative.observe(v)
        merged = ring.merged()
        assert merged.count == 4
        assert merged.sum == pytest.approx(0.303)
        assert merged.bins == cumulative.bins
        assert (merged.min, merged.max) == (cumulative.min, cumulative.max)


class TestRequestWindow:
    @pytest.mark.parametrize("status,duration_s", [
        (200, 0.001),               # healthy
        (503, 0.001),               # 5xx
        (200, 0.25),                # at the latency threshold
        (500, 0.9),                 # both
    ])
    def test_each_request_writes_each_ring_once(self, monkeypatch, status,
                                                duration_s):
        writes = []
        original = RequestWindow.record

        def spy(ring, *args, **kwargs):
            writes.append(ring)
            return original(ring, *args, **kwargs)

        monkeypatch.setattr(RequestWindow, "record", spy)
        obs.enable(fresh=True)
        stats = ServiceTelemetry(FakeClock())
        stats.record(method="POST", path="/predict", status=status,
                     duration_s=duration_s, request_id="r1")
        assert len(writes) == 2
        assert set(map(id, writes)) == {id(stats.fast), id(stats.slow)}

    def test_counts_match_the_objective_rules(self):
        clock = FakeClock()
        fast, slow = request_windows(DEFAULT_OBJECTIVES, clock)
        requests = [(error, duration) for error in (False, True)
                    for duration in (0.0, 0.1, 0.2499, 0.25, 0.3, 2.0)]
        for error, duration in requests:
            fast.record(duration, error)
            slow.record(duration, error)
        avail, latency = DEFAULT_OBJECTIVES
        expected = (
            len(requests),
            sum(avail.is_bad(error=e, duration_s=d) for e, d in requests),
            (sum(latency.is_bad(error=e, duration_s=d)
                 for e, d in requests),))
        assert fast.totals() == slow.totals() == expected == (12, 6, (6,))

    def test_concurrent_records_lose_no_update(self):
        # More threads than cores and a tiny switch interval: a lost
        # read-modify-write in a ring slot or the request log shows up
        # as a short count.
        stats = ServiceTelemetry(FakeClock())
        per_thread, n_threads = 500, 6

        def worker(t: int) -> None:
            for i in range(per_thread):
                stats.record(method="POST", path="/predict",
                             status=503 if i % 10 == 0 else 200,
                             duration_s=0.3 if i % 7 == 0 else 0.001,
                             request_id=f"{t}-{i}")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        total = per_thread * n_threads
        errors = n_threads * len(range(0, per_thread, 10))
        slow = n_threads * len(range(0, per_thread, 7))
        assert stats.fast.totals() == stats.slow.totals() == (
            total, errors, (slow,))
        assert stats.fast.merged().count == total
        assert stats.request_log.total == total
        board = stats.request_log.slowest()
        assert len(board) == stats.request_log.size
        assert all(e["duration_s"] == 0.3 for e in board)

    def test_requests_sum_over_thresholds(self):
        clock = FakeClock()
        ring = RequestWindow(60.0, 60, clock, thresholds=(0.1, 0.5))
        for duration in (0.05, 0.1, 0.2, 0.5, 0.7):
            ring.record(duration, False)
        assert ring.totals() == (5, 0, (4, 2))


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="throughput", target=0.9)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.9)

    def test_is_bad(self):
        avail = SLObjective(name="a", kind="availability", target=0.999)
        lat = SLObjective(name="l", kind="latency", target=0.99,
                          threshold_s=0.25)
        assert avail.is_bad(error=True, duration_s=0.001)
        assert not avail.is_bad(error=False, duration_s=9.0)
        assert lat.is_bad(error=False, duration_s=0.25)
        assert not lat.is_bad(error=False, duration_s=0.2)


def make_tracker(clock, objectives=DEFAULT_OBJECTIVES):
    """A tracker over fresh rings, plus a function recording into both."""
    fast, slow = request_windows(objectives, clock)
    tracker = SLOTracker(objectives, fast, slow)

    def feed(*, error: bool, duration_s: float, n: int = 1) -> None:
        for _ in range(n):
            fast.record(duration_s, error)
            slow.record(duration_s, error)

    return tracker, feed


class TestSLOTracker:
    def test_burn_rate_math(self):
        clock = FakeClock()
        tracker, feed = make_tracker(
            clock, (SLObjective(name="availability", kind="availability",
                                target=0.999),))
        feed(error=True, duration_s=0.001, n=5)
        feed(error=False, duration_s=0.001, n=5)
        win = tracker.state()["objectives"]["availability"]["windows"]
        assert win["1m"]["total"] == 10
        assert win["1m"]["bad"] == 5
        assert win["1m"]["bad_fraction"] == pytest.approx(0.5)
        # budget 0.001, bad fraction 0.5 -> burning 500x sustainable
        assert win["1m"]["burn_rate"] == pytest.approx(500.0)

    def test_degrade_needs_both_windows(self):
        # A burn confined to the 1 m window (stale 5 m confirmation)
        # must not degrade; that is the whole point of the multi-window
        # rule.  Drive the 5 m window stale by keeping bad traffic
        # inside one 60 s bucket and evaluating 6 minutes later --
        # the 1 m ring has wrapped but the slow ring still holds it.
        clock = FakeClock()
        tracker, feed = make_tracker(clock)
        feed(error=True, duration_s=0.001, n=20)
        state = tracker.state()
        assert state["status"] == "degraded"    # both windows burning
        clock.advance(90)                       # out of 1m, still in 5m
        feed(error=False, duration_s=0.001, n=200)
        state = tracker.state()
        win = state["objectives"]["availability"]["windows"]
        assert win["5m"]["burn_rate"] >= FAST_BURN
        assert win["1m"]["burn_rate"] < FAST_BURN
        assert state["status"] == "ok"

    def test_degrade_and_recover_cycle(self):
        clock = FakeClock()
        tracker, feed = make_tracker(clock)
        feed(error=True, duration_s=0.001, n=50)
        assert tracker.state()["status"] == "degraded"
        assert "availability" in tracker.state()["degraded_objectives"]
        clock.advance(6 * 60)                   # bad epoch leaves 1m and 5m
        feed(error=False, duration_s=0.001, n=50)
        state = tracker.state()
        assert state["status"] == "ok"
        assert state["degraded_objectives"] == []

    def test_latency_objective_counts_slow_requests_as_bad(self):
        clock = FakeClock()
        tracker, feed = make_tracker(clock)
        feed(error=False, duration_s=0.5)       # slow but 200
        win = tracker.state()["objectives"]
        assert win["latency"]["windows"]["1m"]["bad"] == 1
        assert win["availability"]["windows"]["1m"]["bad"] == 0

    def test_evaluate_emits_transition_events_and_gauges(self):
        tel = obs.enable(fresh=True)
        clock = FakeClock()
        tracker, feed = make_tracker(clock)
        feed(error=True, duration_s=0.001, n=50)
        tracker.evaluate()
        degraded = tel.log.query(names.EVENT_SLO_DEGRADED)
        assert len(degraded) == 1
        assert degraded[0]["objective"] == "availability"
        assert degraded[0]["burn_1m"] >= FAST_BURN
        snap = tel.metrics.snapshot()
        key = names.SERVE_SLO_DEGRADED + "{objective=availability}"
        assert snap[key]["value"] == 1.0
        burn_key = (names.SERVE_SLO_BURN_RATE
                    + "{objective=availability,window=1m}")
        assert snap[burn_key]["value"] >= FAST_BURN

        tracker.evaluate()                      # steady state: no re-emit
        assert len(tel.log.query(names.EVENT_SLO_DEGRADED)) == 1

        clock.advance(6 * 60)
        feed(error=False, duration_s=0.001)
        tracker.evaluate()
        assert len(tel.log.query(names.EVENT_SLO_RECOVERED)) == 1
        assert tel.metrics.snapshot()[key]["value"] == 0.0

    def test_bad_configurations_rejected(self):
        fast, slow = request_windows(DEFAULT_OBJECTIVES)
        with pytest.raises(ValueError):
            SLOTracker((), fast, slow)
        dup = SLObjective(name="a", kind="availability", target=0.9)
        with pytest.raises(ValueError):
            SLOTracker((dup, dup), fast, slow)
        # A latency objective needs its threshold counted by both rings.
        strict = SLObjective(name="strict", kind="latency", target=0.99,
                             threshold_s=0.1)
        with pytest.raises(ValueError):
            SLOTracker((strict,), fast, slow)


class TestTraceContextPropagation:
    def test_copied_context_parents_spans_across_thread_hop(self):
        tracer = Tracer()

        def worker():
            with tracer.span("inner"):
                pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            with tracer.span("request", request_id="r1") as root:
                ctx = contextvars.copy_context()
                pool.submit(ctx.run, worker).result()
        assert [c.name for c in root.children] == ["inner"]
        assert len(tracer.roots) == 1

    def test_uncopied_context_orphans_the_span(self):
        # Without copy_context the pool thread sees an empty stack and
        # the span lands as its own root -- the failure mode the serve
        # dispatch path exists to avoid.
        tracer = Tracer()

        def worker():
            with tracer.span("orphan"):
                pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            with tracer.span("request") as root:
                pool.submit(worker).result()
        assert root.children == []
        assert [s.name for s in tracer.roots] == ["request", "orphan"]

    def test_current_and_current_label(self):
        tracer = Tracer()
        assert tracer.current is None
        assert tracer.current_label("request_id") is None
        with tracer.span("request", request_id="abc"):
            with tracer.span("inner") as inner:
                assert tracer.current is inner
                assert tracer.current_label("request_id") == "abc"
        assert tracer.current is None

    def test_detach_root(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            pass
        assert tracer.detach_root(root) is True
        assert tracer.roots == []
        assert tracer.detach_root(root) is False

    def test_concurrent_threads_do_not_cross_contaminate(self):
        tracer = Tracer()
        mismatches: list[tuple] = []
        barrier = threading.Barrier(8)

        def worker(rid: str) -> None:
            barrier.wait()
            for _ in range(50):
                with tracer.span("request", request_id=rid) as root:
                    with tracer.span("inner"):
                        seen = tracer.current_label("request_id")
                        if seen != rid:
                            mismatches.append((rid, seen))
                tracer.detach_root(root)

        threads = [threading.Thread(target=worker, args=(f"r{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []
        assert tracer.roots == []

    def test_log_event_stamps_request_id_from_enclosing_span(self):
        tel = obs.enable(fresh=True)
        with obs.span("serve.request", request_id="rid-1"):
            record = obs.log_event(names.EVENT_SLO_RECOVERED,
                                   objective="availability")
        assert record["request_id"] == "rid-1"
        assert record["span"] == "serve.request"
        assert tel.log.query(request_id="rid-1")


class TestLogBufferCap:
    def test_ring_evicts_oldest_and_counts_dropped(self):
        log = StructuredLog(maxlen=3)
        for i in range(5):
            log.emit("slo.recovered", i=i)
        assert len(log.events) == 3
        assert log.dropped == 2
        assert [r["i"] for r in log.events] == [2, 3, 4]

    def test_sink_receives_every_event_despite_the_cap(self, tmp_path):
        log = StructuredLog(maxlen=2)
        path = tmp_path / "events.jsonl"
        log.open_sink(str(path))
        for i in range(5):
            log.emit("slo.recovered", i=i)
        log.close_sink()
        records = parse_jsonl(path.read_text())
        assert [r["i"] for r in records] == [0, 1, 2, 3, 4]
        assert log.dropped == 3

    @pytest.mark.parametrize("env,want", [
        ("10", 10), ("0", None), ("-5", None),
        ("not-a-number", DEFAULT_LOG_BUFFER)])
    def test_env_override(self, monkeypatch, env, want):
        monkeypatch.setenv("REPRO_LOG_BUFFER", env)
        assert StructuredLog().maxlen == want

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_BUFFER", raising=False)
        assert StructuredLog().maxlen == DEFAULT_LOG_BUFFER

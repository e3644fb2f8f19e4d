"""Golden replay of the serve telemetry read side.

A fixed request script runs against :class:`ServiceTelemetry` on a fake
clock.  At several instants it captures everything an operator reads:
the ``/metrics`` windows block, the ``/healthz`` SLO block, the
``/debug/requests`` payloads (recent, slowest and by id), the
``/dashboard`` HTML, the ``slo.*`` and ``serve.request_logged`` events
and the ``serve.slo.*`` gauges.  The capture must match
``tests/golden/serve_telemetry.json`` exactly, so any change to how a
finished request is recorded has to leave every reader's output
byte-identical.

The script covers 2xx, 4xx and 5xx responses; durations below, exactly
at and above the 0.25 s latency threshold; runs of equal durations that
tie on the slowest-requests board, including at its eviction boundary;
repeated request ids; idle gaps that age data out of the 60 s and the
1 h ring; and a full SLO degrade/recover cycle.

The wall-clock ``ts_unix`` stamps are the only fields dropped: they are
the one input the fake clock does not drive.

Regenerate (only for a deliberate change of output) with::

    PYTHONPATH=src python tests/test_serve_telemetry_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from repro import obs
from repro.serve.dashboard import render_dashboard
from repro.serve.stats import ServiceTelemetry

GOLDEN = Path(__file__).parent / "golden" / "serve_telemetry.json"

_EVENTS = ("slo.degraded", "slo.recovered", "serve.request_logged")


class _Clock:
    def __init__(self, t: float) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _strip_ts(entry):
    if isinstance(entry, dict):
        return {k: _strip_ts(v) for k, v in entry.items() if k != "ts_unix"}
    if isinstance(entry, list):
        return [_strip_ts(v) for v in entry]
    return entry


def _trace(request_id: str, children: int) -> dict:
    return {"name": "serve.request", "request_id": request_id,
            "children": [{"name": f"flow.solve.{i}", "children": []}
                         for i in range(children)]}


def replay() -> dict:
    """Run the script; return the capture as plain JSON data."""
    tel = obs.enable(fresh=True)
    clock = _Clock(1000.0)
    stats = ServiceTelemetry(clock)
    server = SimpleNamespace(stats=stats, url="http://127.0.0.1:8000",
                             uptime_s=0.0)
    seq = [0]
    checkpoints: list[dict] = []

    def record(status: int, duration_s: float, request_id: str | None = None,
               spans: int = 0) -> None:
        seq[0] += 1
        rid = request_id or f"r{seq[0]:04d}"
        stats.record(method="POST" if status != 404 else "GET",
                     path="/predict" if status != 404 else "/nope",
                     status=status, duration_s=duration_s, request_id=rid,
                     trace=_trace(rid, spans) if spans else None)

    def checkpoint(label: str, *, dashboard: bool = False,
                   full: bool = False, ids: tuple = ()) -> None:
        server.uptime_s = clock.t - 1000.0
        point = {"label": label, "now": clock.t,
                 "windows": stats.windows_payload(),
                 "slo": stats.slo_state()}
        snap = tel.metrics.snapshot()
        point["gauges"] = {k: v for k, v in snap.items()
                           if k.startswith("serve.slo.")}
        point["status_classes"] = {k: v for k, v in snap.items()
                                   if k.startswith("serve.requests{")}
        point["debug"] = _strip_ts(stats.debug_payload(
            limit=500 if full else 8))
        point["debug_by_id"] = {
            rid: _strip_ts(stats.debug_payload(request_id=rid))
            for rid in ids}
        if dashboard:
            point["dashboard"] = render_dashboard(server)
        checkpoints.append(point)

    # Second 0: a mix of classes, durations around the 0.25 s threshold.
    for status, duration in ((200, 0.001), (404, 0.0005), (200, 0.004),
                             (400, 0.0015), (200, 0.25), (200, 0.2499),
                             (200, 0.3), (500, 0.01), (200, 0.25)):
        record(status, duration, spans=2 if duration >= 0.25 else 0)
    clock.t = 1000.5
    record(200, 0.002, request_id="dup", spans=1)
    record(503, 0.25, request_id="dup")
    checkpoint("young", dashboard=True, ids=("dup", "r0005", "missing"))

    # Seconds 3-5: equal durations overflow the 128-entry boards, so
    # ties are evicted at the boundary and "dup" leaves the recent ring.
    clock.t = 1003.25
    for i in range(140):
        record(200, 0.003 if i % 3 else 0.0025)
    clock.t = 1005.0
    for _ in range(10):
        record(201, 0.002)
    checkpoint("ties", full=True, ids=("dup", "r0005", "r0012", "r0150"))

    # Second 10: a 5xx and slow-request storm degrades both objectives.
    clock.t = 1010.0
    for i in range(30):
        record(503, 0.001 * (i % 4 + 1))
    for _ in range(40):
        record(200, 0.5)
    checkpoint("degraded", dashboard=True)

    # 90 s later the 1 m window is clean but 5 m still holds the burst.
    clock.t = 1100.0
    for _ in range(200):
        record(200, 0.001)
    checkpoint("1m-clean")

    # Six minutes after the burst the 5 m window is clean too.
    clock.t = 1010.0 + 6 * 60
    for _ in range(20):
        record(200, 0.001)
    checkpoint("recovered")

    # An idle hour ages everything out of both rings.
    clock.t = 1010.0 + 6 * 60 + 3700
    checkpoint("idle", dashboard=True, full=True, ids=("dup",))
    record(200, 0.0125, request_id="after-idle")
    clock.t += 0.75
    checkpoint("after-idle", ids=("after-idle",))

    events = [_strip_ts(e) for e in tel.log.query()
              if e["event"] in _EVENTS]
    return {"checkpoints": checkpoints, "events": events}


def _dump(capture: dict) -> str:
    return json.dumps(capture, sort_keys=True, indent=1) + "\n"


def test_read_side_matches_golden():
    try:
        actual = _dump(replay())
    finally:
        obs.disable()
    expected = GOLDEN.read_text(encoding="utf-8")
    if actual != expected:
        got, want = json.loads(actual), json.loads(expected)
        assert got["events"] == want["events"]
        for point, golden in zip(got["checkpoints"], want["checkpoints"]):
            for key in golden:
                assert point[key] == golden[key], (golden["label"], key)
        assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_serve_telemetry_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(replay()), encoding="utf-8")
    obs.disable()
    print(f"wrote {GOLDEN}")

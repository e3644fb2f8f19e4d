"""Tests of the prediction service: pure handlers and the HTTP layer.

The handlers in :mod:`repro.serve.service` are plain functions from a
decoded body to ``(status, payload)``, so most of the endpoint contract
is tested without a socket; the :class:`repro.serve.http` tests then
cover the asyncio framing — keep-alive, malformed requests, method
routing and the shared ``/metrics``/``/healthz`` payloads — against a
real ephemeral-port server.
"""

import asyncio
import json
import random

import pytest

from repro import obs, perf
from repro.core.predict import predict_workload
from repro.obs import names as _names
from repro.serve import PredictionServer, ServiceTelemetry, get_machine
from repro.serve.service import handle_predict, handle_recommend
from repro.serve.stats import RequestLog
from repro.util.validation import ValidationError

PREDICT_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                "n_active": 4}
RECOMMEND_BODY = {"machine": "intel_uma", "program": "CG", "size": "C",
                  "core_counts": [1, 2, 4, 8]}


@pytest.fixture(autouse=True)
def _isolation():
    was_enabled = perf.caches_enabled()
    perf.clear_caches()
    yield
    perf.set_enabled(was_enabled)
    perf.clear_caches()
    obs.disable()


def counter_value(tel, name: str) -> float:
    return tel.metrics.snapshot().get(name, {}).get("value", 0.0)


class TestMachineRegistry:
    def test_known_keys(self):
        for key, cores in (("intel_uma", 8), ("intel_numa", 24),
                           ("amd_numa", 48)):
            assert get_machine(key).n_cores == cores

    def test_instances_are_shared(self):
        assert get_machine("intel_uma") is get_machine("intel_uma")

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            get_machine("cray_1")


class TestPredictHandler:
    def test_success_matches_the_kernel(self):
        status, payload = handle_predict(dict(PREDICT_BODY))
        assert status == 200
        want = predict_workload("CG", "C", get_machine("intel_uma"), 4)
        assert payload["total_cycles"] == want.total_cycles
        assert payload["omega"] == want.omega
        assert payload["machine"] == "intel_uma"  # service key echoed
        assert payload["utilisations"] == want.utilisations
        assert json.dumps(payload)  # JSON-clean end to end

    @pytest.mark.parametrize("missing", ["machine", "program", "size",
                                         "n_active"])
    def test_missing_field_is_400(self, missing):
        body = {k: v for k, v in PREDICT_BODY.items() if k != missing}
        status, payload = handle_predict(body)
        assert status == 400
        assert missing in payload["error"]

    @pytest.mark.parametrize("body,fragment", [
        ({**PREDICT_BODY, "machine": "cray_1"}, "unknown machine"),
        ({**PREDICT_BODY, "program": "LINPACK"}, "unknown workload"),
        ({**PREDICT_BODY, "n_active": 0}, "n_active"),
        ({**PREDICT_BODY, "n_active": 99}, "n_active"),
        ({**PREDICT_BODY, "n_active": "four"}, "n_active"),
        ({**PREDICT_BODY, "n_active": True}, "n_active"),
        ({**PREDICT_BODY, "n_threads": 2.5}, "n_threads"),
        ("not an object", "JSON object"),
        (["not", "an", "object"], "JSON object"),
    ])
    def test_bad_bodies_are_400(self, body, fragment):
        status, payload = handle_predict(body)
        assert status == 400
        assert fragment in payload["error"]

    def test_counters(self):
        tel = obs.enable(fresh=True)
        handle_predict(dict(PREDICT_BODY))
        handle_predict({**PREDICT_BODY, "machine": "cray_1"})
        # Request-level accounting (serve.requests, the request timer)
        # lives in the HTTP layer's ServiceTelemetry now; the handler
        # boundary only owns outcome counters.
        assert counter_value(tel, _names.SERVE_REQUESTS) == 0
        assert counter_value(tel, _names.SERVE_PREDICTIONS) == 1
        assert counter_value(tel, _names.SERVE_BAD_REQUESTS) == 1
        assert _names.SERVE_REQUEST_SECONDS not in tel.metrics.snapshot()

    def test_cache_hit_counters_increment_on_warm_requests(self):
        tel = obs.enable(fresh=True)
        hits = _names.perf_cache_metric("flow", "hits")
        misses = _names.perf_cache_metric("flow", "misses")
        handle_predict(dict(PREDICT_BODY))          # cold: misses only
        cold_hits = counter_value(tel, hits)
        cold_misses = counter_value(tel, misses)
        assert cold_misses >= 2                     # cell + baseline
        handle_predict(dict(PREDICT_BODY))          # warm: hits only
        assert counter_value(tel, hits) >= cold_hits + 2
        assert counter_value(tel, misses) == cold_misses


class TestRecommendHandler:
    def test_success_ranks_candidates(self):
        status, payload = handle_recommend(dict(RECOMMEND_BODY))
        assert status == 200
        slowdowns = [c["slowdown"] for c in payload["candidates"]]
        assert slowdowns[0] == 1.0
        assert slowdowns == sorted(slowdowns)
        assert payload["best"]["machine"] == "intel_uma"
        assert payload["best"]["n_active"] \
            == payload["candidates"][0]["n_active"]
        assert len(payload["candidates"]) == 4

    def test_bad_core_counts_are_400(self):
        status, payload = handle_recommend(
            {**RECOMMEND_BODY, "core_counts": "all"})
        assert status == 400
        assert "core_counts" in payload["error"]
        status, _ = handle_recommend({**RECOMMEND_BODY, "core_counts": [0]})
        assert status == 400

    def test_counter(self):
        tel = obs.enable(fresh=True)
        handle_recommend(dict(RECOMMEND_BODY))
        assert counter_value(tel, _names.SERVE_RECOMMENDATIONS) == 1


async def http_request(host, port, method, path, body=None, *,
                       raw_bytes=None, close=True):
    """One scripted HTTP exchange; returns (status, payload_dict)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if raw_bytes is not None:
            writer.write(raw_bytes)
        else:
            payload = b"" if body is None else json.dumps(body).encode()
            head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    + ("Connection: close\r\n" if close else "") + "\r\n")
            writer.write(head.encode() + payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    status = int(data.split(b" ", 2)[1])
    return status, json.loads(data.split(b"\r\n\r\n", 1)[1])


async def _read_response(reader):
    """Read one framed response: (status, lower-cased headers, body bytes)."""
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def http_request_full(host, port, method, path, body=None, *,
                            headers=None):
    """One exchange returning (status, response_headers, decoded_body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
             f"Content-Length: {len(payload)}\r\n{extra}"
             "Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        status, resp_headers, raw = await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    if "json" in resp_headers.get("content-type", ""):
        return status, resp_headers, json.loads(raw)
    return status, resp_headers, raw.decode("utf-8")


def run_with_server(scenario, **server_kwargs):
    """Run ``await scenario(server)`` against a fresh ephemeral server."""
    server_kwargs.setdefault("workers", 2)

    async def _main():
        async with PredictionServer(port=0, **server_kwargs) as server:
            return await scenario(server)

    return asyncio.run(_main())


class TestHTTPEndpoints:
    def test_predict_and_recommend_roundtrip(self):
        async def scenario(server):
            s1, p1 = await http_request(server.host, server.port, "POST",
                                        "/predict", PREDICT_BODY)
            s2, p2 = await http_request(server.host, server.port, "POST",
                                        "/recommend", RECOMMEND_BODY)
            return s1, p1, s2, p2

        s1, p1, s2, p2 = run_with_server(scenario)
        assert s1 == 200 and s2 == 200
        want = predict_workload("CG", "C", get_machine("intel_uma"), 4)
        assert p1["omega"] == want.omega
        assert p2["candidates"][0]["slowdown"] == 1.0

    def test_malformed_json_body_is_400(self):
        async def scenario(server):
            raw = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 9\r\nConnection: close\r\n\r\n"
                   b"{not json")
            return await http_request(server.host, server.port, "POST",
                                      "/predict", raw_bytes=raw)

        status, payload = run_with_server(scenario)
        assert status == 400
        assert "not JSON" in payload["error"]

    def test_empty_body_is_400(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "POST",
                                        "/predict"))
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_unknown_path_is_404_and_lists_endpoints(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "GET",
                                        "/nope"))
        assert status == 404
        assert "/predict" in payload["endpoints"]

    def test_wrong_method_is_405(self):
        async def scenario(server):
            a = await http_request(server.host, server.port, "GET",
                                   "/predict")
            b = await http_request(server.host, server.port, "POST",
                                   "/healthz", {})
            return a, b

        (s1, _), (s2, _) = run_with_server(scenario)
        assert s1 == 405 and s2 == 405

    def test_oversized_body_is_413(self):
        async def scenario(server):
            raw = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                   b"Content-Length: 99999999\r\n"
                   b"Connection: close\r\n\r\n")
            return await http_request(server.host, server.port, "POST",
                                      "/predict", raw_bytes=raw)

        status, payload = run_with_server(scenario)
        assert status == 413

    def test_keep_alive_serves_sequential_requests(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            statuses = []
            try:
                for _ in range(3):
                    body = json.dumps(PREDICT_BODY).encode()
                    writer.write(
                        (f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n").encode()
                        + body)
                    await writer.drain()
                    status_line = await reader.readline()
                    statuses.append(int(status_line.split(b" ", 2)[1]))
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        key, _, value = \
                            line.decode().partition(":")
                        if key.strip().lower() == "content-length":
                            length = int(value.strip())
                    await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()
            return statuses

        assert run_with_server(scenario) == [200, 200, 200]

    def test_metrics_and_healthz_share_the_exporter_contract(self):
        obs.enable(fresh=True)

        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            m = await http_request(server.host, server.port, "GET",
                                   "/metrics")
            h = await http_request(server.host, server.port, "GET",
                                   "/healthz")
            return m, h

        (ms, metrics), (hs, health) = run_with_server(scenario)
        assert ms == 200 and hs == 200
        # The exporter's wrapped-snapshot schema, verbatim.
        assert "snapshot_schema" in metrics
        instruments = metrics["instruments"]
        assert instruments[_names.SERVE_PREDICTIONS]["value"] == 1
        key = _names.SERVE_REQUESTS + "{status_class=2xx}"
        assert instruments[key]["value"] == 1
        assert health["status"] == "ok"
        assert health["telemetry"] is True

    def test_metrics_without_telemetry_is_503(self):
        status, payload = run_with_server(
            lambda server: http_request(server.host, server.port, "GET",
                                        "/metrics"))
        assert status == 503
        assert "telemetry" in payload["error"]

    def test_responses_identical_to_pure_handlers(self):
        # The HTTP layer must add framing only: byte-for-byte the same
        # payload the pure handler returns.
        direct_status, direct = handle_predict(dict(PREDICT_BODY))
        perf.clear_caches()

        status, served = run_with_server(
            lambda server: http_request(server.host, server.port, "POST",
                                        "/predict", PREDICT_BODY))
        assert (status, served) == (direct_status, direct)


class FakeClock:
    """A manually advanced monotonic clock for ServiceTelemetry."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


def _span_names(trace: dict) -> set[str]:
    out = {trace["name"]}
    for child in trace.get("children", ()):
        out |= _span_names(child)
    return out


class TestRequestObservability:
    def test_request_id_echoed_and_client_id_honoured(self):
        async def scenario(server):
            fresh = await http_request_full(server.host, server.port,
                                            "POST", "/predict", PREDICT_BODY)
            named = await http_request_full(
                server.host, server.port, "POST", "/predict", PREDICT_BODY,
                headers={"X-Repro-Request-Id": "my-id.1"})
            bad = await http_request_full(
                server.host, server.port, "GET", "/healthz",
                headers={"X-Repro-Request-Id": "spaces are not ok"})
            return fresh, named, bad

        fresh, named, bad = run_with_server(scenario)
        _, fresh_headers, _ = fresh
        assert len(fresh_headers["x-repro-request-id"]) == 16
        _, named_headers, _ = named
        assert named_headers["x-repro-request-id"] == "my-id.1"
        _, bad_headers, _ = bad
        assert bad_headers["x-repro-request-id"] != "spaces are not ok"
        assert len(bad_headers["x-repro-request-id"]) == 16

    def test_debug_requests_returns_span_tree_by_id(self):
        obs.enable(fresh=True)

        async def scenario(server):
            _, headers, _ = await http_request_full(
                server.host, server.port, "POST", "/predict", PREDICT_BODY)
            rid = headers["x-repro-request-id"]
            status, payload = await http_request(
                server.host, server.port, "GET", f"/debug/requests?id={rid}")
            return rid, status, payload

        rid, status, payload = run_with_server(scenario)
        assert status == 200
        entry = payload["request"]
        assert entry["request_id"] == rid
        assert entry["path"] == "/predict"
        trace = entry["trace"]
        assert trace["name"] == "serve.request"
        assert trace["labels"]["request_id"] == rid
        # The request span links down to at least one solver span.
        assert "flow.solve" in _span_names(trace)
        # The finished tree was detached: the session tracer's root
        # forest stays bounded over a long-running service.
        assert obs.session().tracer.roots == []

    def test_debug_requests_unknown_id_and_bad_limit(self):
        async def scenario(server):
            missing = await http_request(server.host, server.port, "GET",
                                         "/debug/requests?id=nope")
            bad = await http_request(server.host, server.port, "GET",
                                     "/debug/requests?limit=ten")
            listing = await http_request(server.host, server.port, "GET",
                                         "/debug/requests")
            return missing, bad, listing

        (ms, mp), (bs, _), (ls, lp) = run_with_server(scenario)
        assert ms == 404 and "nope" in mp["error"]
        assert bs == 400
        assert ls == 200
        assert {"capacity", "total", "recent", "slowest"} <= set(lp)

    def test_dashboard_is_inline_svg_without_scripts(self):
        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            return await http_request_full(server.host, server.port,
                                           "GET", "/dashboard")

        status, headers, body = run_with_server(scenario)
        assert status == 200
        assert headers["content-type"].startswith("text/html")
        assert "<svg" in body
        assert "<script" not in body.lower()
        assert "/predict" in body          # the request made it to a board

    def test_every_response_path_counts_its_status_class(self):
        tel = obs.enable(fresh=True)

        async def scenario(server):
            host, port = server.host, server.port
            await http_request(host, port, "GET", "/nope")          # 404
            await http_request(host, port, "GET", "/predict")       # 405
            await http_request(host, port, "POST", "/predict",      # 400
                               raw_bytes=(b"POST /predict HTTP/1.1\r\n"
                                          b"Host: t\r\n"
                                          b"Content-Length: nine\r\n"
                                          b"Connection: close\r\n\r\n"))
            await http_request(host, port, "POST", "/predict",      # 400
                               raw_bytes=b"BOGUS\r\n\r\n")
            await http_request(host, port, "POST", "/predict",      # 413
                               raw_bytes=(b"POST /predict HTTP/1.1\r\n"
                                          b"Host: t\r\n"
                                          b"Content-Length: 99999999\r\n"
                                          b"Connection: close\r\n\r\n"))
            await http_request(host, port, "POST", "/predict",      # 200
                               PREDICT_BODY)

        run_with_server(scenario)
        snap = tel.metrics.snapshot()
        # Requests are counted per status class only; the classes sum
        # to the request timer's count.
        assert _names.SERVE_REQUESTS not in snap
        key = _names.SERVE_REQUESTS + "{status_class=%s}"
        assert snap[key % "4xx"]["value"] == 5
        assert snap[key % "2xx"]["value"] == 1
        assert snap[_names.SERVE_REQUEST_SECONDS]["count"] == 6

    def test_metrics_carries_the_windows_block(self):
        obs.enable(fresh=True)

        async def scenario(server):
            await http_request(server.host, server.port, "POST",
                               "/predict", PREDICT_BODY)
            return await http_request(server.host, server.port, "GET",
                                      "/metrics")

        status, payload = run_with_server(scenario)
        assert status == 200
        windows = payload["windows"]
        assert windows["window_schema"] == 1
        fast = windows["fast"]
        assert fast[_names.WINDOW_REQUESTS]["total"] == 1
        assert fast[_names.WINDOW_ERRORS]["total"] == 0
        assert fast[_names.WINDOW_LATENCY_SECONDS]["count"] == 1
        assert len(fast[_names.WINDOW_REQUESTS]["series"]) == 60

    def test_events_payload_reports_dropped(self):
        obs.enable(fresh=True)

        async def scenario(server):
            return await http_request(server.host, server.port, "GET",
                                      "/events")

        status, payload = run_with_server(scenario)
        assert status == 200
        assert payload["dropped"] == 0
        assert isinstance(payload["events"], list)

    def test_concurrent_keepalive_traces_stay_separate(self):
        obs.enable(fresh=True)

        async def scenario(server):
            async def worker(wid: int) -> None:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                try:
                    for j in range(5):
                        rid = f"w{wid}-r{j}"
                        body = json.dumps(PREDICT_BODY).encode()
                        writer.write(
                            (f"POST /predict HTTP/1.1\r\nHost: t\r\n"
                             f"X-Repro-Request-Id: {rid}\r\n"
                             f"Content-Length: {len(body)}\r\n\r\n"
                             ).encode() + body)
                        await writer.drain()
                        status, headers, _ = await _read_response(reader)
                        assert status == 200
                        assert headers["x-repro-request-id"] == rid
                finally:
                    writer.close()
                    await writer.wait_closed()

            await asyncio.gather(*(worker(i) for i in range(6)))
            _, payload = await http_request(server.host, server.port, "GET",
                                            "/debug/requests?limit=50")
            return payload

        payload = run_with_server(scenario)
        predicts = [e for e in payload["recent"] if e["path"] == "/predict"]
        assert len(predicts) == 30
        for entry in predicts:
            # Each retained trace is stamped with exactly the id of the
            # request it belongs to — no cross-contamination between
            # concurrent keep-alive connections sharing the pool.
            assert entry["trace"]["labels"]["request_id"] \
                == entry["request_id"]
        assert obs.session().tracer.roots == []

    def test_sustained_500s_degrade_healthz_then_recover(self):
        import repro.serve.service as service_mod

        clock = FakeClock()
        stats = ServiceTelemetry(clock=clock)

        def boom(*args, **kwargs):
            raise RuntimeError("injected solver fault")

        async def scenario(server):
            host, port = server.host, server.port
            real = service_mod.predict_workload
            service_mod.predict_workload = boom
            try:
                for _ in range(30):
                    status, _ = await http_request(host, port, "POST",
                                                   "/predict", PREDICT_BODY)
                    assert status == 500
                _, burning = await http_request(host, port, "GET",
                                                "/healthz")
            finally:
                service_mod.predict_workload = real
            clock.advance(6 * 60)       # error budget refills
            for _ in range(10):
                status, _ = await http_request(host, port, "POST",
                                               "/predict", PREDICT_BODY)
                assert status == 200
            _, recovered = await http_request(host, port, "GET", "/healthz")
            return burning, recovered

        burning, recovered = run_with_server(scenario, stats=stats)
        assert burning["status"] == "degraded"
        assert "availability" in burning["slo"]["degraded_objectives"]
        avail = burning["slo"]["objectives"]["availability"]
        assert avail["windows"]["1m"]["burn_rate"] \
            >= burning["slo"]["fast_burn_threshold"]
        assert recovered["status"] == "ok"
        assert recovered["slo"]["degraded_objectives"] == []


class TestRequestLog:
    @staticmethod
    def _reference_slowest(durations, size):
        """The board as a full stable sort keeps it."""
        board: list = []
        for i, d in enumerate(durations):
            board.append((d, i))
            board.sort(key=lambda item: -item[0])
            del board[size:]
        return [i for _, i in board]

    @pytest.mark.parametrize("seed", range(5))
    def test_slowest_board_matches_a_stable_sort(self, seed):
        rng = random.Random(seed)
        # Few distinct values, so ties land on the eviction boundary.
        durations = [rng.choice((0.001, 0.002, 0.003, 0.25))
                     for _ in range(300)]
        log = RequestLog(size=16)
        for i, d in enumerate(durations):
            log.add({"request_id": str(i), "duration_s": d})
        got = [int(e["request_id"]) for e in log.slowest()]
        assert got == self._reference_slowest(durations, 16)
        assert [int(e["request_id"]) for e in log.recent()] == list(
            range(299, 283, -1))

    def test_equal_durations_keep_the_earlier_request_first(self):
        log = RequestLog(size=3)
        for rid in "abcde":
            log.add({"request_id": rid, "duration_s": 0.5})
        assert [e["request_id"] for e in log.slowest()] == ["a", "b", "c"]
        assert [e["request_id"] for e in log.slowest(2)] == ["a", "b"]
        assert log.find("a")["request_id"] == "a"   # only on the board
        assert log.find("z") is None

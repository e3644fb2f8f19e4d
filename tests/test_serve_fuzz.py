"""Property test of the ``repro serve`` front end over a live socket.

Hypothesis writes whole requests — request lines, header names and
values, ``Content-Length`` values and bodies, JSON or not — and sends
each one to a running :class:`PredictionServer`.  However malformed the
request, every exchange must get a response that is not a 500, and add
exactly one entry to the server's request log.
"""

import asyncio
import json
import re
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import perf
from repro.serve import MAX_BODY_BYTES, PredictionServer


@pytest.fixture(scope="module")
def server():
    """A live ephemeral-port server on its own event-loop thread."""
    loop = asyncio.new_event_loop()
    srv = PredictionServer(port=0, workers=2, read_timeout_s=5.0)
    loop.run_until_complete(srv.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield srv
    loop.call_soon_threadsafe(loop.stop)
    thread.join()
    loop.run_until_complete(srv.stop())
    loop.close()
    perf.clear_caches()


def exchange(port: int, raw: bytes) -> bytes:
    """Send one request; read until the server closes the connection."""
    data = b""
    with socket.create_connection(("127.0.0.1", port), timeout=15) as sock:
        sock.sendall(raw)
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass  # a rejected head's unread bytes reset the close
    return data


# Header text: latin-1 without CR/LF, so one field stays one line.
_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                              blacklist_characters="\r\n"), max_size=40)
_token = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                 "0123456789!#$%&'*+-.^_`|~", min_size=1, max_size=20)

_method = st.one_of(st.sampled_from(["GET", "POST", "PUT", "HEAD"]),
                    _token)
_path = st.one_of(
    st.sampled_from(["/predict", "/recommend", "/metrics", "/healthz",
                     "/events", "/debug/requests", "/dashboard",
                     "/predict/", "/"]),
    st.builds("/debug/requests?{}={}".format,
              st.sampled_from(["limit", "id"]), _token),
    _token.map("/".__add__))
_version = st.one_of(st.just("HTTP/1.1"), st.just("HTTP/1.0"), _token)

#: Framing headers are written by the test itself: Content-Length so
#: the server never waits on a body, Connection so it closes after one.
_header = st.tuples(
    _token.filter(lambda n: n.lower() not in ("content-length",
                                              "connection")),
    _text).map(lambda kv: f"{kv[0]}: {kv[1]}")
_junk_line = _text.filter(lambda line: line and ":" not in line)
#: Up to past asyncio's default 64 KiB reader limit.
_padding = st.integers(0, 80_000).map(lambda n: "X-Pad: " + "a" * n)

_cell = st.fixed_dictionaries({}, optional={
    "machine": st.sampled_from(["intel_uma", "intel_numa", "nope", 7]),
    "program": st.sampled_from(["CG", "EP", "x264", "NOPE", None]),
    "size": st.sampled_from(["C", "W", "S", "native", "Z", 3]),
    "n_active": st.one_of(st.integers(-2, 30), st.floats(), _text),
    "n_threads": st.one_of(st.integers(-2, 60), st.booleans()),
    "core_counts": st.one_of(st.lists(st.integers(-1, 30), max_size=6),
                             st.lists(_text, max_size=2), st.integers()),
})
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4), max_leaves=12)
_body = st.one_of(
    st.just(b""),
    _cell.map(lambda d: json.dumps(d).encode()),
    _json.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=200),
    st.integers(1, 100_000).map(lambda n: b"[" * n),
    st.integers(1, 6_000).map(lambda n: b"9" * n))

#: A length the server rejects before reading any body.
_bad_length = st.one_of(
    _text.filter(lambda v: not re.fullmatch(r"[ \t]*[0-9]+[ \t]*", v)),
    st.from_regex(r"\A[+-][0-9]{1,3}\Z|\A[0-9]_[0-9]\Z|\A\x0b[0-9]{1,3}\Z"),
    st.integers(MAX_BODY_BYTES + 1, 10 ** 30).map(str))


@st.composite
def requests(draw) -> bytes:
    lines = [f"{draw(_method)} {draw(_path)} {draw(_version)}"]
    lines += draw(st.lists(st.one_of(_header, _junk_line, _padding),
                           max_size=5))
    body = draw(_body)
    if draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    else:
        lines.append(f"Content-Length: {draw(_bad_length)}")
        body = b""
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(raw=requests())
def test_every_exchange_is_answered_and_recorded_once(server, raw):
    before = server.stats.request_log.total
    data = exchange(server.port, raw)
    assert data.startswith(b"HTTP/1.1 "), (raw[:200], data[:200])
    status = int(data.split(b" ", 2)[1])
    assert status != 500, (raw[:200], data[:400])
    assert server.stats.request_log.total == before + 1

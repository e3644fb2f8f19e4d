"""Out-of-process load generator for the serve workloads.

Runs as its own process beside the server under test, so the client
never shares the server's interpreter lock.  It opens
:data:`config.CONNECTIONS` keep-alive connections and drives, in order:

1. (serve-cold only) a warm-up that fills the server's flow cache with
   cold cells, so the miss ratio is steady from the first measured
   request;
2. a closed-loop phase: a fixed number of requests, sent back to back
   on every connection, in equal chunks; the server's CPU time is read
   from ``/proc/<pid>/stat`` and the host's speed probed on the
   server's CPU (:mod:`probe`) between chunks;
3. two open-loop phases at the workload's fixed light and heavy rates:
   seeded Poisson arrivals, each request timed from when it was due, and
   the generator's own lateness recorded.

Requests are framed by ``_request`` of ``benchmarks/bench_serve.py``;
each carries an ``X-Repro-Request-Id``.  A seeded sample of responses is
compared field by field against the in-process prediction kernel after
the load has stopped.  The result is one JSON object on stdout.

Usage (``run.py`` starts it)::

    python perfbench/generator.py --workload serve-hot --seed 1 \
        --seconds 8 --port 8321 --server-pid 4242
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402
import probe  # noqa: E402
import schedules  # noqa: E402

#: Streams of the seeded request sequences, one per phase.
_WARMUP_STREAM, _OPEN_STREAM = 100, 200


def server_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


class _Tagged:
    """Reader/writer pair that adds a request id and keeps the body.

    ``bench_serve._request`` writes the request head and reads the body
    through these; the id goes in after the request line, and the last
    body read is kept for the reference checks.
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self.request_id = ""
        self.body = b""

    # writer side
    def write(self, data: bytes) -> None:
        line = f"\r\nX-Repro-Request-Id: {self.request_id}\r\n".encode()
        self._writer.write(data.replace(b"\r\n", line, 1))

    async def drain(self) -> None:
        await self._writer.drain()

    # reader side
    async def readline(self) -> bytes:
        self.body = b""
        return await self._reader.readline()

    async def readexactly(self, n: int) -> bytes:
        self.body = await self._reader.readexactly(n)
        return self.body


class Client:
    """One keep-alive connection."""

    def __init__(self, request) -> None:
        self._request = request
        self._tap = None
        self._writer = None

    async def open(self, host: str, port: int) -> "Client":
        reader, self._writer = await asyncio.open_connection(host, port)
        self._tap = _Tagged(reader, self._writer)
        return self

    async def send(self, req: tuple, request_id: str) -> tuple[int, bytes]:
        method, path, body = req
        self._tap.request_id = request_id
        status = await self._request(self._tap, self._tap, method, path, body)
        return status, self._tap.body

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


class Load:
    """Everything one generator run observes."""

    def __init__(self, seed: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.kept: list[tuple[tuple, bytes]] = []
        self._keep = random.Random(f"keep:{seed}")
        self.keep_p = 0.0

    def outcome(self, req: tuple, status: int, body: bytes) -> None:
        self.attempted += 1
        if not 200 <= status < 300:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{status} for {req[1]}: {body[:200]!r}")
        elif self._keep.random() < self.keep_p:
            self.kept.append((req, body))


async def _closed(clients, requests, load: Load, tag: str) -> None:
    """Send ``requests`` back to back, each to the next free client."""
    issued = iter(enumerate(requests))

    async def worker(client: Client) -> None:
        for i, req in issued:
            status, body = await client.send(req, f"{tag}-{i}")
            load.outcome(req, status, body)

    await asyncio.gather(*(worker(client) for client in clients))


async def _chunked(clients, requests, chunks: int, load: Load, tag: str,
                   pid: int, cpu: int | None) -> list[tuple]:
    """The closed loop in equal chunks: ``(wall, server CPU, probe)`` each.

    Between chunks the load pauses and :func:`probe.probe_on` times the
    server's CPU; a chunk's probe is the mean of those on either side.
    """
    size = len(requests) // chunks
    out = []
    before = probe.probe_on(cpu)
    for c in range(chunks):
        t0, cpu0 = time.perf_counter(), server_cpu_s(pid)
        await _closed(clients, requests[c * size:(c + 1) * size], load,
                      f"{tag}.{c}")
        wall, used = time.perf_counter() - t0, server_cpu_s(pid) - cpu0
        after = probe.probe_on(cpu)
        out.append((wall, used, (before + after) / 2))
        before = after
    return out


async def _open_phase(clients, requests, rate: float, seconds: float,
                      load: Load, tag: str, rng: random.Random) -> dict:
    """Seeded Poisson arrivals at ``rate`` for ``seconds``."""
    t0 = time.perf_counter() + 0.05
    dues, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        dues.append(t0 + t)
    latencies: list[float] = []
    lateness: list[float] = []
    issued = iter(range(len(dues)))

    async def worker(k: int) -> None:
        for i in issued:
            free_at = time.perf_counter()
            due = dues[i]
            if due > free_at:
                await asyncio.sleep(due - free_at)
            sent = time.perf_counter()
            lateness.append(max(0.0, sent - max(due, free_at)))
            req = requests[i % len(requests)]
            status, body = await clients[k].send(req, f"{tag}-{i}")
            latencies.append(time.perf_counter() - due)
            load.outcome(req, status, body)

    await asyncio.gather(*(worker(k) for k in range(len(clients))))
    return {"rate_rps": rate, "sent": len(dues), "latency_s": latencies,
            "lateness_s": lateness}


def reference_mismatches(kept) -> list[str]:
    """Compare kept responses with the in-process kernel, field by field."""
    from repro.core.predict import predict_workload, recommend_workload
    from repro.serve.service import get_machine

    problems = []
    for (method, path, body), raw in kept:
        if path not in ("/predict", "/recommend"):
            continue
        machine = get_machine(body["machine"])
        if path == "/predict":
            expected = predict_workload(
                body["program"], body["size"], machine, body["n_active"],
                n_threads=body.get("n_threads")).to_dict()
            expected["machine"] = body["machine"]
        else:
            expected = recommend_workload(
                body["program"], body["size"], machine,
                core_counts=body.get("core_counts"),
                n_threads=body.get("n_threads")).to_dict()
            expected["best"]["machine"] = body["machine"]
            for candidate in expected["candidates"]:
                candidate["machine"] = body["machine"]
        # The server encodes with json.dumps; compare what it would send.
        expected = json.loads(json.dumps(expected))
        diff = _first_difference(expected, json.loads(raw))
        if diff is not None:
            problems.append(f"{path} {json.dumps(body, sort_keys=True)}: "
                            f"{diff}")
    return problems


def _first_difference(expected, got, where: str = "") -> str | None:
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            if key not in expected or key not in got:
                return f"{where}.{key} present on one side only"
            diff = _first_difference(expected[key], got[key],
                                     f"{where}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return f"{where} has {len(got)} items, expected {len(expected)}"
        for i, (e, g) in enumerate(zip(expected, got)):
            diff = _first_difference(e, g, f"{where}[{i}]")
            if diff is not None:
                return diff
        return None
    if expected != got or type(expected) is not type(got):
        return f"{where or 'value'} is {got!r}, expected {expected!r}"
    return None


async def drive(workload: str, seed: int, seconds: float, host: str,
                port: int, pid: int, server_cpu: int | None) -> dict:
    settings = config.SERVE[workload]
    request = schedules.bench_serve()._request
    n_conn = min(config.CONNECTIONS, os.cpu_count() or 1)
    clients = [await Client(request).open(host, port) for _ in range(n_conn)]
    load = Load(seed)
    try:
        warmup = settings["warmup_requests"]
        if warmup:
            await _closed(clients, schedules.requests_for(
                workload, seed, warmup, _WARMUP_STREAM), load, f"w{seed}")

        total = settings["closed_requests"]
        load.keep_p = settings["reference_checks"] / total
        t0 = time.perf_counter()
        chunks = await _chunked(
            clients, schedules.requests_for(workload, seed, total),
            config.CLOSED_CHUNKS, load, f"c{seed}", pid, server_cpu)
        t1 = time.perf_counter()
        load.keep_p = 0.0

        rng = random.Random(f"arrivals:{seed}")
        phases = {}
        for i, level in enumerate(("light", "heavy")):
            rate = settings[f"{level}_rps"]
            reqs = schedules.requests_for(
                workload, seed, int(rate * seconds) + 1, _OPEN_STREAM + i)
            phases[level] = await _open_phase(
                clients, reqs, rate, seconds / 2, load, f"{level[0]}{seed}",
                rng)
    finally:
        for client in clients:
            await client.close()

    mismatches = reference_mismatches(load.kept)
    load.failed += len(mismatches)
    return {
        "workload": workload,
        "seed": seed,
        "connections": n_conn,
        "closed": {
            "requests": total,
            "window": (t0, t1),
            "chunks": chunks,
        },
        "open": phases,
        "attempted": load.attempted,
        "failed": load.failed,
        "errors": load.errors + mismatches[:5],
        "reference_checked": len(load.kept),
        "server_peak_rss_mb": peak_rss_mb(pid),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config.SERVE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--server-cpu", type=int, default=None,
                        help="CPU the server is pinned to; probed there")
    args = parser.parse_args(argv)
    result = asyncio.run(drive(args.workload, args.seed, args.seconds,
                               args.host, args.port, args.server_pid,
                               args.server_cpu))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

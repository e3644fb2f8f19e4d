"""Seeded request sequences for the serve workloads.

* ``serve-hot`` replays the ``mixed`` pool of ``benchmarks/bench_serve.py``
  (80% ``/predict`` over 21 cells, 15% ``/recommend``, 5% ``/healthz``),
  imported rather than restated; the seed picks where in the cycle the
  run starts.
* ``serve-cold`` draws cells from the seed across (machine, program,
  size, ``n_active <= n_threads <= 2 * n_cores``): 85% ``/predict`` and
  15% ``/recommend`` over 4-8 core counts.  The key space is far larger
  than the flow cache, so nearly every solve misses.

A request is a ``(method, path, body)`` triple, the shape
``bench_serve._request`` sends.
"""

from __future__ import annotations

import importlib.util
import json
import random
from collections import OrderedDict

from config import BENCH_SERVE

#: Service machine keys and their core counts (``repro.serve`` presets).
MACHINE_CORES = {"intel_uma": 8, "intel_numa": 24, "amd_numa": 48}
PROGRAMS = ("CG", "EP", "FT", "IS", "SP")
SIZES = ("B", "C", "W")

_bench_serve = None


def bench_serve():
    """The ``benchmarks/bench_serve.py`` module (loaded once)."""
    global _bench_serve
    if _bench_serve is None:
        spec = importlib.util.spec_from_file_location("bench_serve",
                                                      BENCH_SERVE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _bench_serve = module
    return _bench_serve


def hot_schedule() -> list[tuple]:
    """The ``mixed`` cycle of ``bench_serve.py``, in its own order."""
    return bench_serve().build_schedule("mixed")


def hot_requests(seed: int, count: int, stream: int = 0) -> list[tuple]:
    """``count`` hot requests from a seeded offset into the mixed cycle."""
    cycle = hot_schedule()
    start = random.Random(f"hot:{seed}:{stream}").randrange(len(cycle))
    return [cycle[(start + i) % len(cycle)] for i in range(count)]


def distinct(requests) -> list[tuple]:
    """Each distinct request once, in first-seen order (the warm-up pass)."""
    seen: dict[str, tuple] = {}
    for req in requests:
        seen.setdefault(request_key(req), req)
    return list(seen.values())


def request_key(req: tuple) -> str:
    method, path, body = req
    return f"{method} {path} {json.dumps(body, sort_keys=True)}"


def cold_requests(seed: int, count: int, stream: int = 0) -> list[tuple]:
    """``count`` seeded cold requests; every cell is valid.

    Machines rotate and every :data:`_RECOMMEND_SLOTS` slot of 20 is a
    ``/recommend``, so each run sees the same mix of costly and cheap
    requests; programs, sizes and core counts come from the seed.
    """
    rng = random.Random(f"cold:{seed}:{stream}")
    return [_cold_request(rng, i) for i in range(count)]


#: Positions in each block of 20 cold requests that are ``/recommend``
#: (15%; with three machines rotating, one per machine).
_RECOMMEND_SLOTS = (0, 7, 14)


def _cold_request(rng: random.Random, i: int) -> tuple:
    machine = sorted(MACHINE_CORES)[i % len(MACHINE_CORES)]
    cores = MACHINE_CORES[machine]
    body = {"machine": machine, "program": rng.choice(PROGRAMS),
            "size": rng.choice(SIZES)}
    if i % 20 in _RECOMMEND_SLOTS:
        counts = sorted(rng.sample(range(1, cores + 1), rng.randint(4, 8)))
        body["core_counts"] = counts
        body["n_threads"] = rng.randint(counts[-1], 2 * cores)
        return ("POST", "/recommend", body)
    n_threads = rng.randint(1, 2 * cores)
    body["n_active"] = rng.randint(1, min(n_threads, cores))
    body["n_threads"] = n_threads
    return ("POST", "/predict", body)


def requests_for(workload: str, seed: int, count: int,
                 stream: int = 0) -> list[tuple]:
    if workload == "serve-hot":
        return hot_requests(seed, count, stream)
    if workload == "serve-cold":
        return cold_requests(seed, count, stream)
    raise ValueError(f"no request schedule for workload {workload!r}")


def flow_cells(req: tuple) -> list[tuple]:
    """The flow-solver cells one request solves: its cells and baselines.

    A cell is ``(machine, program, size, n_active, n_threads)``; the
    service solves each one-core baseline at the request's thread count
    next to the cell itself.  ``n_threads`` defaults to the core count.
    """
    method, path, body = req
    if path not in ("/predict", "/recommend"):
        return []
    cores = MACHINE_CORES[body["machine"]]
    ident = (body["machine"], body["program"], body["size"])
    threads = body.get("n_threads") or cores
    if path == "/predict":
        actives = [body["n_active"]]
    else:
        actives = body.get("core_counts") or list(range(1, cores + 1))
    return [(*ident, n, threads) for n in actives] + [(*ident, 1, threads)]


def simulated_miss_ratios(requests, capacity: int, warmup: int,
                          blocks: int) -> list[float]:
    """Flow-cache miss ratio per block of requests after ``warmup``.

    Replays the requests through an LRU of ``capacity`` cells, the
    eviction policy of ``repro.perf.MemoCache``.
    """
    lru: OrderedDict = OrderedDict()
    per_request = []
    for req in requests:
        hits = misses = 0
        for cell in dict.fromkeys(flow_cells(req)):
            if cell in lru:
                lru.move_to_end(cell)
                hits += 1
            else:
                misses += 1
                lru[cell] = True
                if len(lru) > capacity:
                    lru.popitem(last=False)
        per_request.append((hits, misses))
    measured = per_request[warmup:]
    size = max(1, len(measured) // blocks)
    ratios = []
    for b in range(blocks):
        chunk = measured[b * size:(b + 1) * size]
        hits = sum(h for h, _ in chunk)
        misses = sum(m for _, m in chunk)
        ratios.append(misses / (hits + misses) if hits + misses else 0.0)
    return ratios

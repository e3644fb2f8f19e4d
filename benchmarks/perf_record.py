"""Shared BENCH record helpers for the benchmark harness and the gate.

A *perf record* (``BENCH_<name>.json``, or ``BENCH_<name>_fast.json`` for
fast-mode runs) captures one benchmarked experiment run: wall time, the
telemetry metrics snapshot, and an ``environment`` block identifying the
machine that produced it.  ``benchmarks/conftest.py`` writes records
while the benchmark suite runs; ``benchmarks/check_regression.py``
compares fresh records against the committed baselines in
``benchmarks/perf/``.

Records are normalized so baselines compare across machines and
checkouts: the code version drops the volatile ``-dirty`` suffix, and
machine-dependent judgements (wall time) can be keyed off the
``environment.hostname`` field rather than assumed comparable.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time

from repro import obs

#: Default output directory for perf records, relative to this file.
DEFAULT_PERF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "perf")


def perf_dir() -> str | None:
    """The record output directory, or ``None`` when records are disabled.

    ``REPRO_BENCH_DIR`` overrides the default ``benchmarks/perf/``; an
    empty string disables record writing entirely.
    """
    configured = os.environ.get("REPRO_BENCH_DIR")
    if configured is not None:
        return configured or None  # empty string disables records
    return DEFAULT_PERF_DIR


def normalize_version(version: str) -> str:
    """Strip the ``-dirty`` suffix so records diff cleanly across checkouts."""
    return version[:-len("-dirty")] if version.endswith("-dirty") else version


def environment() -> dict:
    """The machine-identity block stamped into every record."""
    return {
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
    }


def record_filename(name: str, fast: bool = False) -> str:
    """``BENCH_<name>.json``, with a ``_fast`` suffix for fast-mode runs."""
    return f"BENCH_{name}_fast.json" if fast else f"BENCH_{name}.json"


#: Instrument-name prefix of the per-cell solve-latency histograms.
LATENCY_PREFIX = "latency."


def latency_block(snapshot: dict) -> dict:
    """Per-cell latency percentiles distilled from a metrics snapshot.

    One entry per ``latency.*`` histogram/timer series:
    ``{count, p50, p95, p99}`` in seconds — the SLO view the regression
    gate judges, separated from the full ``metrics`` block so older
    gate versions and human diffs need not dig through instrument
    summaries.
    """
    out: dict[str, dict] = {}
    for key, summary in snapshot.items():
        if not key.startswith(LATENCY_PREFIX):
            continue
        if not isinstance(summary, dict) or \
                summary.get("kind") not in ("histogram", "timer"):
            continue
        out[key] = {
            "count": summary.get("count", 0),
            "p50": summary.get("p50"),
            "p95": summary.get("p95"),
            "p99": summary.get("p99"),
        }
    return out


def build_record(name: str, result, wall_time_s: float, tel,
                 fast: bool = False) -> dict:
    """Assemble the serializable perf record for one experiment run."""
    snapshot = tel.metrics.snapshot()
    return {
        "benchmark": name,
        "fast": fast,
        "schema": obs.MANIFEST_SCHEMA,
        "version": normalize_version(obs.code_version()),
        "environment": environment(),
        "recorded_unix": time.time(),
        "wall_time_s": wall_time_s,
        "phase_timings": dict(result.phase_timings),
        "latency": latency_block(snapshot),
        "metrics": obs.wrap_snapshot(snapshot),
        "notes": list(result.notes),
    }


def write_perf_record(name: str, result, wall_time_s: float, tel,
                      fast: bool = False,
                      out_dir: str | None = None) -> str | None:
    """Write the perf record for one benchmarked experiment run.

    Returns the path written, or ``None`` when records are disabled via
    ``REPRO_BENCH_DIR=""`` (and no explicit ``out_dir`` was given).
    """
    if out_dir is None:
        out_dir = perf_dir()
        if out_dir is None:
            return None
    os.makedirs(out_dir, exist_ok=True)
    record = build_record(name, result, wall_time_s, tel, fast=fast)
    path = os.path.join(out_dir, record_filename(name, fast=fast))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def reset_solver_caches() -> None:
    """Start a benchmarked run cold so records compare across processes.

    The solver memoization caches (:mod:`repro.perf`) are process-global;
    without a reset, the second benchmark in one pytest process would
    measure warm-cache work and its counters would not be comparable to a
    cold run of the same code.
    """
    from repro.perf import clear_caches

    clear_caches()


def generate_record(name: str, fast: bool = False,
                    out_dir: str | None = None) -> str | None:
    """Run one experiment cold under fresh telemetry; write its perf record."""
    from repro.experiments import run_experiment

    was_enabled = obs.enabled()
    tel = obs.enable(fresh=True)
    reset_solver_caches()
    t0 = time.perf_counter()
    try:
        result = run_experiment(name, fast=fast)
        wall = time.perf_counter() - t0
        return write_perf_record(name, result, wall, tel, fast=fast,
                                 out_dir=out_dir)
    finally:
        if not was_enabled:
            obs.disable()

"""The paper-suite working process: the experiments at paper settings.

Every experiment of ``repro.experiments`` runs except those in
:data:`config.SUITE_SKIP`.

Started by ``run.py`` as a fresh process, so every cache starts cold.
The experiments run with the library's default seed, exactly as
``repro all`` regenerates the paper: the burst sampler's work is
heavy-tailed in its seed (43-66 s and 3.2-3.7 GB across seeds), so a
seeded suite could not hold a steady figure.
Protocol on stdout, one line each:

* ``ready <t>`` once imports finish (``t`` is ``time.perf_counter()``,
  the system-wide monotonic clock, so the parent can subtract its spawn
  time);
* one JSON object with per-experiment wall times, CPU time, the
  correctness verdicts and a digest of each experiment's ``data``.

After the JSON line the process waits for its stdin to close, so the
parent can read its peak RSS from ``/proc`` first.

Correctness reuses the paper-agreement checks of
``benchmarks/bench_*.py``: every ``test_*(report)`` function there is
called with a stub ``report`` that returns the result already computed.
A check that asks for a left-out experiment is not run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402
from config import BENCH_DIR, SUITE_SKIP  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def digest(data) -> str:
    """Short content hash of an experiment's ``data`` (not a gate)."""
    blob = json.dumps(data, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def bench_checks():
    """``(module name, check)`` for every ``test_*(report)`` in benchmarks/."""
    checks = []
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for attr, fn in sorted(vars(module).items()):
            if attr.startswith("test_") and callable(fn) and \
                    list(inspect.signature(fn).parameters) == ["report"]:
                checks.append((f"{name}.{attr}", fn))
    return checks


class _LeftOut(Exception):
    """A check asked for an experiment in ``SUITE_SKIP``."""


def run_checks(results: dict) -> dict[str, str]:
    """Verdict per experiment a check asked for: ``"ok"`` or why not."""
    verdicts = {}
    for name, check in bench_checks():
        asked = []

        def report(experiment, fast=True, rounds=1):
            if experiment in SUITE_SKIP:
                raise _LeftOut(experiment)
            asked.append(experiment)
            if fast:
                raise AssertionError(f"asks for a fast run of {experiment}")
            if experiment not in results:
                raise AssertionError(f"{experiment} did not run")
            return results[experiment]
        try:
            check(report)
            verdict = "ok"
        except AssertionError as exc:
            verdict = f"{name} failed: {exc}"
        except _LeftOut:
            continue
        for experiment in asked:
            if verdicts.get(experiment, "ok") == "ok":
                verdicts[experiment] = verdict
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--imports-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record spans and write them to PATH")
    args = parser.parse_args(argv)

    import repro.experiments as experiments

    names = [n for n in experiments.available_experiments()
             if n not in SUITE_SKIP]
    for name in names:
        importlib.import_module(f"repro.experiments.{name}")
    print(f"ready {time.perf_counter()!r}", flush=True)
    if args.imports_only:
        return 0

    installation = recorder = None
    if args.trace:
        import layers
        import tracer

        recorder = tracer.Recorder()
        installation = tracer.install(recorder, layers.TARGETS)

    results, wall, cpu, failures = {}, {}, {}, {}
    sampler = probe.Sampler()
    sampler.start()
    for name in names:
        t0, cpu0 = time.perf_counter(), _cpu_s()
        try:
            # Looked up at call time, so the traced wrapper is used.  No
            # rng: the library's default seed, as ``repro all`` runs it.
            results[name] = experiments.run_experiment(name, fast=False)
        except Exception as exc:  # counted as a failed operation
            failures[name] = f"{type(exc).__name__}: {exc}"
        wall[name] = time.perf_counter() - t0
        cpu[name] = _cpu_s() - cpu0
    speed = sampler.stop()
    if installation is not None:
        installation.restore()
        recorder.dump(args.trace)

    verdicts = run_checks(results)
    print(json.dumps({
        "experiments": names,
        "wall_s": wall,
        "cpu_s": sum(cpu.values()),
        "probe_s": speed,
        "probes": len(sampler.samples),
        "failures": failures,
        "checks": verdicts,
        "digests": {n: digest(r.data) for n, r in results.items()},
    }), flush=True)
    sys.stdin.read()  # the parent reads /proc/<pid>/status, then closes
    return 0


if __name__ == "__main__":
    sys.exit(main())

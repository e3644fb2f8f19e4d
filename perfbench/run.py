"""The repo benchmark: one run of one workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 8 \
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-suite`` — the experiments at paper settings, all but
  ``config.SUITE_SKIP``, in one fresh child process
  (:mod:`suite_child`), checked by the ``test_*`` functions of
  ``benchmarks/bench_*.py``;
* ``serve-hot`` / ``serve-cold`` — the unmodified ``python -m repro
  serve --port 0`` under load from a separate generator process
  (:mod:`generator`), a sample of responses checked against the
  in-process kernel.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: the same work with spans around every layer
(:mod:`layers`), reporting per-layer metrics and the traced run's own
end-to-end figures, whose gap to an untraced run is the tracing cost.

The human-readable report comes first; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import schedules  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from generator import peak_rss_mb  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, config.SRC)  # bench_serve.py imports repro

END_TO_END = config.END_TO_END

#: A generator whose p99 send lateness exceeds this has stalled, and the
#: open-loop latencies of its run are not trustworthy.
MAX_LATENESS_P99_S = 0.020


#: ``(working process CPU, generator CPU)``, or None on a one-CPU host.
#: The shared hosts this runs on slow each vCPU down and up on its own,
#: so the working process and the load generator each get one CPU and
#: always run where they were measured.
_ALLOWED = sorted(os.sched_getaffinity(0))
PLACEMENT = tuple(_ALLOWED[:2]) if len(_ALLOWED) >= 2 else None
WORK_CPU = PLACEMENT[0] if PLACEMENT is not None else None


class Child:
    """A child process whose stdout lines arrive through a queue.

    ``role`` 0 pins it to the working process's CPU, 1 to the
    generator's, None leaves it unpinned.
    """

    def __init__(self, argv: list[str], role: int | None = None) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=config.ROOT, env=_child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if role is not None and PLACEMENT is not None:
            # Python starts single-threaded, so its threads inherit this.
            os.sched_setaffinity(self.proc.pid, {PLACEMENT[role]})
        self._lines: queue.Queue = queue.Queue()
        self._stderr: list[str] = []
        self._threads = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True),
        ]
        for t in self._threads:
            t.start()

    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def wait(self, timeout: float) -> None:
        """Wait for the process to end by itself."""
        self.proc.stdin.close()
        self.proc.wait(timeout=timeout)
        for t in self._threads:
            t.join(timeout=5.0)

    def line(self, timeout: float) -> str:
        """The next stdout line; fails on timeout or end of output."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"{self._name()} gave no output in "
                               f"{timeout:.0f}s") from None
        if line is None:
            raise RuntimeError(f"{self._name()} exited: {self.stderr()}")
        return line.rstrip("\n")

    def line_matching(self, pattern: str, timeout: float) -> re.Match:
        deadline = time.perf_counter() + timeout
        while True:
            match = re.search(pattern, self.line(
                max(0.1, deadline - time.perf_counter())))
            if match:
                return match

    def stderr(self) -> str:
        return "".join(self._stderr[-20:]).strip()

    def _name(self) -> str:
        return " ".join(os.path.basename(a) for a in self.proc.args[1:3])

    def stop(self, sig=signal.SIGINT, timeout: float = 10.0) -> None:
        """Signal, wait, and kill if it will not end."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for t in self._threads:
            t.join(timeout=5.0)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = config.SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, script), *args]


def _spans_path(workload: str) -> str:
    os.makedirs(config.OUT_DIR, exist_ok=True)
    return os.path.join(config.OUT_DIR, f"spans-{workload}.json")


# -- paper-suite --------------------------------------------------------------

def run_paper_suite(trace: bool) -> dict:
    setups, raw_setups = [], []
    for _ in range(config.SETUP_REPEATS):
        before = probe.probe_on(WORK_CPU)
        imports = Child(_python("suite_child.py", "--imports-only"), role=0)
        try:
            ready = float(imports.line_matching(r"^ready (\S+)", 60)[1])
        finally:
            imports.stop(signal.SIGTERM)
        raw_setups.append(ready - imports.spawned)
        setups.append(probe.scaled(raw_setups[-1], before,
                                   probe.probe_on(WORK_CPU)))

    spans = _spans_path("paper-suite") if trace else None
    child = Child(_python("suite_child.py",
                          *(["--trace", spans] if spans else [])), role=0)
    try:
        child.line_matching(r"^ready (\S+)", 60)
        out = json.loads(child.line(config.CHILD_TIMEOUT_S))
        peak = peak_rss_mb(child.proc.pid)
        child.wait(timeout=30)
    finally:
        child.stop(signal.SIGTERM)

    bad = dict(out["failures"])
    bad.update({n: v for n, v in out["checks"].items() if v != "ok"})
    missing = [n for n in out["experiments"] if n not in out["checks"]]
    bad.update({n: "no check covers it" for n in missing})
    wall = sum(out["wall_s"].values())
    scale = probe.REFERENCE_S / out["probe_s"]
    result = {
        "attempted": len(out["experiments"]),
        "failed": len(bad),
        "errors": [f"{n}: {v}" for n, v in sorted(bad.items())],
        "metrics": {
            "setup_s": (stats.median(setups), len(setups)),
            "wall_ref_s": (wall * scale, out["probes"]),
            "cpu_ref_s": (out["cpu_s"] * scale, out["probes"]),
            "peak_rss_mb": (peak, 1),
        },
        "notes": [f"{n}: {out['wall_s'][n]:.3f}s digest="
                  f"{out['digests'].get(n, '-')}" for n in out["experiments"]]
        + [f"raw: wall {wall:.3f}s, cpu {out['cpu_s']:.3f}s, host probe "
           f"{out['probe_s'] * 1e3:.3f}ms (mean of {out['probes']}), "
           f"set-up median {stats.median(raw_setups):.3f}s"],
    }
    if trace:
        result["layers"] = layers.layer_metrics(
            tracer.Recorder.load(spans), ops=1, reference_s=wall)
    return result


# -- serve --------------------------------------------------------------------

def _ms(samples, q: float) -> str:
    """``pQ=<ms>``, or the highest percentile the samples support."""
    try:
        return f"p{q * 100:g}={stats.percentile(samples, q) * 1e3:.3f}ms"
    except stats.UnsupportedPercentile:
        best = stats.supported_percentile(len(samples))
        if best is None:
            return f"p{q * 100:g} unsupported"
        return (f"p{q * 100:g} unsupported, "
                f"{_ms(samples, best)}")


def _server_argv(trace_path: str | None) -> list[str]:
    cli = ["serve", "--port", "0", "--workers", str(config.SERVER_WORKERS)]
    if trace_path is None:
        return [sys.executable, "-m", "repro", *cli]
    return _python("traced_serve.py", "--spans", trace_path, "--", *cli)


def _http(conn: http.client.HTTPConnection, method: str, path: str,
          body=None) -> int:
    raw = None if body is None else json.dumps(body)
    conn.request(method, path, body=raw)
    resp = conn.getresponse()
    resp.read()
    return resp.status


def start_server(trace_path: str | None, warmup: list[tuple]) -> tuple:
    """Spawn a server; return it, its address and its set-up time.

    Set-up ends at the first 200 from ``/healthz`` and after the
    ``warmup`` requests (serve-hot sends each distinct cell once).
    """
    server = Child(_server_argv(trace_path), role=0)
    try:
        match = server.line_matching(
            r"listening on http://([\d.]+):(\d+)", 60)
        host, port = match[1], int(match[2])
        conn = http.client.HTTPConnection(host, port, timeout=30)
        while _http(conn, "GET", "/healthz") != 200:
            time.sleep(0.01)
        failed = sum(_http(conn, *req) != 200 for req in warmup)
        setup = time.perf_counter() - server.spawned
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, host, port, setup, failed


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spans = _spans_path(workload) if trace else None
    warmup = (schedules.distinct(schedules.hot_schedule())
              if workload == "serve-hot" else [])
    setups, raw_setups = [], []
    for i in range(config.SETUP_REPEATS):
        before = probe.probe_on(WORK_CPU)
        server, host, port, setup, warm_failed = start_server(spans, warmup)
        raw_setups.append(setup)
        setups.append(probe.scaled(setup, before, probe.probe_on(WORK_CPU)))
        if i < config.SETUP_REPEATS - 1:
            server.stop()
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--host", host, "--port", str(port),
            "--server-pid", str(server.proc.pid)]
    if PLACEMENT is not None:
        argv += ["--server-cpu", str(PLACEMENT[0])]
    gen = None
    try:
        gen = Child(_python("generator.py", *argv), role=1)
        out = json.loads(gen.line(config.CHILD_TIMEOUT_S))
        gen.wait(timeout=30)
    finally:
        if gen is not None:
            gen.stop()
        server.stop()

    n = out["closed"]["requests"]
    lo, hi = out["closed"]["window"]
    chunks = out["closed"]["chunks"]
    wall = sum(dt for dt, _, _ in chunks)
    cpu = sum(c for _, c, _ in chunks)
    ref = probe.REFERENCE_S
    errors = list(out["errors"])
    notes = [
        f"closed loop: {n} requests on {out['connections']} connections, "
        f"{n / wall:.1f} req/s, server CPU {cpu / n * 1e6:.1f} us/req "
        f"(raw: wall {wall:.3f}s, cpu {cpu:.3f}s, set-up median "
        f"{stats.median(raw_setups):.3f}s)",
        f"reference checks: {out['reference_checked']} responses compared",
    ]
    for level, phase in out["open"].items():
        lat = phase["latency_s"]
        parts = [f"open loop {level} @ {phase['rate_rps']:g} req/s: "
                 f"n={len(lat)}", _ms(lat, 0.5), _ms(lat, 0.99)]
        late = phase["lateness_s"]
        q = stats.supported_percentile(len(late))
        if q is not None:
            worst = stats.percentile(late, q)
            parts.append(f"generator lateness {_ms(late, q)}")
            if worst > MAX_LATENESS_P99_S:
                errors.append(f"generator stalled in the {level} phase "
                              f"(lateness p{q * 100:g} {worst * 1e3:.1f}ms)")
        notes.append(", ".join(parts))
    # Each stalled phase counts as one failed operation.
    stalled = sum(e.startswith("generator stalled") for e in errors)
    result = {
        "attempted": out["attempted"] + len(warmup) + stalled,
        "failed": out["failed"] + warm_failed + stalled,
        "errors": errors,
        "metrics": {
            "setup_s": (stats.median(setups), len(setups)),
            "wall_ref_s": (sum(dt * ref / p for dt, _, p in chunks),
                           len(chunks)),
            "cpu_ref_s": (sum(c * ref / p for _, c, p in chunks),
                          len(chunks)),
            "peak_rss_mb": (out["server_peak_rss_mb"], 1),
        },
        "notes": notes,
    }
    if trace:
        window = [s for s in tracer.Recorder.load(spans)
                  if lo <= s.start <= hi]
        records = [s for s in window if s.name == "serve.record"]
        server_s = sum(s.extra[0] + s.end - s.start for s in records) + sum(
            s.end - s.start for s in window if s.name == "serve.encode")
        result["layers"] = layers.layer_metrics(
            window, ops=max(1, len(records)), reference_s=server_s)
    return result


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Started in the background by a non-interactive shell, this process
    # inherits SIGINT ignored, and so would every child; a handler here
    # resets the children to the default, so SIGINT stops the servers.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    missing = [p for p in (os.path.join(config.SRC, "repro"),
                           config.BENCH_SERVE) if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    if args.workload == "paper-suite":
        result = run_paper_suite(trace)
    else:
        result = run_serve(args.workload, args.seed, args.seconds, trace)

    correct = result["failed"] == 0
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={correct}")
    for note in result["notes"]:
        print(f"  {note}")
    for error in result["errors"]:
        print(f"  ERROR {error}")
    for name, (value, count) in result["metrics"].items():
        print(f"  {'traced ' if trace else ''}{name:<12} {value:14.6f} "
              f"{END_TO_END[name]:<3} (n={count})")

    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in layers.metric_specs()
                   if name in result["layers"]}
        for name, (value, _) in result["metrics"].items():
            metrics[f"traced.{name}"] = {"value": value,
                                         "unit": END_TO_END[name]}
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, (value, _) in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

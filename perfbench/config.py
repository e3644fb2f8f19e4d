"""Fixed settings of the repo benchmark.

Everything a run's numbers depend on, other than the code under test,
the ``--seed`` and ``--seconds`` arguments, lives here.  The open-loop
rates are fixed once (about a quarter and two thirds of the closed-loop
throughput measured when the benchmark was defined) and are never
re-derived from the commit under test, so two commits face the same
offered load.
"""

from __future__ import annotations

import os

#: Repository root: the benchmark lives one directory below it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_SERVE = os.path.join(ROOT, "benchmarks", "bench_serve.py")
BENCH_DIR = os.path.join(ROOT, "benchmarks")

#: Scratch directory for span dumps of traced runs (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("paper-suite", "serve-hot", "serve-cold")

#: Experiments the paper-suite leaves out.  ``ablation_burstiness``
#: re-runs fig4's burst sampler over 19 more class ladders: 60% of a
#: full pass, which then takes 65-100 s, too long for the runs of the
#: benchmark to fit their time budget.  fig4 still drives every
#: function of the burst layers (``sample``, ``ccdf_at``,
#: ``fit_loglog_tail``, ``is_heavy_tailed``, ``estimate_hurst``).
SUITE_SKIP = ("ablation_burstiness",)

#: End-to-end metrics, name -> unit.  ``wall_ref_s`` and ``cpu_ref_s``
#: are the wall and CPU time of the workload's fixed job scaled to the
#: reference host speed (see ``probe.py``); the raw times are printed
#: beside them.
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s",
              "peak_rss_mb": "MB"}

#: Processes spawned per run to measure set-up; ``setup_s`` is the
#: median of their set-up times, each scaled to the reference host speed
#: by probes taken just before and after it (:func:`probe.scaled`).
SETUP_REPEATS = 5

#: Connections the load generator opens (``nproc`` on the 2-vCPU host
#: the benchmark was defined on; never more than the host's CPU count).
CONNECTIONS = 2

#: Server worker threads (the ``repro serve`` default).
SERVER_WORKERS = 4

#: Per serve workload: closed-loop request count, open-loop rates in
#: req/s (about 1/4 and 2/3 of the closed-loop throughput), cold
#: warm-up length in requests (fills the 4,096-entry flow cache), and
#: the number of responses compared against the in-process kernel.
SERVE = {
    "serve-hot": {
        "closed_requests": 40000,
        "light_rps": 600.0,
        "heavy_rps": 1600.0,
        "warmup_requests": 0,
        "reference_checks": 200,
    },
    "serve-cold": {
        "closed_requests": 3600,
        "light_rps": 120.0,
        "heavy_rps": 320.0,
        "warmup_requests": 2000,
        "reference_checks": 200,
    },
}

#: The closed loop is timed in this many equal chunks, probing the host
#: between them (:mod:`probe`).
CLOSED_CHUNKS = 40

#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 170.0

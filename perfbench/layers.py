"""The layers the traced run measures, and the per-layer metrics.

Each layer is a module of ``repro``; a span wraps each public function
named below.  ``MOVES`` records, before any optimisation is measured,
which end-to-end metric each layer should move and on which workload it
does most and least work.

Per-layer metrics are per operation: one request on the serve
workloads, one suite pass on ``paper-suite``.  Serve spans are named by
role, not function: ``serve.pool_wait`` wraps ``_handle_post``, so its
self time is body decoding, the request-span bookkeeping and the hop
to and from the worker pool; ``serve.encode`` wraps ``_respond``.  The
server-side time of a request that no span holds is event-loop wait
while the other connection's request runs (``trace.coverage``).
"""

from __future__ import annotations

from config import END_TO_END, SUITE_SKIP
from tracer import Target, by_name, set_request_id

#: The paper-suite's experiments, in
#: ``repro.experiments.available_experiments()`` order.
EXPERIMENTS = tuple(e for e in (
    "table1", "table2", "table3", "fig1_fig2", "fig3", "fig4", "fig5",
    "fig6", "table4", "sp_peak", "ablation_inputs", "ablation_burstiness",
    "ablation_extended",
) if e not in SUITE_SKIP)

#: layer -> (end-to-end metrics it should move, most work, little work)
MOVES = {
    "experiments": ("wall_ref_s", "paper-suite", "serve-*"),
    "sampler": ("wall_ref_s, peak_rss_mb", "paper-suite", "serve-*"),
    "arrivals": ("wall_ref_s, peak_rss_mb", "paper-suite", "serve-*"),
    "burst": ("wall_ref_s", "paper-suite", "serve-*"),
    "calibration": ("wall_ref_s, cpu_ref_s", "serve-hot", "paper-suite"),
    "perf": ("wall_ref_s, cpu_ref_s", "serve-hot (hits)",
             "serve-cold (misses)"),
    "flow": ("wall_ref_s", "serve-cold", "serve-hot"),
    "mva": ("wall_ref_s", "serve-cold", "serve-hot"),
    "core": ("wall_ref_s", "serve-*", "paper-suite"),
    "serve": ("wall_ref_s, cpu_ref_s", "serve-hot", "serve-cold"),
}
LAYERS = tuple(MOVES)


def _experiment_label(args, kwargs):
    return "experiments." + (args[0] if args else kwargs["name"])


def _trace_shape(args, kwargs, trace):
    return (trace.n_windows, int(trace.counts.sum()))


def _array_size(args, kwargs, times):
    return (int(times.size),)


def _cells(args, kwargs, flows):
    return (len(flows),)


def _cache_label(args, kwargs):
    return f"perf.{args[0].name}_cache.get"


def _cache_hit(args, kwargs, value):
    from repro.perf.cache import MISS

    return (0 if value is MISS else 1,)


def _tag_request(args, kwargs, parsed):
    _method, _path, headers = parsed
    set_request_id(headers.get("x-repro-request-id", ""))
    return None


def _request_seconds(args, kwargs, _none):
    return (kwargs["duration_s"],)


_ARR = "repro.desim.arrivals"

TARGETS = (
    Target("experiments", "repro.experiments.runner", "run_experiment",
           label=_experiment_label),
    Target("sampler.sample", "repro.counters.sampler", "BurstSampler.sample",
           extract=_trace_shape),
    Target("sampler.phase_envelope", "repro.counters.sampler",
           "phase_envelope"),
    Target("sampler.arrival_process_for", "repro.counters.sampler",
           "arrival_process_for"),
    Target("arrivals.counts_in_windows", _ARR,
           "ArrivalProcess.counts_in_windows"),
    Target("arrivals.counts_in_windows", _ARR,
           "PoissonArrivals.counts_in_windows"),
    Target("arrivals.arrival_times", _ARR, "ArrivalProcess.arrival_times",
           extract=_array_size),
    Target("arrivals.arrival_times", _ARR, "OnOffArrivals.arrival_times",
           extract=_array_size),
    Target("arrivals.arrival_times", _ARR, "MMPPArrivals.arrival_times",
           extract=_array_size),
    Target("burst.ccdf_at", "repro.burst.ccdf", "ccdf_at"),
    Target("burst.fit_loglog_tail", "repro.burst.tail", "fit_loglog_tail"),
    Target("burst.is_heavy_tailed", "repro.burst.tail", "is_heavy_tailed"),
    Target("burst.estimate_hurst", "repro.burst.selfsimilar",
           "estimate_hurst"),
    Target("calibration.calibrate_profile", "repro.runtime.calibration",
           "calibrate_profile"),
    Target("perf.flow_key", "repro.perf.keys", "flow_key"),
    Target("perf.flow_cache.get", "repro.perf.cache", "MemoCache.get",
           extract=_cache_hit, label=_cache_label),
    Target("flow.solve_flow", "repro.runtime.flow", "solve_flow"),
    Target("flow.solve_flow_cells", "repro.runtime.flow", "solve_flow_cells",
           extract=_cells),
    Target("mva.exact_throughputs_cells", "repro.qnet.mva",
           "exact_throughputs_cells"),
    Target("mva.schweitzer_throughputs", "repro.qnet.mva",
           "schweitzer_throughputs"),
    Target("core.predict_workload", "repro.core.predict", "predict_workload"),
    Target("core.recommend_workload", "repro.core.predict",
           "recommend_workload"),
    Target("serve.parse", "repro.serve.http", "_parse_head",
           extract=_tag_request),
    Target("serve.pool_wait", "repro.serve.http",
           "PredictionServer._handle_post"),
    Target("serve.route", "repro.serve.http", "PredictionServer._route"),
    Target("serve.get", "repro.serve.http", "PredictionServer._handle_get"),
    Target("serve.handler", "repro.serve.service", "handle_predict"),
    Target("serve.handler", "repro.serve.service", "handle_recommend"),
    Target("serve.encode", "repro.serve.http", "_respond"),
    Target("serve.record", "repro.serve.stats", "ServiceTelemetry.record",
           extract=_request_seconds),
)

SPAN_NAMES = tuple(dict.fromkeys(
    t.span for t in TARGETS if t.span != "experiments"))

#: Workload-specific counts and ratios, beside each span's calls/total/self.
EXTRA_METRICS = (
    ("sampler.windows", "1/op", "lower"),
    ("arrivals.timestamps", "1/op", "lower"),
    ("arrivals.kept_ratio", "ratio", "higher"),
    ("arrivals.peak_array_mb", "MB", "lower"),
    ("perf.flow_cache.hit_ratio", "ratio", "higher"),
    ("flow.cells", "1/op", "lower"),
    ("serve.requests", "count", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "1/op", "lower"),
)



def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    specs = [(f"experiments.{e}.s", "s/op", "lower") for e in EXPERIMENTS]
    specs.append(("experiments.self_s", "s/op", "lower"))
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "1/op", "lower"),
                  (f"{name}.total_s", "s/op", "lower"),
                  (f"{name}.self_s", "s/op", "lower")]
    specs += list(EXTRA_METRICS)
    specs += [(f"layer.{layer}.share", "ratio", "lower") for layer in LAYERS]
    # The traced run's own end-to-end figures, for the tracing overhead.
    specs += [(f"traced.{name}", unit, "lower")
              for name, unit in END_TO_END.items()]
    return specs


def layer_metrics(spans, ops: int, reference_s: float) -> dict[str, float]:
    """Per-layer metrics of ``spans``, per operation.

    ``reference_s`` is the time the layers should account for: the
    suite's wall time, or the server-side time of the traced requests.
    Layer shares and ``trace.coverage`` are self time over it.
    """
    agg = by_name(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for exp in EXPERIMENTS:
        out[f"experiments.{exp}.s"] = \
            agg.get(f"experiments.{exp}", zero)["total_s"] / ops
    out["experiments.self_s"] = sum(
        v["self_s"] for k, v in agg.items()
        if k.startswith("experiments.")) / ops
    for name in SPAN_NAMES:
        a = agg.get(name, zero)
        out[f"{name}.calls"] = a["calls"] / ops
        out[f"{name}.total_s"] = a["total_s"] / ops
        out[f"{name}.self_s"] = a["self_s"] / ops

    extras: dict[str, list[tuple]] = {}
    for s in spans:
        if s.extra is not None:
            extras.setdefault(s.name, []).append(s.extra)
    traces = extras.get("sampler.sample", [])
    stamps = [e[0] for e in extras.get("arrivals.arrival_times", [])]
    gets = [e[0] for e in extras.get("perf.flow_cache.get", [])]
    kept = sum(e[1] for e in traces)
    out["sampler.windows"] = sum(e[0] for e in traces) / ops
    out["arrivals.timestamps"] = sum(stamps) / ops
    out["arrivals.kept_ratio"] = kept / sum(stamps) if stamps else 0.0
    out["arrivals.peak_array_mb"] = max(stamps, default=0) * 8 / 2 ** 20
    out["perf.flow_cache.hit_ratio"] = sum(gets) / len(gets) if gets else 0.0
    out["flow.cells"] = sum(
        e[0] for e in extras.get("flow.solve_flow_cells", [])) / ops
    out["serve.requests"] = agg.get("serve.record", zero)["calls"]
    out["trace.spans"] = len(spans) / ops

    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, a in agg.items():
        per_layer[name.split(".")[0]] += a["self_s"]
    out["trace.coverage"] = sum(per_layer.values()) / reference_s
    for layer, self_s in per_layer.items():
        out[f"layer.{layer}.share"] = self_s / reference_s
    return out

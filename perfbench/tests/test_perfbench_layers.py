import importlib
import json
import os

import layers
import run
import tracer
from config import ROOT


def _resolve(target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_real_targets_install_and_restore():
    before = {}
    for t in layers.TARGETS:
        owner, name = _resolve(t)
        before[(t.module, t.attr)] = vars(owner)[name]
    from repro.serve import service

    predict_mod = importlib.import_module("repro.core.predict")

    alias_before = (service.predict_workload, predict_mod.calibrate_profile)
    inst = tracer.install(tracer.Recorder(), layers.TARGETS)
    try:
        for t in layers.TARGETS:
            owner, name = _resolve(t)
            assert vars(owner)[name] is not before[(t.module, t.attr)], t
        assert service.predict_workload is not alias_before[0]
        assert predict_mod.calibrate_profile is not alias_before[1]
    finally:
        inst.restore()
    for t in layers.TARGETS:
        owner, name = _resolve(t)
        assert vars(owner)[name] is before[(t.module, t.attr)], t
    assert (service.predict_workload,
            predict_mod.calibrate_profile) == alias_before


def test_a_traced_prediction_reaches_every_serve_side_layer():
    from repro.perf import clear_caches
    from repro.serve import service

    clear_caches()
    rec = tracer.Recorder()
    inst = tracer.install(rec, layers.TARGETS)
    try:
        status, _ = service.handle_predict(
            {"machine": "intel_uma", "program": "CG", "size": "W",
             "n_active": 3, "n_threads": 5})
    finally:
        inst.restore()
    assert status == 200
    names = {s.name for s in rec.spans}
    assert {"serve.handler", "core.predict_workload",
            "calibration.calibrate_profile", "flow.solve_flow",
            "perf.flow_key", "perf.flow_cache.get",
            "mva.exact_throughputs_cells"} <= names
    m = layers.layer_metrics(rec.spans, ops=1, reference_s=sum(
        s.end - s.start for s in rec.spans if s.name == "serve.handler"))
    assert abs(m["trace.coverage"] - 1.0) < 1e-9
    assert m["perf.flow_cache.hit_ratio"] == 0.0
    assert m["core.predict_workload.calls"] == 1


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.config.WORKLOADS)

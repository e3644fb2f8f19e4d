"""Tests of the interned calibrated profile and its stored fingerprint.

``calibrate_profile`` returns one frozen profile per (program, class,
machine value), and ``cached_fingerprint`` keeps the digest on that
object, so a warm ``/predict`` neither rebuilds nor re-walks its solver
input.
"""

import dataclasses
import sys
import threading

import pytest

from repro import obs, perf
from repro.machine import intel_numa
from repro.obs import names as _names
from repro.perf import keys
from repro.runtime import calibration
from repro.runtime.calibration import calibrate_profile
from repro.serve.service import handle_predict
from repro.workloads.base import Workload, WorkloadError

PREDICT_BODY = {"machine": "intel_numa", "program": "CG", "size": "C",
                "n_active": 12}


@pytest.fixture(autouse=True)
def _isolation():
    was_enabled = perf.caches_enabled()
    perf.set_enabled(True)
    yield
    perf.set_enabled(was_enabled)
    obs.disable()


def scaled_llc(machine, factor: int):
    """``machine`` with every last-level cache ``factor`` times larger."""
    procs = tuple(
        dataclasses.replace(p, caches=p.caches[:-1] + (dataclasses.replace(
            p.caches[-1], size_bytes=p.caches[-1].size_bytes * factor),))
        for p in machine.processors)
    return dataclasses.replace(machine, processors=procs)


class TestInterning:
    def test_separately_built_presets_share_one_profile(self):
        first = calibrate_profile("CG", "C", intel_numa())
        assert calibrate_profile("CG", "C", intel_numa()) is first

    def test_llc_size_splits_the_key(self):
        # x264 is uncalibrated, so its profile shows the LLC-aware miss
        # estimate; both machines map to the same ``machine_key``.
        small, big = intel_numa(), scaled_llc(intel_numa(), 4)
        assert calibration.machine_key(small) == calibration.machine_key(big)
        on_small = calibrate_profile("x264", "native", small)
        on_big = calibrate_profile("x264", "native", big)
        assert on_big != on_small
        assert calibrate_profile("x264", "native",
                                 scaled_llc(intel_numa(), 4)) is on_big

    def test_invalid_inputs_raise_every_call_and_are_never_stored(self):
        machine = intel_numa()
        before = dict(calibration._profiles)
        for _ in range(2):
            with pytest.raises(WorkloadError):
                calibrate_profile("NOPE", "C", machine)
            with pytest.raises(WorkloadError):
                calibrate_profile("CG", "Z", machine)
        assert calibration._profiles == before

    def test_every_call_counts_a_lookup(self):
        tel = obs.enable(fresh=True)
        for _ in range(3):
            calibrate_profile("SP", "C", intel_numa())
        value = tel.metrics.snapshot()[
            _names.CALIBRATION_PROFILE_LOOKUPS]["value"]
        assert value == 3

    def test_racing_threads_get_one_object(self):
        # More threads than cores and a 1 µs switch interval, so the
        # get-miss / build / setdefault window is hit; every caller must
        # still get the single interned object.
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for factor in (8, 16, 32):  # each a machine not interned yet
                machine = scaled_llc(intel_numa(), factor)
                barrier = threading.Barrier(8)
                batch = []

                def worker():
                    barrier.wait(timeout=10)
                    batch.append(calibrate_profile("FT", "B", machine))

                threads = [threading.Thread(target=worker)
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                results.append(batch)
        finally:
            sys.setswitchinterval(interval)
        for batch in results:
            assert len(batch) == 8
            assert all(r is batch[0] for r in batch)


class TestWarmPath:
    def test_warm_predicts_rebuild_and_walk_nothing(self, monkeypatch):
        assert handle_predict(dict(PREDICT_BODY))[0] == 200  # warm-up
        walks, builds = [], []
        real_fingerprint, real_profile = keys.fingerprint, Workload.profile

        def counting_fingerprint(obj):
            walks.append(type(obj).__name__)
            return real_fingerprint(obj)

        def counting_profile(self, size_name, machine):
            builds.append(size_name)
            return real_profile(self, size_name, machine)

        monkeypatch.setattr(keys, "fingerprint", counting_fingerprint)
        monkeypatch.setattr(Workload, "profile", counting_profile)
        for _ in range(100):
            status, payload = handle_predict(dict(PREDICT_BODY))
            assert status == 200
        assert walks == []
        assert builds == []

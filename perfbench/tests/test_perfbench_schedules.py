from collections import Counter

import pytest

import config
import schedules


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
def test_schedules_are_deterministic_per_seed(workload):
    a = schedules.requests_for(workload, 7, 500)
    assert a == schedules.requests_for(workload, 7, 500)
    assert a != schedules.requests_for(workload, 8, 500)
    assert a != schedules.requests_for(workload, 7, 500, stream=1)


def test_hot_replays_the_mixed_pool():
    reqs = schedules.requests_for("serve-hot", 3, 2400)
    paths = Counter(path for _, path, _ in reqs)
    assert paths == {"/predict": 1920, "/recommend": 360, "/healthz": 120}
    predict_cells = {schedules.request_key(r) for r in reqs
                     if r[1] == "/predict"}
    assert len(predict_cells) == 21
    assert len(schedules.distinct(reqs)) == 24


def test_cold_emits_only_valid_cells():
    reqs = schedules.requests_for("serve-cold", 11, 5000)
    recommends = 0
    for method, path, body in reqs:
        cores = schedules.MACHINE_CORES[body["machine"]]
        threads = body["n_threads"]
        assert method == "POST"
        assert body["program"] in schedules.PROGRAMS
        assert body["size"] in schedules.SIZES
        assert 1 <= threads <= 2 * cores
        if path == "/predict":
            assert 1 <= body["n_active"] <= min(threads, cores)
        else:
            recommends += 1
            counts = body["core_counts"]
            assert 4 <= len(counts) <= 8
            assert counts == sorted(set(counts))
            assert 1 <= counts[0] and counts[-1] <= cores <= 2 * cores
            assert counts[-1] <= threads
    assert 0.12 < recommends / len(reqs) < 0.18


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cold_miss_ratio_is_steady_after_warmup(seed):
    warmup = config.SERVE["serve-cold"]["warmup_requests"]
    # The closed loop and both open-loop phases come to ~3,000 requests.
    reqs = (schedules.requests_for("serve-cold", seed, warmup, stream=100)
            + schedules.requests_for("serve-cold", seed, 3000))
    ratios = schedules.simulated_miss_ratios(reqs, capacity=4096,
                                             warmup=warmup, blocks=3)
    assert min(ratios) > 0.5
    assert max(ratios) - min(ratios) < 0.06
    # Without the warm-up the miss ratio would still be falling.
    cold_start = schedules.simulated_miss_ratios(
        reqs[warmup:], capacity=4096, warmup=0, blocks=3)
    assert cold_start[0] - cold_start[1] > 0.1


def test_hot_cells_all_hit_after_warmup():
    reqs = schedules.requests_for("serve-hot", 5, 3000)
    warm = schedules.distinct(reqs)
    ratios = schedules.simulated_miss_ratios(warm + reqs, capacity=4096,
                                             warmup=len(warm), blocks=3)
    assert ratios == [0.0, 0.0, 0.0]

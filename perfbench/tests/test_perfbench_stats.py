import pytest

import stats


def test_p99_needs_ten_samples_beyond():
    values = list(range(1000))
    assert stats.percentile(values, 0.99) == 989  # ten values above it
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(values[:999], 0.99)


def test_median_is_refused_on_tiny_samples():
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile([1.0] * 19, 0.5)
    assert stats.percentile(list(range(20)), 0.5) == 9


def test_supported_percentile():
    assert stats.supported_percentile(10_000) == 0.999
    assert stats.supported_percentile(1000) == 0.99
    assert stats.supported_percentile(999) == 0.95
    assert stats.supported_percentile(200) == 0.95
    assert stats.supported_percentile(20) == 0.5
    assert stats.supported_percentile(19) is None


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)



def test_sampler_probes_on_a_timer_and_restores_the_handler():
    import signal
    import time

    import probe

    previous = signal.getsignal(signal.SIGALRM)
    sampler = probe.Sampler(interval_s=0.02)
    sampler.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        sum(range(1000))
    mean = sampler.stop()
    assert len(sampler.samples) >= 5
    assert min(sampler.samples) <= mean <= max(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_on_keeps_this_threads_placement():
    import os

    import probe

    home = os.sched_getaffinity(0)
    assert probe.probe_on(sorted(home)[0], repeats=1) > 0
    assert os.sched_getaffinity(0) == home

"""Arrival-process tests: rates, SCVs, windowed counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.desim.arrivals import (
    DeterministicArrivals,
    HyperexponentialArrivals,
    MMPPArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.util.validation import ValidationError


class TestPoisson:
    def test_mean_rate(self):
        assert PoissonArrivals(3.0).mean_rate == 3.0

    def test_interarrival_mean(self, rng):
        x = PoissonArrivals(4.0).sample_interarrivals(20_000, rng)
        assert float(x.mean()) == pytest.approx(0.25, rel=0.05)

    def test_scv_is_one(self):
        assert PoissonArrivals(4.0).interarrival_scv() == 1.0

    def test_empirical_scv_matches(self, rng):
        p = PoissonArrivals(2.0)
        assert p.estimate_interarrival_scv(50_000, rng) == pytest.approx(
            1.0, rel=0.1)

    def test_window_counts_mean(self, rng):
        counts = PoissonArrivals(100.0).counts_in_windows(0.1, 20_000, rng)
        assert float(counts.mean()) == pytest.approx(10.0, rel=0.05)

    def test_arrival_times_bounded_and_sorted(self, rng):
        t = PoissonArrivals(50.0).arrival_times(10.0, rng)
        assert t.size > 0
        assert float(t.max()) < 10.0
        assert np.all(np.diff(t) >= 0)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(0.0)


class TestDeterministic:
    def test_even_spacing(self):
        x = DeterministicArrivals(2.0).sample_interarrivals(5)
        assert np.allclose(x, 0.5)

    def test_scv_zero(self):
        assert DeterministicArrivals(2.0).interarrival_scv() == 0.0

    def test_window_counts_concentrated(self, rng):
        counts = DeterministicArrivals(100.0).counts_in_windows(
            0.1, 1000, rng)
        # Every window holds 10 +- 1 arrivals: the saturated cliff.
        assert counts.min() >= 9
        assert counts.max() <= 11


class TestHyperexponential:
    def test_moments_match_request(self, rng):
        h = HyperexponentialArrivals(rate=2.0, scv=5.0)
        x = h.sample_interarrivals(200_000, rng)
        assert float(x.mean()) == pytest.approx(0.5, rel=0.05)
        scv = float(x.var(ddof=1)) / float(x.mean()) ** 2
        assert scv == pytest.approx(5.0, rel=0.15)

    def test_scv_property(self):
        assert HyperexponentialArrivals(1.0, 4.0).interarrival_scv() == 4.0

    def test_rejects_scv_below_one(self):
        with pytest.raises(ValidationError):
            HyperexponentialArrivals(1.0, 0.9)

    @given(st.floats(1.1, 20.0), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_balanced_means_construction(self, scv, rate):
        h = HyperexponentialArrivals(rate, scv)
        # Mixture mean must equal 1/rate analytically.
        mean = h.p1 / h.mu1 + (1 - h.p1) / h.mu2
        assert mean == pytest.approx(1.0 / rate, rel=1e-9)


class TestOnOff:
    def test_mean_rate_formula(self):
        p = OnOffArrivals(on_rate=100.0, mean_on=1.0, mean_off=3.0,
                          heavy_tailed=False)
        assert p.mean_rate == pytest.approx(25.0)
        assert p.duty_cycle == pytest.approx(0.25)

    def test_long_run_rate(self, rng):
        p = OnOffArrivals(on_rate=200.0, mean_on=0.5, mean_off=1.5,
                          heavy_tailed=False)
        t = p.arrival_times(400.0, rng)
        assert t.size / 400.0 == pytest.approx(p.mean_rate, rel=0.1)

    def test_heavy_long_run_rate(self, rng):
        p = OnOffArrivals(on_rate=200.0, mean_on=0.5, mean_off=1.5,
                          heavy_tailed=True, alpha=1.8)
        t = p.arrival_times(400.0, rng)
        assert t.size / 400.0 == pytest.approx(p.mean_rate, rel=0.25)

    def test_burstier_than_poisson(self, rng):
        onoff = OnOffArrivals(on_rate=1000.0, mean_on=0.05, mean_off=0.95,
                              heavy_tailed=False)
        c_onoff = onoff.counts_in_windows(0.2, 3000, rng)
        pois = PoissonArrivals(onoff.mean_rate)
        c_pois = pois.counts_in_windows(0.2, 3000, rng)
        var_ratio_onoff = c_onoff.var() / c_onoff.mean()
        var_ratio_pois = c_pois.var() / c_pois.mean()
        assert var_ratio_onoff > 3 * var_ratio_pois

    def test_interarrival_scv_above_one(self, rng):
        p = OnOffArrivals(on_rate=500.0, mean_on=0.1, mean_off=0.9,
                          heavy_tailed=False)
        assert p.estimate_interarrival_scv(30_000, rng) > 2.0

    def test_pareto_alpha_validated(self):
        with pytest.raises(ValidationError):
            OnOffArrivals(1.0, 1.0, 1.0, heavy_tailed=True, alpha=0.9)

    def test_times_sorted(self, rng):
        p = OnOffArrivals(on_rate=100.0, mean_on=0.2, mean_off=0.8)
        t = p.arrival_times(50.0, rng)
        assert np.all(np.diff(t) >= 0)
        assert float(t.max()) < 50.0


class TestMMPP:
    def test_mean_rate_weighting(self):
        p = MMPPArrivals(rates=[0.0, 100.0], mean_holding=[3.0, 1.0])
        assert p.mean_rate == pytest.approx(25.0)

    def test_long_run_rate(self, rng):
        p = MMPPArrivals(rates=[10.0, 200.0], mean_holding=[1.0, 1.0])
        t = p.arrival_times(300.0, rng)
        assert t.size / 300.0 == pytest.approx(105.0, rel=0.1)

    def test_needs_two_states(self):
        with pytest.raises(ValidationError):
            MMPPArrivals(rates=[1.0], mean_holding=[1.0])

    def test_needs_positive_activity(self):
        with pytest.raises(ValidationError):
            MMPPArrivals(rates=[0.0, 0.0], mean_holding=[1.0, 1.0])

    def test_sample_interarrivals_count(self, rng):
        p = MMPPArrivals(rates=[5.0, 50.0], mean_holding=[1.0, 1.0])
        x = p.sample_interarrivals(1000, rng)
        assert x.shape == (1000,)
        assert np.all(x >= 0)


def _expanding_horizon_gaps(process, n, rng):
    """The interarrival construction, spelled out independently."""
    horizon = (n + 16) / process.mean_rate
    while True:
        times = process.arrival_times(horizon, rng)
        if times.size >= n + 1:
            return np.diff(times[: n + 1])
        horizon *= 2.0


class TestTimestampInterarrivals:
    """OnOff and MMPP interarrivals draw exactly the seeded timestamps."""

    @pytest.mark.parametrize("process,seed,doubles", [
        (OnOffArrivals(on_rate=50.0, mean_on=0.2, mean_off=0.8), 7, True),
        (OnOffArrivals(on_rate=50.0, mean_on=0.2, mean_off=0.8,
                       heavy_tailed=False), 7, False),
        (OnOffArrivals(on_rate=50.0, mean_on=0.2, mean_off=0.8,
                       heavy_tailed=False), 8, True),
        (MMPPArrivals(rates=[100.0, 0.0], mean_holding=[0.05, 0.5]), 7, True),
    ])
    def test_seeded_draws_equal_the_expanding_horizon_gaps(
            self, process, seed, doubles):
        n = 400
        got = process.sample_interarrivals(n, np.random.default_rng(seed))
        want = _expanding_horizon_gaps(process, n,
                                       np.random.default_rng(seed))
        assert got.shape == (n,)
        assert np.array_equal(got, want)
        # The case list covers both one-pass and doubled horizons.
        first = process.arrival_times((n + 16) / process.mean_rate,
                                      np.random.default_rng(seed))
        assert (first.size < n + 1) == doubles

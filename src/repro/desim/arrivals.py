"""Arrival processes for memory-request traffic.

The paper's central traffic observation is that off-chip request streams of
*small* problem sizes are highly bursty (heavy-tailed burst-size CCDF) while
*large*, contention-bound problem sizes produce smooth, near-saturated
traffic.  We model both regimes:

* :class:`PoissonArrivals` — the smooth limit (SCV = 1) assumed by the
  paper's analytical M/M/1 model;
* :class:`OnOffArrivals` — an ON/OFF source whose ON periods can be
  Pareto-distributed, producing the heavy-tailed bursts of small problems;
* :class:`MMPPArrivals` — Markov-modulated Poisson, a multi-level
  generalisation used for phase-structured kernels;
* :class:`HyperexponentialArrivals` / :class:`DeterministicArrivals` —
  parametric SCV control for the flow-level G/G/1 corrections.

Each process exposes its mean rate, an (analytic or estimated) interarrival
squared coefficient of variation, and fast vectorised generation of arrival
timestamps for the burst sampler.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.util.rng import resolve_rng
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_positive,
)


class ArrivalProcess(abc.ABC):
    """A stationary point process of memory-request arrival instants."""

    @property
    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run arrivals per unit time."""

    @abc.abstractmethod
    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` consecutive interarrival times."""

    def interarrival_scv(self) -> float:
        """Squared coefficient of variation of interarrival times.

        Subclasses with a closed form override this; the default estimates
        from 200k simulated interarrivals with the library seed.
        """
        return self.estimate_interarrival_scv(200_000)

    def estimate_interarrival_scv(self, n: int, rng=None) -> float:
        """Monte-Carlo estimate of the interarrival SCV from ``n`` draws."""
        check_integer("n", n, minimum=2)
        x = self.sample_interarrivals(n, rng)
        m = float(x.mean())
        if m <= 0:
            raise ValidationError("degenerate interarrival sample")
        return float(x.var(ddof=1)) / (m * m)

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        """Arrival timestamps in ``[0, horizon)``.

        Default implementation accumulates interarrivals in batches; heavy
        subclasses override with direct constructions.
        """
        check_positive("horizon", horizon)
        rng = resolve_rng(rng)
        out: list[np.ndarray] = []
        t = 0.0
        # Expected count plus slack; regenerate until horizon is covered.
        batch = max(1024, int(self.mean_rate * horizon * 1.2) + 16)
        while t < horizon:
            gaps = self.sample_interarrivals(batch, rng)
            times = t + np.cumsum(gaps)
            out.append(times)
            t = float(times[-1])
        all_times = np.concatenate(out)
        return all_times[all_times < horizon]

    def counts_in_windows(self, window: float, n_windows: int,
                          rng=None) -> np.ndarray:
        """Per-window arrival counts over ``n_windows`` windows of ``window``.

        This is the sampled quantity of the paper's 5 microsecond profiler.
        """
        check_positive("window", window)
        check_integer("n_windows", n_windows, minimum=1)
        horizon = window * n_windows
        times = self.arrival_times(horizon, rng)
        idx = np.floor_divide(times, window).astype(np.int64)
        idx = np.clip(idx, 0, n_windows - 1)
        return np.bincount(idx, minlength=n_windows).astype(np.int64)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` (SCV = 1)."""

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return 1.0

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        return rng.exponential(1.0 / self.rate, size=n)

    def counts_in_windows(self, window: float, n_windows: int,
                          rng=None) -> np.ndarray:
        # Direct construction: window counts of a Poisson process are iid
        # Poisson(rate * window).
        check_positive("window", window)
        check_integer("n_windows", n_windows, minimum=1)
        rng = resolve_rng(rng)
        return rng.poisson(self.rate * window, size=n_windows).astype(np.int64)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` (SCV = 0) — the saturated limit."""

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return 0.0

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        return np.full(n, 1.0 / self.rate)


class HyperexponentialArrivals(ArrivalProcess):
    """Two-phase hyperexponential (H2) renewal arrivals with chosen SCV > 1.

    Uses the balanced-means fit: phase probabilities
    ``p = (1 ± sqrt((scv-1)/(scv+1)))/2`` with rates ``2 p rate`` and
    ``2 (1-p) rate``, which matches the requested mean and SCV exactly.
    """

    def __init__(self, rate: float, scv: float) -> None:
        self.rate = check_positive("rate", rate)
        if scv <= 1.0:
            raise ValidationError(f"H2 requires scv > 1, got {scv}")
        self.scv = scv
        root = math.sqrt((scv - 1.0) / (scv + 1.0))
        self.p1 = 0.5 * (1.0 + root)
        self.mu1 = 2.0 * self.p1 * rate
        self.mu2 = 2.0 * (1.0 - self.p1) * rate

    @property
    def mean_rate(self) -> float:
        return self.rate

    def interarrival_scv(self) -> float:
        return self.scv

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        pick1 = rng.random(n) < self.p1
        x = np.empty(n)
        x[pick1] = rng.exponential(1.0 / self.mu1, size=int(pick1.sum()))
        x[~pick1] = rng.exponential(1.0 / self.mu2, size=int((~pick1).sum()))
        return x


def _pareto_durations(rng: np.random.Generator, alpha: float, mean: float,
                      size: int) -> np.ndarray:
    """Pareto durations with shape ``alpha`` and the requested mean.

    Requires ``alpha > 1`` so the mean exists; the scale is
    ``xm = mean (alpha - 1)/alpha``.
    """
    xm = mean * (alpha - 1.0) / alpha
    return xm * (1.0 + rng.pareto(alpha, size=size))


class _TimestampArrivals(ArrivalProcess):
    """A process built from its arrival timestamps, not from its gaps.

    Subclasses construct :meth:`arrival_times` directly; interarrivals
    are the gaps of an expanding-horizon run of it.
    """

    def sample_interarrivals(self, n: int, rng=None) -> np.ndarray:
        check_integer("n", n, minimum=1)
        rng = resolve_rng(rng)
        # Generate over an expanding horizon until n arrivals are collected.
        horizon = (n + 16) / self.mean_rate
        for _ in range(32):
            times = self.arrival_times(horizon, rng)
            if times.size >= n + 1:
                return np.diff(times[: n + 1])
            horizon *= 2.0
        raise ValidationError("failed to generate requested interarrivals")


class OnOffArrivals(_TimestampArrivals):
    """ON/OFF source: Poisson at ``on_rate`` during ON periods, silent OFF.

    ON durations are Pareto(``alpha``) with mean ``mean_on`` when
    ``heavy_tailed`` (the small-problem bursty regime) or exponential
    otherwise (an interrupted Poisson process, IPP).  OFF durations are
    exponential with mean ``mean_off``.

    The long-run mean rate is ``on_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(self, on_rate: float, mean_on: float, mean_off: float,
                 heavy_tailed: bool = True, alpha: float = 1.5) -> None:
        self.on_rate = check_positive("on_rate", on_rate)
        self.mean_on = check_positive("mean_on", mean_on)
        self.mean_off = check_positive("mean_off", mean_off)
        self.heavy_tailed = bool(heavy_tailed)
        if heavy_tailed and alpha <= 1.0:
            raise ValidationError(f"Pareto ON needs alpha > 1, got {alpha}")
        self.alpha = alpha

    @property
    def mean_rate(self) -> float:
        return self.on_rate * self.mean_on / (self.mean_on + self.mean_off)

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the source is ON."""
        return self.mean_on / (self.mean_on + self.mean_off)

    def _period_pairs(self, rng: np.random.Generator,
                      size: int) -> tuple[np.ndarray, np.ndarray]:
        if self.heavy_tailed:
            on = _pareto_durations(rng, self.alpha, self.mean_on, size)
        else:
            on = rng.exponential(self.mean_on, size=size)
        off = rng.exponential(self.mean_off, size=size)
        return on, off

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        check_positive("horizon", horizon)
        rng = resolve_rng(rng)
        mean_cycle = self.mean_on + self.mean_off
        out: list[np.ndarray] = []
        t = 0.0
        while t < horizon:
            batch = max(64, int((horizon - t) / mean_cycle * 1.3) + 8)
            on, off = self._period_pairs(rng, batch)
            # Alternate ON then OFF; ON period k starts at t + sum of the
            # previous full cycles.
            cycles = on + off
            starts = t + np.concatenate(([0.0], np.cumsum(cycles)[:-1]))
            counts = rng.poisson(self.on_rate * on)
            total = int(counts.sum())
            if total:
                period_start = np.repeat(starts, counts)
                period_len = np.repeat(on, counts)
                times = period_start + rng.random(total) * period_len
                out.append(times)
            t = float(starts[-1] + cycles[-1])
        if not out:
            return np.zeros(0)
        all_times = np.sort(np.concatenate(out))
        return all_times[all_times < horizon]


class MMPPArrivals(_TimestampArrivals):
    """Markov-modulated Poisson process with exponential state holding times.

    ``rates[i]`` is the Poisson rate while in state ``i``; ``mean_holding[i]``
    the mean sojourn in state ``i``.  Transitions cycle uniformly at random
    among the *other* states, which is sufficient generality for modelling
    compute/memory phase alternation in the kernels.
    """

    def __init__(self, rates, mean_holding) -> None:
        self.rates = np.asarray(rates, dtype=float)
        self.mean_holding = np.asarray(mean_holding, dtype=float)
        if self.rates.ndim != 1 or self.rates.shape != self.mean_holding.shape:
            raise ValidationError("rates and mean_holding must be equal-length 1-D")
        if self.rates.size < 2:
            raise ValidationError("MMPP needs at least two states")
        if np.any(self.rates < 0) or np.any(self.mean_holding <= 0):
            raise ValidationError("rates must be >= 0 and holdings > 0")
        if not np.any(self.rates > 0):
            raise ValidationError("at least one state rate must be positive")

    @property
    def n_states(self) -> int:
        return int(self.rates.size)

    @property
    def mean_rate(self) -> float:
        # With uniform cycling the stationary state distribution is
        # proportional to the mean holding times.
        w = self.mean_holding / self.mean_holding.sum()
        return float(np.sum(w * self.rates))

    def arrival_times(self, horizon: float, rng=None) -> np.ndarray:
        check_positive("horizon", horizon)
        rng = resolve_rng(rng)
        out: list[np.ndarray] = []
        t = 0.0
        state = int(rng.integers(self.n_states))
        while t < horizon:
            dur = float(rng.exponential(self.mean_holding[state]))
            rate = float(self.rates[state])
            if rate > 0 and dur > 0:
                k = int(rng.poisson(rate * dur))
                if k:
                    out.append(t + rng.random(k) * dur)
            t += dur
            # Uniform jump to one of the other states.
            jump = int(rng.integers(self.n_states - 1))
            state = jump if jump < state else jump + 1
        if not out:
            return np.zeros(0)
        all_times = np.sort(np.concatenate(out))
        return all_times[all_times < horizon]

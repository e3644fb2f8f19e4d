"""Mean Value Analysis for single-class closed queueing networks.

The simulated machines compute their "measured" cycle counts with a closed
network: the ``n`` active cores are customers that alternate between a
compute *delay* station (think time between off-chip requests) and FCFS
*queueing* stations (front-side bus, memory controller, interconnect hops).
This closed-network treatment captures the feedback the paper's open M/M/1
model deliberately abstracts away — cores that wait longer also inject more
slowly — which is exactly why fitting the paper's model to our measurements
produces the small-but-nonzero errors the paper reports.

Features:

* exact MVA recursion (Reiser & Lavenberg), vectorized over a *batch* of
  chains: the recursion core operates on ``[chains, stations]`` arrays so
  the coupled fixed point in :mod:`repro.runtime.flow` solves every
  processor's network in one numpy pass per Jacobi iteration;
* Schweitzer approximate MVA for large populations;
* Seidmann's transformation for multi-channel stations;
* a residual-service correction for non-exponential service (per-station
  SCV), the standard AMVA heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import names as _names, state as _obs_state
from repro.resilience.errors import ConvergenceError
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_nonnegative,
    check_positive,
)


@dataclass(frozen=True)
class Station:
    """Base class for network stations.

    ``demand`` is the *service demand* per customer cycle: mean service
    time multiplied by visit count.
    """

    name: str
    demand: float

    def __post_init__(self) -> None:
        check_nonnegative("demand", self.demand)


@dataclass(frozen=True)
class DelayStation(Station):
    """Infinite-server station: pure think time, no queueing."""


@dataclass(frozen=True)
class QueueingStation(Station):
    """FCFS station with ``channels`` identical servers.

    ``scv`` is the squared coefficient of variation of the service time
    (1 = exponential).  Values above one lengthen the residual service seen
    by arrivals; this is how DRAM row-conflict variability and traffic
    burstiness enter the measurement substrate.
    """

    channels: int = 1
    scv: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_integer("channels", self.channels, minimum=1)
        check_nonnegative("scv", self.scv)


@dataclass(frozen=True)
class MVAResult:
    """Solution of a closed network for one population size."""

    population: int
    throughput: float                   # customer cycles per unit time
    cycle_time: float                   # mean time for one full cycle
    station_names: tuple[str, ...]
    residence: tuple[float, ...]        # per-station residence time per cycle
    queue_lengths: tuple[float, ...]    # time-average customers at station
    utilisations: tuple[float, ...]     # per-channel utilisation

    def residence_of(self, name: str) -> float:
        """Residence time per cycle at the named station."""
        return self.residence[self._idx(name)]

    def queue_length_of(self, name: str) -> float:
        return self.queue_lengths[self._idx(name)]

    def utilisation_of(self, name: str) -> float:
        return self.utilisations[self._idx(name)]

    def _idx(self, name: str) -> int:
        try:
            return self.station_names.index(name)
        except ValueError:
            raise ValidationError(
                f"no station named {name!r}; have {self.station_names}") from None


def _expand_multiserver(stations: list[Station]) -> tuple[list[Station], list[int]]:
    """Apply Seidmann's transformation to multi-channel stations.

    An ``m``-channel queueing station with demand ``D`` becomes a
    single-channel station with demand ``D/m`` in series with a delay
    station of demand ``D (m-1)/m``.  ``mapping[i]`` gives, for each
    expanded station, the index of the original station it contributes to.
    """
    expanded: list[Station] = []
    mapping: list[int] = []
    for i, st in enumerate(stations):
        if isinstance(st, QueueingStation) and st.channels > 1:
            m = st.channels
            expanded.append(QueueingStation(
                name=st.name, demand=st.demand / m, channels=1, scv=st.scv))
            mapping.append(i)
            expanded.append(DelayStation(
                name=f"{st.name}~seidmann", demand=st.demand * (m - 1) / m))
            mapping.append(i)
        else:
            expanded.append(st)
            mapping.append(i)
    return expanded, mapping


def _station_arrays(
        stations: list[Station]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(demands, is_queue, scv)`` vectors for a station list."""
    demands = np.array([s.demand for s in stations])
    is_queue = np.array([isinstance(s, QueueingStation) for s in stations])
    scv = np.array([s.scv if isinstance(s, QueueingStation) else 1.0
                    for s in stations])
    return demands, is_queue, scv


class ClosedNetwork:
    """A single-class closed queueing network.

    Parameters
    ----------
    stations:
        The service stations each customer visits once per cycle (visit
        ratios are folded into the demands).
    """

    def __init__(self, stations: list[Station]) -> None:
        if not stations:
            raise ValidationError("network needs at least one station")
        names = [s.name for s in stations]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate station names in {names}")
        self.stations = list(stations)

    def solve(self, population: int, method: str = "exact") -> MVAResult:
        """Solve for mean-value metrics at the given population.

        ``method`` is ``"exact"`` (recursion over 1..N) or ``"schweitzer"``
        (fixed-point approximation, O(iterations) independent of N).

        Under telemetry, every call lands one observation in the
        ``latency.mva.solve_seconds`` histogram.
        """
        tel = _obs_state._active
        if tel is None:
            return self._solve(population, method)
        with tel.metrics.timer(_names.LATENCY_MVA_SOLVE_SECONDS):
            return self._solve(population, method)

    def _solve(self, population: int, method: str) -> MVAResult:
        check_integer("population", population, minimum=0)
        if method not in ("exact", "schweitzer"):
            raise ValidationError(f"unknown MVA method {method!r}")
        if method == "exact":
            return exact_mva(self, population)
        return schweitzer_amva(self, population)


def _collapse(result_names: list[str], mapping: list[int],
              stations: list[Station], population: int, x: float,
              residence: np.ndarray, qlen: np.ndarray,
              util: np.ndarray) -> MVAResult:
    """Fold Seidmann-expanded stations back onto the originals."""
    n_orig = len(stations)
    r = np.zeros(n_orig)
    q = np.zeros(n_orig)
    u = np.zeros(n_orig)
    for j, orig in enumerate(mapping):
        r[orig] += residence[j]
        q[orig] += qlen[j]
        # Utilisation of the original station is that of its queueing part;
        # delay parts report zero utilisation.
        u[orig] = max(u[orig], util[j])
    cycle = float(r.sum()) if x == 0 else population / x
    return MVAResult(
        population=population,
        throughput=x,
        cycle_time=cycle,
        station_names=tuple(s.name for s in stations),
        residence=tuple(float(v) for v in r),
        queue_lengths=tuple(float(v) for v in q),
        utilisations=tuple(float(v) for v in u),
    )


def _exact_recursion(demands: np.ndarray, is_queue: np.ndarray,
                     scv: np.ndarray, populations: np.ndarray):
    """Batched exact-MVA recursion on ``[chains, stations]`` arrays.

    Runs the Reiser–Lavenberg recursion for every chain (row) at once,
    with the SCV residual correction.  Chains may have different
    populations: a chain's row freezes once ``k`` exceeds its population,
    so each row ends up holding that chain's solution at its own N.

    Every operation is elementwise per row (the only reduction is the
    row-local ``sum(axis=1)``), so a chain's solution is bit-identical
    whether it is solved alone or inside any batch — the property the
    flow solver's lock-step pooling relies on.

    Returns ``(x, residence, q, u)``: throughputs ``[C]`` and per-station
    arrays ``[C, S]``.
    """
    qd = np.where(is_queue, demands, 0.0)
    dd = np.where(is_queue, 0.0, demands)
    scv_term = qd * (scv - 1.0) * 0.5
    n_chains, _ = demands.shape
    q = np.zeros_like(demands)
    u = np.zeros_like(demands)
    x = np.zeros(n_chains)
    residence = demands.copy()
    for k in range(1, int(populations.max()) + 1):
        res_new = dd + qd * (1.0 + q) + u * scv_term
        total = res_new.sum(axis=1)
        if np.any(total <= 0.0):
            raise ValidationError("network has zero total demand")
        x_new = k / total
        q_new = x_new[:, None] * res_new
        u_new = np.minimum(x_new[:, None] * qd, 1.0)
        live = populations >= k
        if live.all():
            residence, x, q, u = res_new, x_new, q_new, u_new
        else:
            live_col = live[:, None]
            residence = np.where(live_col, res_new, residence)
            x = np.where(live, x_new, x)
            q = np.where(live_col, q_new, q)
            u = np.where(live_col, u_new, u)
    return x, residence, q, u


def exact_mva(network: ClosedNetwork, population: int) -> MVAResult:
    """Exact MVA recursion with SCV residual correction.

    For exponential FCFS stations this is the exact product-form solution;
    with ``scv != 1`` the residual-time term
    ``U_i (scv - 1)/2 * D_i`` is added to the arrival-instant backlog,
    the standard (heuristic) extension.
    """
    check_integer("population", population, minimum=0)
    stations, mapping = _expand_multiserver(network.stations)
    n = len(stations)
    demands, is_queue, scv = _station_arrays(stations)
    if population == 0:
        z = np.zeros(n)
        return _collapse([s.name for s in stations], mapping,
                         network.stations, 0, 0.0, np.zeros(n), z, z)
    x, residence, q, u = _exact_recursion(
        demands[None, :], is_queue[None, :], scv[None, :],
        np.array([population]))
    tel = _obs_state._active
    if tel is not None:
        tel.metrics.counter(_names.QNET_MVA_EXACT_CALLS).inc()
        tel.metrics.counter(_names.QNET_MVA_EXACT_ITERATIONS).inc(population)
    return _collapse([s.name for s in stations], mapping, network.stations,
                     population, float(x[0]), residence[0], q[0], u[0])


def exact_throughputs_cells(
        blocks: "list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]",
) -> list[np.ndarray]:
    """Fused multi-cell exact MVA over a ``[cell, chain, station]`` tensor.

    ``blocks`` holds one ``(demands, is_queue, scv, populations)`` tuple
    per grid cell, each a ``[chain, station]`` batch of raw station
    vectors (single-channel queueing and delay stations only — no
    Seidmann expansion is applied) with per-chain customer counts
    ``populations`` (>= 1).  Cells sharing a station width are
    concatenated into a single ``[cell x chain, station]`` recursion —
    the fused tensor flattened along its first two axes, which is exact
    because every recursion operation is row-independent — while cells
    of different widths run in separate passes: a row must never be
    padded beyond its own cell's width, or crossing numpy's pairwise-
    summation block boundaries could change the last ulp of its demand
    sums and a pooled cell would no longer match its one-cell solve.

    Telemetry accounting matches ``len(blocks)`` scalar-path calls: one
    ``qnet.mva.exact.calls`` per chain row, ``.iterations`` per customer,
    and one ``.batches`` plus one ``latency.mva.batch_seconds``
    observation per fused recursion.  Returns the per-cell throughput
    arrays in input order.
    """
    tel = _obs_state._active
    out: list[np.ndarray] = [np.empty(0)] * len(blocks)
    by_width: dict[int, list[int]] = {}
    for i, (d, _, _, _) in enumerate(blocks):
        by_width.setdefault(d.shape[1], []).append(i)
    for _, idxs in sorted(by_width.items()):
        if len(idxs) == 1:
            d, iq, sv, pops = blocks[idxs[0]]
        else:
            d = np.concatenate([blocks[i][0] for i in idxs])
            iq = np.concatenate([blocks[i][1] for i in idxs])
            sv = np.concatenate([blocks[i][2] for i in idxs])
            pops = np.concatenate([blocks[i][3] for i in idxs])
        if tel is None:
            x, _, _, _ = _exact_recursion(d, iq, sv, pops)
        else:
            with tel.metrics.timer(_names.LATENCY_MVA_BATCH_SECONDS):
                x, _, _, _ = _exact_recursion(d, iq, sv, pops)
            reg = tel.metrics
            reg.counter(_names.QNET_MVA_EXACT_CALLS).inc(len(pops))
            reg.counter(_names.QNET_MVA_EXACT_ITERATIONS).inc(int(pops.sum()))
            reg.counter(_names.QNET_MVA_EXACT_BATCHES).inc()
        off = 0
        for i in idxs:
            k = len(blocks[i][3])
            out[i] = x[off:off + k]
            off += k
    return out


def schweitzer_amva(network: ClosedNetwork, population: int,
                    tol: float = 1e-10, max_iter: int = 100_000,
                    strict: bool = False) -> MVAResult:
    """Schweitzer/Bard approximate MVA.

    Replaces the exact arrival theorem with
    ``Q_i(N-1) ~= Q_i(N) (N-1)/N`` and iterates to a fixed point.  Errors
    are typically under a few percent; used where the exact recursion over
    1..N would be wasteful.

    With ``strict=True`` a fixed point that has not converged after
    ``max_iter`` iterations raises
    :class:`~repro.resilience.errors.ConvergenceError` instead of being
    returned silently — the mode the degradation ladder
    (:func:`repro.resilience.solve_network`) runs it in, so a bad
    iterate falls through to the bounds rung.
    """
    check_integer("population", population, minimum=0)
    check_positive("tol", tol)
    stations, mapping = _expand_multiserver(network.stations)
    n = len(stations)
    demands, is_queue, scv = _station_arrays(stations)
    if population == 0:
        z = np.zeros(n)
        return _collapse([s.name for s in stations], mapping,
                         network.stations, 0, 0.0, np.zeros(n), z, z)

    # Loop-invariant station vectors, hoisted: queueing and delay demands
    # split so the residence update is pure elementwise arithmetic.
    qd = np.where(is_queue, demands, 0.0)
    dd = np.where(is_queue, 0.0, demands)
    scv_term = qd * (scv - 1.0) * 0.5
    shrink = (population - 1) / population

    q = np.full(n, population / n)
    x = 0.0
    residence = demands.copy()
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iter + 1):
        u = np.minimum(x * qd, 1.0)
        residence = dd + qd * (1.0 + q * shrink) + u * scv_term
        total = float(residence.sum())
        if total <= 0:
            raise ValidationError("network has zero total demand")
        x = population / total
        q_new = x * residence
        residual = float(np.max(np.abs(q_new - q)))
        q = q_new
        if residual < tol:
            break
    tel = _obs_state._active
    if tel is not None:
        reg = tel.metrics
        reg.counter(_names.QNET_MVA_SCHWEITZER_CALLS).inc()
        reg.counter(_names.QNET_MVA_SCHWEITZER_ITERATIONS).inc(iterations)
        reg.histogram(_names.QNET_MVA_SCHWEITZER_RESIDUAL).observe(residual)
        if residual >= tol:
            reg.counter(_names.QNET_MVA_SCHWEITZER_NONCONVERGED).inc()
    if strict and residual >= tol:
        raise ConvergenceError(
            f"schweitzer AMVA: no convergence after {iterations} "
            f"iterations (residual {residual:.3e}, tol {tol:.1e})",
            site="qnet.mva.schweitzer", iterations=iterations,
            residual=residual, tol=tol, population=population)
    u = np.minimum(x * qd, 1.0)
    return _collapse([s.name for s in stations], mapping, network.stations,
                     population, x, residence, q, u)


def schweitzer_throughputs(demands: np.ndarray, is_queue: np.ndarray,
                           scv: np.ndarray, populations: np.ndarray,
                           tol: float = 1e-10,
                           max_iter: int = 100_000) -> np.ndarray:
    """Batched Schweitzer AMVA throughputs on ``[chains, stations]`` rows.

    The degraded counterpart of :func:`exact_throughputs_cells` — same row
    layout (single-channel queueing and delay stations, padded rows
    allowed), O(iterations) independent of the populations, so the flow
    fixed point stays cheap when a chain's exact recursion is abandoned.
    Rows that have not converged after ``max_iter`` sweeps raise
    :class:`~repro.resilience.errors.ConvergenceError` — the caller is
    the ladder, which then falls to the bounds rung.
    """
    pops = populations.astype(float)
    if np.any(pops < 1):
        raise ValidationError("populations must be >= 1")
    qd = np.where(is_queue, demands, 0.0)
    dd = np.where(is_queue, 0.0, demands)
    scv_term = qd * (scv - 1.0) * 0.5
    n_chains, n_stations = demands.shape
    shrink = ((pops - 1.0) / pops)[:, None]
    q = np.full_like(demands, 1.0) * (pops[:, None] / n_stations)
    x = np.zeros(n_chains)
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iter + 1):
        u = np.minimum(x[:, None] * qd, 1.0)
        residence = dd + qd * (1.0 + q * shrink) + u * scv_term
        total = residence.sum(axis=1)
        if np.any(total <= 0.0):
            raise ValidationError("network has zero total demand")
        x = pops / total
        q_new = x[:, None] * residence
        residual = float(np.max(np.abs(q_new - q)))
        q = q_new
        if residual < tol:
            break
    tel = _obs_state._active
    if tel is not None:
        reg = tel.metrics
        reg.counter(_names.QNET_MVA_SCHWEITZER_CALLS).inc(n_chains)
        reg.counter(_names.QNET_MVA_SCHWEITZER_ITERATIONS).inc(iterations)
        reg.histogram(_names.QNET_MVA_SCHWEITZER_RESIDUAL).observe(residual)
    if residual >= tol:
        if tel is not None:
            tel.metrics.counter(
                _names.QNET_MVA_SCHWEITZER_NONCONVERGED).inc(n_chains)
        raise ConvergenceError(
            f"batched schweitzer AMVA: no convergence after {iterations} "
            f"iterations (residual {residual:.3e}, tol {tol:.1e})",
            site="qnet.mva.schweitzer", iterations=iterations,
            residual=residual, tol=tol)
    return x


def bound_throughputs(demands: np.ndarray, is_queue: np.ndarray,
                      scv: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Asymptotic-bound throughputs: ``min(N/(D+Z), 1/D_max)`` per row.

    The last rung of the degradation ladder (see docs/RESILIENCE.md):
    no iteration at all, exact in the latency-limited and saturated
    asymptotes, optimistic in between.  ``scv`` is accepted for
    signature parity with the other batched solvers and ignored —
    operational bounds are distribution-free.
    """
    del scv  # distribution-free
    pops = populations.astype(float)
    qd = np.where(is_queue, demands, 0.0)
    total_q = qd.sum(axis=1)
    think = np.where(is_queue, 0.0, demands).sum(axis=1)
    d_max = qd.max(axis=1)
    if np.any(total_q + think <= 0.0):
        raise ValidationError("network has zero total demand")
    latency_bound = pops / (total_q + think)
    with np.errstate(divide="ignore"):
        saturation_bound = np.where(d_max > 0.0, 1.0 / d_max, np.inf)
    return np.minimum(latency_bound, saturation_bound)

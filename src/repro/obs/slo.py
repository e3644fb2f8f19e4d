"""Declarative SLOs with multi-window burn-rate tracking.

An :class:`SLObjective` states a target over a service-level indicator
— availability ("99.9% of requests succeed") or latency ("99% of
requests answer under 250 ms").  The :class:`SLOTracker` reads the
service's two request rings (:mod:`repro.obs.window`), which count the
bad requests of every objective, and evaluates **burn rates**: how fast
the error budget (``1 - target``) is being consumed, normalised so a
burn rate of 1.0 exactly exhausts the budget over the SLO period.

Degradation follows the multi-window, multi-burn-rate pattern from the
SRE literature: the tracker flips an objective to ``degraded`` only
when both a short window (1 m, fast to react) and a confirmation
window (5 m, immune to single-bucket blips) burn faster than
:data:`FAST_BURN`.  Recovery is the same check relaxing — once clean
traffic refills the confirmation window the objective reports ``ok``
again.  Transitions emit ``slo.degraded`` / ``slo.recovered``
structured-log events and mirror into ``serve.slo.*`` gauges when a
telemetry session is active.

The tracker tells time by the rings' injectable clock, so tests drive
a fake clock through a full degrade/recover cycle without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.obs.window import RequestWindow

#: Schema version of the ``slo`` block served by ``/healthz``.
SLO_SCHEMA = 1

#: Fast-burn threshold: consuming the error budget 14.4× faster than
#: sustainable exhausts a 30-day budget in ~2 days — the classic page
#: -worthy burn rate.
FAST_BURN = 14.4

#: The sub-windows burn rates are evaluated over: (label, use the slow
#: ring?, most-recent-bucket restriction).  1 m comes from the 60×1 s
#: ring; 5 m and 1 h are carved out of the 60×60 s ring.
_WINDOWS = (("1m", False, None), ("5m", True, 5), ("1h", True, None))


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``kind`` is ``"availability"`` (a request is bad if it errored) or
    ``"latency"`` (a request is bad if it took ``threshold_s`` or
    longer, regardless of status).  ``target`` is the good fraction the
    service promises, e.g. ``0.999``.
    """

    name: str
    kind: str
    target: float
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target {self.target} must be in (0, 1)")
        if self.kind == "latency" and not self.threshold_s:
            raise ValueError("latency objectives need a threshold_s")

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target tolerates."""
        return 1.0 - self.target

    def is_bad(self, *, error: bool, duration_s: float) -> bool:
        """The per-request rule the request rings count bad requests by."""
        if self.kind == "availability":
            return error
        assert self.threshold_s is not None
        return duration_s >= self.threshold_s

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "target": self.target,
                "threshold_s": self.threshold_s}


#: The served model answers warm predictions in single-digit
#: milliseconds; 250 ms is an order-of-magnitude guard band that only a
#: genuine regression (or a cold sweep storm) can breach.
DEFAULT_OBJECTIVES = (
    SLObjective(name="availability", kind="availability", target=0.999),
    SLObjective(name="latency", kind="latency", target=0.99,
                threshold_s=0.25),
)


def request_windows(objectives=DEFAULT_OBJECTIVES,
                    clock: Callable[[], float] = time.monotonic
                    ) -> tuple[RequestWindow, RequestWindow]:
    """The fast (60×1 s) and slow (60×60 s) rings ``objectives`` read.

    Each ring keeps an at-or-over count for every latency objective's
    threshold, in objective order.
    """
    thresholds = tuple(o.threshold_s for o in objectives
                       if o.kind == "latency")
    return (RequestWindow(1.0, 60, clock, thresholds),
            RequestWindow(60.0, 60, clock, thresholds))


class SLOTracker:
    """Evaluates burn rates over the request rings; owns no counters.

    ``fast`` and ``slow`` are the 60×1 s and 60×60 s
    :class:`~repro.obs.window.RequestWindow` rings the service records
    every request into (see :func:`request_windows`).  The tracker reads
    each objective's totals and bad counts from them and keeps only the
    degrade/recover state.
    """

    def __init__(self, objectives, fast: RequestWindow, slow: RequestWindow,
                 fast_burn: float = FAST_BURN) -> None:
        if not objectives:
            raise ValueError("want at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.objectives = tuple(objectives)
        self.fast = fast
        self.slow = slow
        self.fast_burn = fast_burn
        # Where each objective's bad count sits in RequestWindow.totals():
        # the error count (None), or its threshold's at-or-over count.
        # ``index`` raises ValueError for a threshold the rings lack.
        self._bad_at = {
            o.name: None if o.kind == "availability"
            else fast.thresholds.index(o.threshold_s)
            for o in self.objectives}
        self._degraded: set[str] = set()

    # -- evaluation -----------------------------------------------------------

    def _burn(self, obj: SLObjective, totals: tuple) -> dict:
        total, errors, over = totals
        at = self._bad_at[obj.name]
        bad = errors if at is None else over[at]
        bad_fraction = (bad / total) if total else 0.0
        return {
            "total": total,
            "bad": bad,
            "bad_fraction": round(bad_fraction, 6),
            "burn_rate": round(bad_fraction / obj.budget, 3),
        }

    def state(self, now: float | None = None) -> dict:
        """The full SLO block: per-objective windows, burns and status.

        Pure read — no transition side effects; :meth:`evaluate` is the
        mutating entry point surfaces should call.
        """
        now = self.fast.clock() if now is None else now
        totals = {label: (self.slow if slow else self.fast).totals(now, last)
                  for label, slow, last in _WINDOWS}
        objectives = {}
        degraded = []
        for obj in self.objectives:
            windows = {label: self._burn(obj, totals[label])
                       for label in totals}
            is_degraded = (
                windows["1m"]["burn_rate"] >= self.fast_burn
                and windows["5m"]["burn_rate"] >= self.fast_burn)
            if is_degraded:
                degraded.append(obj.name)
            objectives[obj.name] = {
                **obj.to_dict(),
                "budget": round(obj.budget, 6),
                "windows": windows,
                "status": "degraded" if is_degraded else "ok",
            }
        return {
            "slo_schema": SLO_SCHEMA,
            "status": "degraded" if degraded else "ok",
            "degraded_objectives": degraded,
            "fast_burn_threshold": self.fast_burn,
            "objectives": objectives,
        }

    def evaluate(self, now: float | None = None) -> dict:
        """Compute :meth:`state` and emit transition events/gauges.

        Telemetry mirroring is lazy-imported and session-guarded, so the
        tracker works standalone (and in tests) with telemetry disabled.
        """
        state = self.state(now)
        from repro import obs
        from repro.obs import names
        newly_degraded = set(state["degraded_objectives"])
        for name in sorted(newly_degraded - self._degraded):
            win = state["objectives"][name]["windows"]
            obs.log_event(
                names.EVENT_SLO_DEGRADED, level="warning", objective=name,
                burn_1m=win["1m"]["burn_rate"], burn_5m=win["5m"]["burn_rate"])
        for name in sorted(self._degraded - newly_degraded):
            obs.log_event(names.EVENT_SLO_RECOVERED, objective=name)
        self._degraded = newly_degraded
        for name, payload in state["objectives"].items():
            obs.gauge(names.SERVE_SLO_DEGRADED,
                      1.0 if payload["status"] == "degraded" else 0.0,
                      objective=name)
            for label, win in payload["windows"].items():
                obs.gauge(names.SERVE_SLO_BURN_RATE, win["burn_rate"],
                          objective=name, window=label)
        return state

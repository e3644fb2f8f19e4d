"""``repro serve`` — the contention-prediction service.

An asyncio HTTP front end (:class:`PredictionServer`) over the pure
prediction kernel (:mod:`repro.core.predict`): ``POST /predict``
answers one (machine, workload, allocation) cell with ``C(n)``,
``omega(n)`` and per-station utilisations; ``POST /recommend``
enumerates allocations and returns the minimum-slowdown placement.
``GET /metrics`` and ``GET /healthz`` reuse the telemetry exporter's
payload builders — extended with the rolling-window block and the SLO
burn-rate state from the per-server
:class:`~repro.serve.stats.ServiceTelemetry` — and every solve goes
through the shared content-addressed flow cache in :mod:`repro.perf`: a
warm prediction runs ``calibrate_profile``, the ``flow_key``
fingerprint, then two flow-cache lookups.  Each request carries an
``X-Repro-Request-Id`` and a span tree retrievable via
``GET /debug/requests``; ``GET /dashboard`` renders a script-free
inline-SVG live view.  See docs/SERVING.md.
"""

from repro.serve.http import MAX_BODY_BYTES, PredictionServer, new_request_id
from repro.serve.service import (
    MACHINE_PRESETS,
    get_machine,
    handle_predict,
    handle_recommend,
)
from repro.serve.stats import REQUEST_LOG_SIZE, RequestLog, ServiceTelemetry

__all__ = [
    "MACHINE_PRESETS",
    "MAX_BODY_BYTES",
    "PredictionServer",
    "REQUEST_LOG_SIZE",
    "RequestLog",
    "ServiceTelemetry",
    "get_machine",
    "handle_predict",
    "handle_recommend",
    "new_request_id",
]

"""Fast-path performance layer: solver memoization and cache policy.

``repro.perf`` holds the content-addressed flow cache that lets repeated
``runtime.flow`` solves of the same (machine, profile, active-core
count) return previously computed results bit-identically instead of
re-running the shadow fixed point.  Hit/miss/eviction counters are
mirrored into the ``repro.obs`` telemetry session as
``perf.cache.flow.*``.

Disable with :func:`set_enabled`.
"""

from repro.perf.cache import (
    MISS,
    MemoCache,
    cache_stats,
    caches_enabled,
    clear_caches,
    configure,
    flow_cache,
    set_enabled,
)
from repro.perf.keys import fingerprint, flow_key

__all__ = [
    "MISS",
    "MemoCache",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "configure",
    "fingerprint",
    "flow_cache",
    "flow_key",
    "set_enabled",
]

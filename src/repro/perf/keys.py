"""Content-addressed cache keys for solver memoization.

A cache key must identify a solver input *by value*, not by object
identity: two :class:`~repro.machine.topology.Machine` instances built
from the same preset must map to the same key, and any change to any
field — a DRAM timing, a burst SCV, an allocation width — must change
it.  The canonicaliser below walks an object graph (dataclasses, enums,
containers, plain value objects) and emits a deterministic token stream;
the SHA-256 of that stream is the fingerprint.

Floats are tokenised with :meth:`float.hex` so the key captures the
exact bit pattern — a cache hit is therefore guaranteed to correspond to
a bit-identical solver input, which is what makes cached and uncached
solves interchangeable.

The flow key's hot inputs — a shared preset machine, an interned
calibrated profile — are frozen dataclasses that carry their own digest
(:func:`cached_fingerprint`): one walk per object, not one per solve.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

def _tokens(obj: object, out: list[str]) -> None:
    """Append the canonical token stream of ``obj`` to ``out``."""
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(obj.hex())
    elif isinstance(obj, enum.Enum):
        out.append(f"{type(obj).__name__}.{obj.name}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__)
        out.append("(")
        for f in dataclasses.fields(obj):
            out.append(f.name)
            _tokens(getattr(obj, f.name), out)
        out.append(")")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _tokens(item, out)
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        out.append("{")
        for item in sorted(obj, key=repr):
            _tokens(item, out)
        out.append("}")
    elif isinstance(obj, dict):
        out.append("{")
        for k in sorted(obj, key=repr):
            _tokens(k, out)
            out.append(":")
            _tokens(obj[k], out)
        out.append("}")
    elif isinstance(obj, (bytes, bytearray)):
        out.append(bytes(obj).hex())
    elif hasattr(obj, "__cache_tokens__"):
        # Objects wrapping non-canonicalisable state (e.g. a graph
        # library's structures) expose their value identity explicitly.
        out.append(type(obj).__name__)
        _tokens(obj.__cache_tokens__(), out)
    elif hasattr(obj, "__dict__"):
        # Plain value objects (e.g. Interconnect): canonicalise their
        # attribute dict.  Private/computed attributes participate too,
        # which is conservative — at worst it splits a would-be hit.
        out.append(type(obj).__name__)
        _tokens(vars(obj), out)
    else:
        raise TypeError(
            f"cannot canonicalise {type(obj).__name__!r} for cache keying")


def fingerprint(obj: object) -> str:
    """SHA-256 hex digest of the canonical token stream of ``obj``."""
    out: list[str] = []
    _tokens(obj, out)
    return hashlib.sha256("\x1f".join(out).encode("utf-8")).hexdigest()


def cached_fingerprint(obj: object) -> str:
    """Like :func:`fingerprint`, kept on the object after the first walk.

    A dataclass instance stores the digest in its instance ``__dict__``,
    outside the fields the walk reads; a ``dataclasses.replace`` copy
    starts without one.  Other objects are walked on every call: the
    walk reads their ``vars()``, a stored digest included.  Safe only
    for frozen objects.
    """
    if not (dataclasses.is_dataclass(obj) and hasattr(obj, "__dict__")):
        return fingerprint(obj)
    digest = obj.__dict__.get("_fingerprint")
    if digest is None:
        digest = fingerprint(obj)
        object.__setattr__(obj, "_fingerprint", digest)
    return digest


def flow_key(profile, machine, alloc) -> str:
    """Cache key for one ``runtime.flow.solve_flow`` input.

    Keyed on machine topology, memory profile and active-core count;
    the solver is a pure function of these.
    """
    # The solver reads only the placement: which cores are active, a
    # pure function of (machine, n_active) under fill-processor-first.
    # ``alloc.n_threads`` reaches only the noise model (through
    # ``alloc.oversubscription``), so allocations that differ in thread
    # count alone share one entry.
    return "|".join((
        "flow",
        cached_fingerprint(machine),
        cached_fingerprint(profile),
        str(alloc.n_active),
    ))

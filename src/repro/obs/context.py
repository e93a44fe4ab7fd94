"""Serializable trace context for cross-process span propagation.

A :class:`TraceContext` is the small, JSON-serializable capsule a
coordinator ships to a worker process so that spans recorded *there*
remain part of the coordinator's causal trace: it names the trace, the
worker's shard, and the coordinator span the worker's work is caused by.

Collision-free merged ids come from **per-shard id namespaces**: every
shard allocates span ids inside its own block of
:data:`SHARD_SPAN_STRIDE` consecutive integers, so ids from different
shards can never collide and ``(shard, seq)`` is recoverable from the id
alone with :func:`shard_of` / :func:`seq_of`.  Both halves are local
sequence counters, so two same-seed runs produce bitwise-identical
merged traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Width of one shard's span-id namespace.  2**40 spans per shard is far
#: above any recording cap; ids stay exact well inside the float64/JSON
#: safe-integer range for ~2**13 shards.
SHARD_SPAN_STRIDE = 1 << 40


def shard_of(span_id: int) -> int:
    """Shard that allocated ``span_id`` (namespace block index)."""
    return span_id // SHARD_SPAN_STRIDE


def seq_of(span_id: int) -> int:
    """Per-shard sequence number of ``span_id`` inside its namespace."""
    return span_id % SHARD_SPAN_STRIDE


def derive_trace_id(seed: int, scope: str = "") -> str:
    """Deterministic 16-hex trace id from a seed and an optional scope.

    Pure function of its inputs (SHA-256, truncated), so two same-seed
    runs — and every shard of one run — agree on the trace id without
    any coordination.
    """
    payload = f"trace:{seed}:{scope}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The cross-process capsule carrying causal context to a shard.

    Parameters
    ----------
    trace_id:
        Identifier shared by every shard of one logical run.
    shard_id:
        The receiving shard's id-namespace index (the coordinator is
        shard 0 by convention).
    parent_span_id:
        Coordinator span the shard's work is caused by; ``None`` detaches
        the shard's roots from any coordinator span.
    """

    trace_id: str
    shard_id: int
    parent_span_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable field names)."""
        return {
            "trace_id": self.trace_id,
            "shard_id": self.shard_id,
            "parent_span_id": self.parent_span_id,
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys, minimal separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        """Inverse of :meth:`to_dict`."""
        parent = payload.get("parent_span_id")
        return cls(
            trace_id=str(payload["trace_id"]),
            shard_id=int(payload["shard_id"]),
            parent_span_id=int(parent) if parent is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "TraceContext":
        """Parse a context from its JSON rendering."""
        return cls.from_dict(json.loads(text))

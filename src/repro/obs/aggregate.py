"""Deterministic merge of per-shard telemetry snapshots.

A multi-process run produces one :class:`ShardSnapshot` per worker (plus
one for the coordinator): the shard's final metric state — with *exact*
histogram bucket counts, not lossy summaries — its span forest, and its
terminal sim time / event count.  :func:`merge_snapshots` folds any
number of them into one :class:`MergedRun` under a fixed, order-free
merge law:

- **counters** sum across shards;
- **gauges** resolve last-write-wins, where "last" is the shard with the
  greatest ``(sim_time, shard_id)`` among shards that wrote the gauge —
  a total order, so the merge is independent of input ordering;
- **histograms** merge bucket-wise (identical ladders required), so
  merged quantiles are a pure function of the union of observations;
- **spans** interleave on ``(start, shard_id, seq)`` — globally
  time-ordered, with the shard namespace breaking simultaneity ties.

Because every shard's snapshot is deterministic and the merge law is
order-free, two same-seed multi-process runs export byte-identical
merged JSONL artifacts and equal merged-manifest digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.context import seq_of, shard_of
from repro.obs.manifest import RunManifest, canonical_json
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanTracer

PathLike = Union[str, Path]

#: Conventional artifact filenames for sharded runs.
SHARD_SNAPSHOT_FILE = "shard.json"
MERGED_SPANS_FILE = "merged_spans.jsonl"
MERGED_METRICS_FILE = "merged_metrics.jsonl"


@dataclass
class ShardSnapshot:
    """One shard's complete, serializable telemetry state."""

    shard_id: int
    sim_time: float
    event_count: int
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: histogram name → :meth:`repro.obs.metrics.Histogram.state_dict`
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    dropped_spans: int = 0
    trace_id: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable field names, spans by id)."""
        return {
            "shard_id": self.shard_id,
            "sim_time": self.sim_time,
            "event_count": self.event_count,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: dict(state) for name, state in self.histograms.items()},
            "spans": [span.to_dict() for span in sorted(self.spans, key=lambda s: s.span_id)],
            "dropped_spans": self.dropped_spans,
            "trace_id": self.trace_id,
        }

    def to_json(self) -> str:
        """Canonical JSON rendering."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            shard_id=int(payload["shard_id"]),
            sim_time=float(payload["sim_time"]),
            event_count=int(payload["event_count"]),
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            histograms=dict(payload.get("histograms", {})),
            spans=[Span.from_dict(entry) for entry in payload.get("spans", [])],
            dropped_spans=int(payload.get("dropped_spans", 0)),
            trace_id=str(payload.get("trace_id", "")),
        )

    def manifest_section(self) -> Dict[str, Any]:
        """The per-shard section embedded in a merged manifest."""
        return {
            "sim_time": self.sim_time,
            "event_count": self.event_count,
            "span_count": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }


def snapshot_shard(
    shard_id: int,
    registry: MetricsRegistry,
    tracer: Optional[SpanTracer] = None,
    sim_time: float = 0.0,
    event_count: int = 0,
) -> ShardSnapshot:
    """Capture one shard's telemetry into a serializable snapshot."""
    return ShardSnapshot(
        shard_id=shard_id,
        sim_time=sim_time,
        event_count=event_count,
        counters=registry.counters(),
        gauges=registry.gauges(),
        histograms={
            name: histogram.state_dict()
            for name, histogram in registry.histograms().items()
        },
        spans=tracer.spans() if tracer is not None else [],
        dropped_spans=tracer.dropped_spans if tracer is not None else 0,
        trace_id=tracer.trace_id if tracer is not None else "",
    )


def write_shard_snapshot(snapshot: ShardSnapshot, path: PathLike) -> None:
    """Write a shard snapshot as canonical JSON (parent dirs created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(snapshot.to_json() + "\n")


def load_shard_snapshot(path: PathLike) -> ShardSnapshot:
    """Read a snapshot written by :func:`write_shard_snapshot`."""
    import json

    return ShardSnapshot.from_dict(json.loads(Path(path).read_text()))


@dataclass
class MergedRun:
    """The deterministic fold of N shard snapshots."""

    registry: MetricsRegistry
    spans: List[Span]
    sim_time: float
    event_count: int
    shard_ids: List[int]
    dropped_spans: int

    @property
    def span_count(self) -> int:
        """Number of spans across all shards."""
        return len(self.spans)


def merge_snapshots(snapshots: Sequence[ShardSnapshot]) -> MergedRun:
    """Merge shard snapshots under the order-free merge law.

    Raises ``ValueError`` on an empty input, duplicate shard ids, or
    histogram bucket-ladder mismatches — every one of those would make
    the merged artifact ambiguous rather than reproducible.
    """
    if not snapshots:
        raise ValueError("merge_snapshots needs at least one shard snapshot")
    ordered = sorted(snapshots, key=lambda snap: snap.shard_id)
    shard_ids = [snap.shard_id for snap in ordered]
    if len(set(shard_ids)) != len(shard_ids):
        raise ValueError(f"duplicate shard ids in merge: {shard_ids}")

    registry = MetricsRegistry()
    # Counters: plain sums, accumulated in shard order (addition is
    # commutative; the order only matters for float rounding, which the
    # shard_id sort pins down).
    for snap in ordered:
        for name in sorted(snap.counters):
            registry.counter(name).inc(snap.counters[name])
    # Gauges: last-write-wins by (sim_time, shard_id) — the shard-level
    # terminal time is the write timestamp proxy, and shard_id breaks
    # exact ties totally.
    gauge_names = sorted({name for snap in ordered for name in snap.gauges})
    for name in gauge_names:
        writers = [snap for snap in ordered if name in snap.gauges]
        winner = max(writers, key=lambda snap: (snap.sim_time, snap.shard_id))
        registry.gauge(name).set(winner.gauges[name])
    # Histograms: bucket-wise exact merge.
    histogram_names = sorted({name for snap in ordered for name in snap.histograms})
    for name in histogram_names:
        merged: Optional[Histogram] = None
        for snap in ordered:
            state = snap.histograms.get(name)
            if state is None:
                continue
            shard_histogram = Histogram.from_state(name, state)
            if merged is None:
                merged = shard_histogram
            else:
                merged.merge_from(shard_histogram)
        assert merged is not None
        target = registry.histogram(name, merged.buckets)
        target.merge_from(merged)

    spans = sorted(
        (span for snap in ordered for span in snap.spans),
        key=lambda span: (span.start, shard_of(span.span_id), seq_of(span.span_id)),
    )
    return MergedRun(
        registry=registry,
        spans=spans,
        sim_time=max(snap.sim_time for snap in ordered),
        event_count=sum(snap.event_count for snap in ordered),
        shard_ids=shard_ids,
        dropped_spans=sum(snap.dropped_spans for snap in ordered),
    )


def merged_manifest(
    snapshots: Sequence[ShardSnapshot],
    seed: int,
    config_digest: str,
    merged: Optional[MergedRun] = None,
    **labels: str,
) -> RunManifest:
    """Build the merged-run manifest: global fields + per-shard sections.

    The manifest's ``metrics`` are the *merged* snapshot and its
    ``shards`` sections carry each shard's terminal provenance, so the
    manifest digest attests both the fold and its inputs.  Pass an
    already-computed ``merged`` run to avoid folding twice.
    """
    if merged is None:
        merged = merge_snapshots(snapshots)
    return RunManifest(
        seed=seed,
        config_digest=config_digest,
        event_count=merged.event_count,
        span_count=merged.span_count,
        metrics=merged.registry.snapshot(),
        shards={
            str(snap.shard_id): snap.manifest_section()
            for snap in sorted(snapshots, key=lambda snap: snap.shard_id)
        },
        labels=dict(labels),
    )


def write_merged_spans_jsonl(spans: Sequence[Span], path: PathLike) -> int:
    """Write merged spans in interleaved ``(start, shard, seq)`` order.

    Unlike :func:`repro.obs.export.write_spans_jsonl` (single-shard, id
    order) this preserves the global timeline ordering of the merge;
    the output is byte-stable for same-seed runs.  Returns #lines.
    """
    ordered = sorted(
        spans,
        key=lambda span: (span.start, shard_of(span.span_id), seq_of(span.span_id)),
    )
    lines = [canonical_json(span.to_dict()) for span in ordered]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def export_merged_run(
    directory: PathLike,
    merged: MergedRun,
    manifest: RunManifest,
) -> Dict[str, str]:
    """Write a merged run's artifact set (manifest + merged JSONL files)."""
    from repro.obs.export import MANIFEST_FILE, write_manifest, write_metrics_jsonl

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}
    manifest_path = target / MANIFEST_FILE
    write_manifest(manifest, manifest_path)
    written["manifest"] = str(manifest_path)
    spans_path = target / MERGED_SPANS_FILE
    write_merged_spans_jsonl(merged.spans, spans_path)
    written["merged_spans"] = str(spans_path)
    metrics_path = target / MERGED_METRICS_FILE
    write_metrics_jsonl(merged.registry, metrics_path)
    written["merged_metrics"] = str(metrics_path)
    return written

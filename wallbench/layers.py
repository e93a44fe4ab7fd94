# module: benchmarks.wallbench.layers
"""Outside-in wall-clock tracing of the agora's layers.

The traced run patches the public entry point of each layer, from the
benchmark process, with a ``functools.wraps`` wrapper that records a span
(name, start, end, parent, query id) in memory.  Nothing in the library
changes: ``functools.wraps`` keeps ``__wrapped__``/``__qualname__``, so
``repro.obs.flight.callback_identity`` names the same callbacks and the
flight digest is unchanged.  Spans are written out once the run ends.

A span's self time is its duration minus the time its child spans cover.
The measured wall time splits exactly into the self times of every span
plus the benchmark loop's own residual (time inside no span), which is
reported as ``trace.loop_share``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.agora import Agora
from repro.core.consumer import Consumer
from repro.data.corpus import CorpusGenerator
from repro.multimodal.feeds import FeedService
from repro.obs.flight import FlightRecorder
from repro.optimizer.trading import SourceBidder, TradingOptimizer
from repro.personalization.ranking import PersonalizedRanker
from repro.qos.monitor import ContractMonitor
from repro.query.execution import QueryExecutor
from repro.query.oracle import RelevanceOracle
from repro.sim.kernel import Simulator
from repro.sources.source import InformationSource
from repro.uncertainty import matching
from repro.uncertainty.matching import (
    CandidateBlock,
    CompoundMatcher,
    ConceptLifter,
    MatchingEngine,
)

Sizer = Callable[[Tuple[Any, ...], Any], float]


class SpanLog:
    """In-memory span store fed by the wrappers :meth:`install` patches."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.queries: List[Optional[int]] = []
        #: per span: the size its sizer reported (items, leaves, ...)
        self.sizes: List[float] = []
        #: calls of count-only wrappers, and their sizes
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: List[int] = []
        self._query: Optional[int] = None
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- patching --------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(
        self, owner: Any, attr: str, name: str,
        sizer: Optional[Sizer] = None, query_arg: Optional[int] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return original(*args, **kwargs)
                index = len(self.names)
                outer = self._query
                if query_arg is not None:
                    self._query = args[query_arg].query_id
                self.names.append(name)
                self.parents.append(self._stack[-1] if self._stack else -1)
                self.queries.append(self._query)
                self.ends.append(0.0)
                self.sizes.append(0.0)
                self._stack.append(index)
                self.starts.append(time.perf_counter())  # agora: ignore[AGR001] wall span
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.ends[index] = time.perf_counter()  # agora: ignore[AGR001] wall span
                    self._stack.pop()
                    self._query = outer
                if sizer is not None:
                    self.sizes[index] = sizer(args, result)
                return result

            return traced

        self._patch(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str, sizer: Sizer) -> None:
        """Count calls of ``owner.attr`` and their sizes, without a span.

        Only outermost calls count: a call made while another call of the
        same name is in progress (``CompoundMatcher.score`` scoring part
        pairs through ``MatchingEngine.score``) is part of that call.
        """
        depth = [0]

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def counted(*args: Any, **kwargs: Any) -> Any:
                depth[0] += 1
                try:
                    result = original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if self.enabled and depth[0] == 0:
                    self.counts[name] += 1
                    self.counts[name + ".size"] += sizer(args, result)
                return result

            return counted

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics need."""
        self.span(Consumer, "ask", "ask", query_arg=1)
        self.span(TradingOptimizer, "negotiate", "plan.negotiate",
                  sizer=lambda args, result: len(result.contracts))
        self.count(SourceBidder, "__call__", "plan.bid",
                   lambda args, result: float(result is not None))
        self.span(QueryExecutor, "execute", "execute",
                  sizer=lambda args, result: len(args[1].leaves()))
        self.span(InformationSource, "answer", "source.answer",
                  sizer=lambda args, result: float(result.declined))
        self.span(InformationSource, "ingest", "source.ingest",
                  sizer=lambda args, result: len(args[1]))
        self.span(MatchingEngine, "rank_block_topk", "matching.rank_topk")
        self.span(MatchingEngine, "prepare", "matching.prepare")
        self.span(CandidateBlock, "extend", "matching.prepare")
        self.span(CompoundMatcher, "score_many", "matching.compound")
        self.span(ConceptLifter, "lift_many", "matching.lift_many")
        self.span(matching, "batch_bag_cosine", "matching.text")
        self.span(matching, "batch_dot_kernel", "matching.media")
        self.span(matching, "batch_nonnegative_cosine", "matching.cross")
        self.count(MatchingEngine, "score", "matching.score", lambda args, result: 1.0)
        self.span(RelevanceOracle, "delivered_qos", "oracle.audit")
        self.count(RelevanceOracle, "is_relevant", "oracle.is_relevant",
                   lambda args, result: 1.0)
        self.span(ContractMonitor, "settle", "qos.settle")
        self.span(ContractMonitor, "record_cancellation", "qos.settle")
        self.span(PersonalizedRanker, "rerank_items", "personalize.rerank")
        self.span(Agora, "latency_to_source", "net.latency")
        self.span(FeedService, "on_new_item", "feeds.screen")
        self.span(CorpusGenerator, "generate_item", "data.generate_item")
        self.span(CorpusGenerator, "generate", "data.corpus_generate")
        self.span(Simulator, "run", "sim.run",
                  sizer=lambda args, result: float(result))
        self.span(FlightRecorder, "record", "obs.flight_record")

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- export ------------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        """One JSON array per span: name, start and end in microseconds
        from the first span, parent span index (-1 for a root), query id.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps([
                    name,
                    round((self.starts[index] - origin) * 1e6, 1),
                    round((self.ends[index] - origin) * 1e6, 1),
                    self.parents[index],
                    self.queries[index],
                ]) + "\n")

    # -- aggregation -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        selfs = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[index] - self.starts[index]
        return selfs

    def totals(self, since: float, in_ask: bool = False,
               exclude_under: str = "") -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, summed sizes.

        Only spans starting at or after ``since`` count; ``in_ask`` keeps
        only spans inside an ask; spans nested anywhere under a span named
        ``exclude_under`` are skipped.  A span nested under a span of its
        own name (``CandidateBlock.extend`` inside ``MatchingEngine.prepare``)
        adds only its self time: its call and inclusive time belong to the
        outermost one.
        """
        selfs = self.self_times()
        under = [False] * len(self.names)
        if exclude_under:
            for index, parent in enumerate(self.parents):
                under[index] = parent >= 0 and (
                    under[parent] or self.names[parent] == exclude_under
                )
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "size": 0.0}
        )
        for index, name in enumerate(self.names):
            if self.starts[index] < since or under[index]:
                continue
            if in_ask and self.queries[index] is None:
                continue
            row = table[name]
            row["self_s"] += selfs[index]
            if self._nested_in_own_name(index):
                continue
            row["calls"] += 1
            row["total_s"] += self.ends[index] - self.starts[index]
            row["size"] += self.sizes[index]
        return dict(table)

    def _nested_in_own_name(self, index: int) -> bool:
        name = self.names[index]
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def top_level_seconds(self, since: float) -> float:
        """Wall seconds covered by root spans starting at or after ``since``."""
        return sum(
            self.ends[index] - self.starts[index]
            for index, parent in enumerate(self.parents)
            if parent < 0 and self.starts[index] >= since
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    log: SpanLog,
    since: float,
    wall_s: float,
    asks: int,
    counters: Dict[str, float],
    counts: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``since`` is the wall time the measured region started and ``wall_s``
    its length; ``counters`` are the agora metrics-registry deltas over
    the measured region and ``counts`` the count-only wrapper deltas over
    it.  Per-query, per-call and per-item figures cover the measured
    region; ``matching.prepare.ms``, ``matching.score.calls``,
    ``source.ingest.us_per_item`` and the ``data.*`` figures cover the
    whole traced process, set-up included.  A layer that does not run in
    a workload reports 0.
    """
    in_query = log.totals(since, in_ask=True)
    region = log.totals(since)
    process = log.totals(0.0)
    prepare = log.totals(0.0, exclude_under="matching.compound")
    zero = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "size": 0.0}

    def per_query_ms(name: str, key: str = "total_s") -> float:
        return _ratio(in_query.get(name, zero)[key] * 1e3, asks)

    def per_call(table: Dict[str, Dict[str, float]], name: str, scale: float,
                 by: str = "calls") -> float:
        row = table.get(name, zero)
        return _ratio(row["total_s"] * scale, row[by])

    def counter(name: str) -> float:
        return counters.get(name, 0.0)

    def hit_ratio(prefix: str, misses: Tuple[str, ...] = ("misses",)) -> float:
        hits = counter(f"{prefix}.hits")
        return _ratio(hits, hits + sum(counter(f"{prefix}.{m}") for m in misses))

    answer = in_query.get("source.answer", zero)
    sim_run = region.get("sim.run", zero)
    metrics = {
        "plan.negotiate.ms_per_query": per_query_ms("plan.negotiate"),
        "plan.bids_per_query": _ratio(counts.get("plan.bid.size", 0.0), asks),
        "plan.contracts_per_query": _ratio(
            in_query.get("plan.negotiate", zero)["size"], asks),
        "execute.self_ms_per_query": per_query_ms("execute", "self_s"),
        "execute.leaves_per_query": _ratio(in_query.get("execute", zero)["size"], asks),
        "source.answer.self_ms_per_call": _ratio(answer["self_s"] * 1e3, answer["calls"]),
        "source.answer.declined_share": _ratio(answer["size"], answer["calls"]),
        "source.block_cache.hit_ratio": hit_ratio(
            "source.block_cache", ("misses", "extends", "rebuilds")),
        "source.block_cache.rebuilds": counter("source.block_cache.rebuilds"),
        "source.ingest.us_per_item": per_call(process, "source.ingest", 1e6, "size"),
        "matching.rank_topk.ms_per_call": per_call(in_query, "matching.rank_topk", 1e3),
        "matching.compound.ms_per_query": per_query_ms("matching.compound"),
        "matching.lift_many.ms_per_query": per_query_ms("matching.lift_many"),
        "matching.text.ms_per_query": per_query_ms("matching.text"),
        "matching.media.ms_per_query": per_query_ms("matching.media"),
        "matching.cross.ms_per_query": per_query_ms("matching.cross"),
        "matching.cache.text_tf.hit_ratio": hit_ratio("matching.cache.text_tf"),
        "matching.cache.media_features.hit_ratio": hit_ratio(
            "matching.cache.media_features"),
        "matching.cache.concept_lifts.hit_ratio": hit_ratio(
            "matching.cache.concept_lifts"),
        "matching.cache.concept_lifts.evictions": counter(
            "matching.cache.concept_lifts.evictions"),
        "matching.prepare.ms": prepare.get("matching.prepare", zero)["total_s"] * 1e3,
        "matching.score.calls": extra["matching.score.calls"],
        "pruning.scored_fraction": _ratio(
            counter("matching.prune.candidates_scored"),
            counter("matching.prune.candidates_total")),
        "pruning.chunks_skipped_fraction": _ratio(
            counter("matching.prune.chunks_skipped"),
            counter("matching.prune.chunks_total")),
        "pruning.domain_skips": counter("matching.prune.domain_skips"),
        "oracle.audit.ms_per_query": per_query_ms("oracle.audit"),
        "oracle.is_relevant.calls_per_query": _ratio(
            counts.get("oracle.is_relevant", 0.0), asks),
        "qos.settle.ms_per_query": per_query_ms("qos.settle"),
        "personalize.rerank.ms_per_query": per_query_ms("personalize.rerank"),
        "net.latency.ms_per_query": per_query_ms("net.latency"),
        "feeds.screen.us_per_item": per_call(region, "feeds.screen", 1e6),
        "feeds.hits_per_item": _ratio(extra["feeds.hits"], extra["feeds.screened"]),
        "data.generate_item.us_per_item": per_call(process, "data.generate_item", 1e6),
        "data.corpus_generate.s": process.get("data.corpus_generate", zero)["total_s"],
        "sim.dispatch.self_us_per_event": _ratio(sim_run["self_s"] * 1e6, sim_run["size"]),
        "sim.events": sim_run["size"],
        "obs.flight_record.us_per_event": per_call(region, "obs.flight_record", 1e6),
        "obs.spans": extra["obs.spans"],
        "resilience.retries_per_query": _ratio(extra["resilience.retries"], asks),
        "resilience.failovers_per_query": _ratio(extra["resilience.failovers"], asks),
        "resilience.hedges_per_query": _ratio(extra["resilience.hedges"], asks),
        "trace.loop_share": _ratio(wall_s - log.top_level_seconds(since), wall_s),
    }
    return metrics


def self_time_table(log: SpanLog, since: float, wall_s: float) -> Dict[str, float]:
    """Measured-region self milliseconds per span name, plus the benchmark loop.

    The values sum to the measured wall time: every instant is inside
    exactly one innermost span or inside none (the benchmark loop's residual).
    """
    table = {
        name: row["self_s"] * 1e3
        for name, row in sorted(log.totals(since).items())
    }
    table["(loop)"] = (wall_s - log.top_level_seconds(since)) * 1e3
    return table

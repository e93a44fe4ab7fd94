# module: benchmarks.wallbench.workloads
"""The benchmark's seeded agora workloads.

Each workload is built only through the library's public API
(``build_agora``, ``Consumer.ask``/``subscribe``, ``Agora.run``) from one
single-threaded process.  A workload is a fixed agora -- its sources,
corpora, update streams and churn come from ``AGORA_SEED`` -- plus a
request stream drawn from the run's seed: the users, their queries and
their standing queries.  The same seed replays the same simulation byte
for byte and :func:`sim_digest` proves it.  See ``README.md`` beside this
file for why each workload exists.

Two clocks are in play.  Every *performance* number here is wall-clock
(``time.perf_counter``, host time): an operation's wall time, and the
same time in units of a fixed reference kernel timed beside it
(:func:`reference_ms`), which cancels the host's speed phases.  Simulated
statistics (response times, utilities, contracts, the flight digest)
only enter the digest, which proves a change left the simulation
identical; they are never a performance metric.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import Consumer, build_agora
from repro.core import Agora, ConsumerResult
from repro.query.model import Query
from repro.resilience import ResilienceConfig
from repro.sim.rng import RngStreams
from repro.workloads import QueryWorkloadGenerator, UserPopulationGenerator

#: the agora of every workload is built from this seed, so runs at
#: different seeds differ only in their users and requests
AGORA_SEED = 7
#: users drawn from ``UserPopulationGenerator``; asks go round-robin
N_USERS = 8
#: interest queries generated at set-up for ask-deep (cycled
#: when a run asks more; a multiple of ``N_USERS`` keeps user/query pairs)
QUERY_POOL = 512
#: asks every ask-deep run makes at least, and the prefix the digest
#: covers: 100 asks leave 10 samples above the p90
MIN_ASKS = 100
#: sampled retrieves checked against ``MatchingEngine.rank_pairwise``
SAMPLED_RETRIEVES = 3
#: the feed workload's virtual horizon and its scheduled asks
FEED_HORIZON = 6000.0
FEED_ASKS = 12
#: standing-query threshold: calibrated probabilities on these agoras top
#: out near 0.4, so the stock 0.5 threshold would never deliver a hit
FEED_THRESHOLD = 0.3
#: the feed timeline is run in this many equal virtual-time slices; each
#: slice yields one per-event wall-time sample
FEED_SLICES = 240
#: an operation's reference time is the median of the reference timings
#: taken before it and before up to this many operations on either side
REFERENCE_WINDOW = 4
_REFERENCE_KEYS = [f"key{index}" for index in range(1500)]
_REFERENCE_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration (``README.md`` says why each exists)."""

    name: str
    n_sources: int
    items_per_source: int
    timeline: bool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("ask-deep", 10, 1000, False),
        Workload("feed-timeline", 10, 200, True),
    )
}


@dataclass
class Scenario:
    """A set-up agora plus the inputs the measured region will use."""

    workload: Workload
    seed: int
    agora: Agora
    consumers: List[Consumer]
    queries: List[Query]
    results: List[ConsumerResult] = field(default_factory=list)


def clock() -> float:
    return time.perf_counter()  # agora: ignore[AGR001] the benchmark measures host wall-clock time


def setup(workload: Workload, seed: int) -> Tuple[Scenario, float]:
    """Build and warm one agora; returns it with its wall set-up seconds.

    Set-up covers the build, the consumers, the generated inputs and a
    warm-up that has every source answer one subquery per domain, which
    prepares each source's candidate block (lazy work users pay once per
    agora).
    """
    started = clock()
    feed = workload.timeline
    agora = build_agora(
        seed=AGORA_SEED,
        n_sources=workload.n_sources,
        items_per_source=workload.items_per_source,
        enable_churn=feed,
        enable_tracing=feed,
        enable_flight_recorder=feed,
    )
    requests = RngStreams(seed)
    profiles = UserPopulationGenerator(
        agora.topic_space, requests.spawn("users")
    ).generate_population(N_USERS)
    resilience = ResilienceConfig.default_enabled() if feed else None
    consumers = [Consumer(agora, profile, resilience=resilience) for profile in profiles]
    generator = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, requests.spawn("queries")
    )
    n_queries = FEED_ASKS if feed else QUERY_POOL
    queries = [
        generator.interest_query(profiles[index % N_USERS]) for index in range(n_queries)
    ]
    scenario = Scenario(workload, seed, agora, consumers, queries)
    warm = generator.interest_query(profiles[0])
    for source_id in sorted(agora.sources):
        source = agora.sources[source_id]
        for domain in source.domains:
            source.answer(warm.restricted_to(domain), now=agora.now, consumer_id="warm-up")
    if feed:
        for consumer, profile in zip(consumers, profiles):
            consumer.subscribe(generator.interest_query(profile), threshold=FEED_THRESHOLD)
        spacing = FEED_HORIZON / FEED_ASKS
        for index in range(FEED_ASKS):
            agora.sim.at(spacing * (index + 0.5), partial(_scheduled_ask, scenario, index))
        agora.start_feeds()
    return scenario, clock() - started


def _scheduled_ask(scenario: Scenario, index: int) -> None:
    """Timeline callback: one consumer asks one pre-generated query."""
    consumer = scenario.consumers[index % N_USERS]
    scenario.results.append(consumer.ask(scenario.queries[index]))


def reference_ms() -> float:
    """Wall milliseconds of a fixed interpreter, dict and numpy kernel.

    The measured loops time it before every sample, so each sample can
    also be read in units of the host's speed at that moment: the host's
    phases (tens of percent, seconds long) slow the kernel and the
    library alike.  It touches nothing of the library and draws no random
    numbers; the garbage collector is off while it runs, so a collection
    the library's garbage is due for happens in the library's own time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        total = 0
        for index in range(15000):
            total += index * index
        table = {}
        for key in _REFERENCE_KEYS:
            table[key] = total
        for __ in range(8):
            _REFERENCE_MATRIX @ _REFERENCE_MATRIX
        return (clock() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


def in_reference_units(op_ms: List[float], reference: List[float]) -> List[float]:
    """Each sample over the median reference time around it."""
    return [
        value / statistics.median(
            reference[max(0, index - REFERENCE_WINDOW): index + REFERENCE_WINDOW + 1]
        )
        for index, value in enumerate(op_ms)
    ]


@dataclass
class Measurement:
    """Wall-clock samples of one measured region.

    ``wall_s`` is the time the operations took, without the reference
    timings between them; ``op_ref`` holds ``op_ms`` in reference units
    and ``ref_total`` is ``wall_s`` in reference units, summed sample by
    sample.

    ``rss_mb`` is the peak resident set once the seed-fixed part of the
    work is done (the digested asks, or the whole timeline), so it does
    not grow with how many extra asks a fast machine fits in.
    """

    operations: int
    wall_s: float
    op_ms: List[float]
    op_ref: List[float]
    ref_total: float
    rss_mb: float


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_asks(
    scenario: Scenario, seconds: float, exact: Optional[int] = None
) -> Measurement:
    """Closed loop, one client: ask until the asks have taken
    ``seconds`` and ``MIN_ASKS`` are done.

    With ``exact`` the loop makes exactly that many asks instead (the
    traced replay repeats the untraced run's work).  The first
    ``MIN_ASKS`` results are kept for the digest.
    """
    latencies: List[float] = []
    reference: List[float] = []
    rss = 0.0
    spent = 0.0
    count = 0
    while True:
        if exact is not None and count >= exact:
            break
        if exact is None and count >= MIN_ASKS and spent >= seconds:
            break
        consumer = scenario.consumers[count % N_USERS]
        query = scenario.queries[count % QUERY_POOL]
        reference.append(reference_ms())
        before = clock()
        result = consumer.ask(query)
        elapsed = clock() - before
        spent += elapsed
        latencies.append(elapsed * 1e3)
        if count < MIN_ASKS:
            scenario.results.append(result)
        count += 1
        if count == MIN_ASKS:
            rss = peak_rss_mb()
    op_ref = in_reference_units(latencies, reference)
    return Measurement(count, spent, latencies, op_ref, sum(op_ref), rss or peak_rss_mb())


def measure_timeline(scenario: Scenario) -> Measurement:
    """Run the whole feed timeline; one per-event sample per slice."""
    agora = scenario.agora
    width = FEED_HORIZON / FEED_SLICES
    per_event_ms: List[float] = []
    per_slice: List[int] = []
    reference: List[float] = []
    events = 0
    wall = 0.0
    for index in range(1, FEED_SLICES + 1):
        before_reference = reference_ms()
        before = agora.sim.processed
        started = clock()
        agora.run(until=width * index)
        elapsed = clock() - started
        dispatched = agora.sim.processed - before
        wall += elapsed
        events += dispatched
        if dispatched:
            per_event_ms.append(elapsed * 1e3 / dispatched)
            per_slice.append(dispatched)
            reference.append(before_reference)
    op_ref = in_reference_units(per_event_ms, reference)
    ref_total = sum(value * count for value, count in zip(op_ref, per_slice))
    return Measurement(events, wall, per_event_ms, op_ref, ref_total, peak_rss_mb())


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _result_lines(result: ConsumerResult) -> List[str]:
    lines = [
        f"query {result.query.query_id} {result.query.issuer_id}",
        "ranked " + " ".join(item.item_id for item in result.ranked_items),
    ]
    lines.extend(
        f"match {m.item.item_id} {m.score!r} {m.probability!r} {m.source_id}"
        for m in result.results.matches
    )
    lines.append(f"response_time {result.response_time!r}")
    lines.append(f"delivered {result.delivered!r}")
    lines.extend(f"contract {contract!r}" for contract in result.contracts)
    lines.extend(f"settlement {outcome!r}" for outcome in result.settlements)
    lines.append("unserved " + " ".join(result.unserved_jobs))
    return lines


def sim_digest(scenario: Scenario) -> str:
    """SHA-256 over every digested ask's simulated outcome.

    Covers ranked item ids, each match's ``repr`` score and probability,
    simulated response time, delivered QoS, contracts, settlements and
    unserved jobs; on the timeline also every inbox hit and the flight
    recorder's digest.  Wall-clock values never enter it.
    """
    lines: List[str] = [f"workload {scenario.workload.name} seed {scenario.seed}"]
    for result in scenario.results:
        lines.extend(_result_lines(result))
    agora = scenario.agora
    if scenario.workload.timeline:
        for consumer in scenario.consumers:
            lines.extend(
                f"hit {consumer.user_id} {hit.standing_id} {hit.match.item.item_id} "
                f"{hit.match.score!r} {hit.match.probability!r} {hit.delivered_at!r}"
                for hit in agora.feeds.inbox(consumer.user_id)
            )
        flight = agora.flight.digest if agora.flight is not None else "off"
        lines.append(f"events {agora.sim.processed} flight {flight}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _same_ranking(left, right) -> bool:
    """Equal item ids in order and bitwise-equal scores."""
    return [(item.item_id, score.hex()) for item, score in left] == [
        (item.item_id, score.hex()) for item, score in right
    ]


def check_retrieves(scenario: Scenario) -> Tuple[int, int]:
    """Sampled retrieves against the ``rank_pairwise`` reference.

    Runs after the measured region and the digest.  For each sampled
    (query, domain, source): the batched top-k over the source's visible
    pool must equal ``rank_pairwise`` bitwise, and the source's own answer
    must return the same items in the same order, with the same score
    wherever the source is exact (a noisy source may replace a score).
    Returns ``(checked, failed)``.
    """
    agora = scenario.agora
    engine = agora.engine
    rng = np.random.default_rng([scenario.seed, 0xC4EC])
    checked = failed = 0
    for __ in range(SAMPLED_RETRIEVES):
        result = scenario.results[int(rng.integers(len(scenario.results)))]
        domains = [d for d in agora.available_domains() if result.query.targets(d)]
        domain = domains[int(rng.integers(len(domains)))]
        serving = sorted(sid for sid, s in agora.sources.items() if domain in s.domains)
        source = agora.sources[serving[int(rng.integers(len(serving)))]]
        subquery = result.query.restricted_to(domain)
        pool = source.visible_items(agora.now, domain)
        evidence = subquery.evidence_item()
        reference = engine.rank_pairwise(evidence, pool)[: subquery.k]
        ok = _same_ranking(engine.rank_topk(evidence, pool, subquery.k), reference)
        answer = source.answer(subquery, now=agora.now, consumer_id="check")
        if not answer.declined:
            ids_ok = [item.item_id for item, __ in answer.matches] == [
                item.item_id for item, __ in reference
            ]
            exact = source.quality.error_rate == 0.0
            scores_ok = not exact or _same_ranking(answer.matches, reference)
            ok = ok and ids_ok and scores_ok
        checked += 1
        failed += 0 if ok else 1
    return checked, failed

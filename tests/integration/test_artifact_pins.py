"""Pinned bytes of one single-process run's span and flight artifacts.

A small fixed-seed agora runs with tracing, churn and the flight
recorder on, its asks scheduled on the virtual timeline (the model is
``examples/observability_demo.py --flight``).  The sha256 of
``spans.jsonl`` and of the first flight chunk, and the recorder's rolling
digest, are pinned: a change that moves a span id, a span field or a
flight record line fails here.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.core import Consumer
from repro.core.builder import build_agora
from repro.data import reset_item_ids
from repro.net import reset_message_ids
from repro.obs import export_run
from repro.personalization import UserProfile
from repro.query import reset_query_ids
from repro.resilience import FaultScript, ResilienceConfig
from repro.workloads import QueryWorkloadGenerator

SEED = 11
QUERY_SPACING = 5.0
N_QUERIES = 6
HORIZON = QUERY_SPACING * (N_QUERIES + 1)

SPANS_SHA256 = "721ea3baecd91b644d55b8849a1016cc7c1aeedfda8083ab4eeef70bf56abf01"
CHUNK_SHA256 = "ec9e91beb3563c70a8b3d3334ac1928ad693b764374ceb27b983e602b1430804"
FLIGHT_DIGEST = "ec9e91beb3563c70a8b3d3334ac1928ad693b764374ceb27b983e602b1430804"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    reset_item_ids()
    reset_query_ids()
    reset_message_ids()
    agora = build_agora(
        seed=SEED, n_sources=6, items_per_source=10, calibration_pairs=0,
        enable_tracing=True, enable_churn=True, enable_flight_recorder=True,
    )
    rng = np.random.default_rng(SEED + 1)
    for node in agora.topology.nodes[:-1]:  # keep the consumer node up
        agora.health.set_state(node, bool(rng.random() < 0.5))
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("pins"),
    )
    profile = UserProfile(
        user_id="pins", interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(
        agora, profile, planner="trading",
        resilience=ResilienceConfig.default_enabled(),
    )
    queries = [
        workload.topic_query(agora.topic_space.names[index % 5], k=10)
        for index in range(N_QUERIES)
    ]
    # ``partial`` keeps the recorded callback identity
    # (``repro.core.consumer:Consumer.ask``) independent of this module.
    with agora.tracer.span("drive"):
        for index, query in enumerate(queries):
            agora.sim.schedule(
                QUERY_SPACING * index + QUERY_SPACING / 2,
                functools.partial(consumer.ask, query),
                tag=f"query-{index}",
            )
    node = agora.sources[sorted(agora.sources)[0]].node_id
    agora.inject_faults(FaultScript().outage(node, start=12.0, duration=10.0))
    agora.run(until=HORIZON)
    out = tmp_path_factory.mktemp("pins")
    export_run(
        out, agora.run_manifest(scenario="pins"), tracer=agora.tracer,
        flight=agora.flight,
    )
    return out, agora


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_spans_jsonl_bytes_are_pinned(run):
    out, __ = run
    assert _sha256(out / "spans.jsonl") == SPANS_SHA256


def test_flight_chunk_bytes_are_pinned(run):
    out, __ = run
    assert _sha256(out / "flight" / "chunk-000000.jsonl") == CHUNK_SHA256


def test_flight_digest_is_pinned(run):
    __, agora = run
    assert agora.flight.digest == FLIGHT_DIGEST

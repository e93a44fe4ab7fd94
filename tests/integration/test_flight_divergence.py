"""End-to-end flight recording: byte-stable logs and exact fault pinpointing.

The acceptance bar for the flight recorder: two same-seed runs stream
byte-identical recordings (chunk files *and* footer compare equal), and
when one run injects a fault, the divergence debugger names exactly the
injected event — same log index as an exhaustive linear scan, with the
fault visible in the divergent entry and RNG stream deltas attached.
"""

import json

import numpy as np
import pytest

from repro.core import Consumer
from repro.core.builder import build_agora
from repro.data import reset_item_ids
from repro.net import reset_message_ids
from repro.obs import diff_manifests, find_divergence, load_recording
from repro.obs.flight import FOOTER_FILE
from repro.personalization import UserProfile
from repro.query import reset_query_ids
from repro.resilience import FaultScript, ResilienceConfig
from repro.workloads import QueryWorkloadGenerator

QUERY_SPACING = 5.0
N_QUERIES = 8
HORIZON = QUERY_SPACING * (N_QUERIES + 1)


def record_run(out_dir, seed=11, fault_at=None, availability=0.5):
    """Mirror ``examples/observability_demo.py --flight`` into ``out_dir``
    (without its profiler and SLO monitor).

    The fault script is installed *unconditionally* (a clean run fires it
    beyond the horizon) so clean and mutant runs push identical event
    sequences and the first divergent record is the fault itself.
    """
    from repro.obs import export_run

    reset_item_ids()
    reset_query_ids()
    reset_message_ids()
    agora = build_agora(
        seed=seed, n_sources=8, items_per_source=12, calibration_pairs=0,
        enable_tracing=True, enable_churn=True, enable_flight_recorder=True,
    )
    rng = np.random.default_rng(seed + 1)
    for node in agora.topology.nodes[:-1]:
        agora.health.set_state(node, bool(rng.random() < availability))
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("obs-demo"),
    )
    profile = UserProfile(
        user_id="iris", interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(
        agora, profile, planner="trading",
        resilience=ResilienceConfig.default_enabled(),
    )
    queries = [
        workload.topic_query(agora.topic_space.names[index % 5], k=10)
        for index in range(N_QUERIES)
    ]
    assert agora.tracer is not None
    with agora.tracer.span("drive"):
        for index, query in enumerate(queries):
            agora.sim.schedule(
                QUERY_SPACING * index + QUERY_SPACING / 2,
                (lambda q=query: consumer.ask(q)),
                tag=f"query-{index}",
            )
    start = fault_at if fault_at is not None else HORIZON * 100
    node = agora.sources[sorted(agora.sources)[0]].node_id
    agora.inject_faults(FaultScript().outage(node, start=start, duration=10.0))
    agora.run(until=HORIZON)
    manifest = agora.run_manifest(scenario="flight-integration")
    written = export_run(
        out_dir, manifest, registry=agora.sim.metrics, tracer=agora.tracer,
        flight=agora.flight,
    )
    return written, manifest


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flight-twins")
    written_a, manifest_a = record_run(root / "a", seed=11)
    written_b, manifest_b = record_run(root / "b", seed=11)
    written_m, manifest_m = record_run(root / "m", seed=11, fault_at=17.0)
    return {
        "root": root,
        "a": (written_a, manifest_a),
        "b": (written_b, manifest_b),
        "m": (written_m, manifest_m),
    }


class TestByteStability:
    def test_same_seed_recordings_are_byte_identical(self, twin_runs):
        root = twin_runs["root"]
        for name in ("chunk-000000.jsonl", FOOTER_FILE):
            left = (root / "a" / "flight" / name).read_bytes()
            right = (root / "b" / "flight" / name).read_bytes()
            assert left == right, name

    def test_divergence_reports_identical(self, twin_runs):
        root = twin_runs["root"]
        report = find_divergence(
            load_recording(root / "a"), load_recording(root / "b")
        )
        assert report.identical
        assert report.index is None

    def test_manifest_flight_digest_matches_footer(self, twin_runs):
        root = twin_runs["root"]
        __, manifest = twin_runs["a"]
        footer = json.loads((root / "a" / "flight" / FOOTER_FILE).read_text())
        assert manifest.flight["digest"] == footer["digest"]
        assert manifest.flight["events"] == footer["events"]

    def test_same_seed_manifests_zero_drift(self, twin_runs):
        __, left = twin_runs["a"]
        __, right = twin_runs["b"]
        assert diff_manifests(left, right).clean


class TestFaultPinpointing:
    def test_first_divergence_is_exactly_the_injected_event(self, twin_runs):
        root = twin_runs["root"]
        report = find_divergence(
            load_recording(root / "a"), load_recording(root / "m")
        )
        assert not report.identical
        assert report.kind == "event"

        # Ground truth: an exhaustive linear scan over every log entry,
        # no checkpoint shortcuts.
        left = load_recording(root / "a" / "flight")
        right = load_recording(root / "m" / "flight")
        expected = next(
            position
            for position, (a, b) in enumerate(zip(left.entries, right.entries))
            if a != b
        )
        assert report.index == expected

        # The divergent record IS the injected fault: the mutant side
        # dispatches the outage at t=17 where the clean side does not.
        assert report.right_entry is not None
        assert report.right_entry["kind"] == "fault"
        assert report.right_entry["time"] == 17.0
        assert "FaultInjector" in report.right_entry["callback"]

    def test_report_carries_causal_context(self, twin_runs):
        root = twin_runs["root"]
        report = find_divergence(
            load_recording(root / "a"), load_recording(root / "m")
        )
        # RNG attribution: the retry/jitter machinery consumed different
        # randomness once the outage landed.
        assert report.streams, "expected disagreeing RNG streams"
        # The last matching events before the fork are echoed.
        assert report.context
        # The clean side's entry at the fork index sits under the drive
        # span (queries are scheduled inside it), and spans.jsonl is
        # auto-attached, so the stack renders with names.
        if report.left_entry is not None and report.left_entry.get("span") is not None:
            assert report.left_stack is not None
            assert "drive" in report.left_stack

    def test_manifest_diff_drifts_and_flight_digest_changes(self, twin_runs):
        __, clean = twin_runs["a"]
        __, mutant = twin_runs["m"]
        report = diff_manifests(clean, mutant)
        assert not report.clean
        assert clean.flight["digest"] != mutant.flight["digest"]

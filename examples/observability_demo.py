"""Record one seeded agora run's observability artifacts.

Builds a small agora with causal tracing and consumer-side resilience
enabled, degrades half the overlay so retries/failovers actually fire,
runs a batch of queries, and exports the full artifact set:

    runs/<name>/manifest.json   canonical run provenance
    runs/<name>/metrics.jsonl   counters + distribution summaries
    runs/<name>/spans.jsonl     the causal span forest

Two invocations with the same ``--seed`` produce byte-identical
manifests — attest it with::

    python examples/observability_demo.py --seed 11 --out runs/a
    python examples/observability_demo.py --seed 11 --out runs/b
    python -m repro.obs diff runs/a/manifest.json runs/b/manifest.json

With ``--flight`` the queries are scheduled on the virtual timeline
(churn on, so background events interleave) and the kernel's flight
recorder streams a byte-stable per-event log to ``runs/<name>/flight/``;
the sim-time profiler and the QoS SLO monitor are on too, adding
``profile.folded``/``profile.json`` and ``slo.json``.
``--fault-at T`` injects a node outage at virtual time ``T``; a run
without the flag installs the same script beyond the horizon so the two
runs' event seqs stay aligned and the first divergence *is* the fault::

    python examples/observability_demo.py --seed 11 --out runs/a --flight
    python examples/observability_demo.py --seed 11 --out runs/m --flight --fault-at 17
    python -m repro.obs divergence runs/a runs/m
"""

import argparse
from typing import Optional

import numpy as np

from repro import Consumer, UserProfile, build_agora
from repro.obs import export_run
from repro.resilience import FaultScript, ResilienceConfig
from repro.workloads import QueryWorkloadGenerator

#: Virtual-time spacing between scheduled queries in ``--flight`` mode.
QUERY_SPACING = 5.0


def record(
    seed: int,
    out: str,
    n_queries: int = 8,
    availability: float = 0.5,
    flight: bool = False,
    fault_at: Optional[float] = None,
) -> dict:
    agora = build_agora(
        seed=seed, n_sources=8, items_per_source=12, calibration_pairs=0,
        enable_tracing=True, enable_churn=flight, enable_flight_recorder=flight,
        enable_profiling=flight, enable_slos=flight,
    )
    rng = np.random.default_rng(seed + 1)
    for node in agora.topology.nodes[:-1]:  # keep the consumer node up
        agora.health.set_state(node, bool(rng.random() < availability))
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("obs-demo"),
    )
    profile = UserProfile(
        user_id="obs-demo-user",
        interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(
        agora, profile, planner="trading",
        resilience=ResilienceConfig.default_enabled(),
    )
    queries = [
        workload.topic_query(agora.topic_space.names[index % 5], k=10)
        for index in range(n_queries)
    ]
    if flight:
        horizon = QUERY_SPACING * (n_queries + 1)
        assert agora.tracer is not None
        with agora.tracer.span("drive"):
            for index, query in enumerate(queries):
                agora.sim.schedule(
                    QUERY_SPACING * index + QUERY_SPACING / 2,
                    (lambda q=query: consumer.ask(q)),
                    tag=f"query-{index}",
                )
        # Install the fault script unconditionally: a clean run fires it
        # beyond the horizon, so clean and mutant runs push the same
        # events in the same order and their seq numbering stays aligned
        # — the first divergent record is the fault itself.
        start = fault_at if fault_at is not None else horizon * 100
        node = agora.sources[sorted(agora.sources)[0]].node_id
        agora.inject_faults(FaultScript().outage(node, start=start, duration=10.0))
        agora.run(until=horizon)
    else:
        for query in queries:
            consumer.ask(query)
    manifest = agora.run_manifest(scenario="observability-demo")
    return export_run(
        out, manifest, registry=agora.sim.metrics, tracer=agora.tracer,
        profiler=agora.profiler, slo_report=agora.slo_report(),
        flight=agora.flight,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--availability", type=float, default=0.5)
    parser.add_argument(
        "--flight", action="store_true",
        help="run queries on the virtual timeline with the flight recorder on",
    )
    parser.add_argument(
        "--fault-at", type=float, default=None,
        help="inject a node outage at this virtual time (implies --flight)",
    )
    args = parser.parse_args()
    written = record(
        args.seed, args.out, args.queries, args.availability,
        flight=args.flight or args.fault_at is not None, fault_at=args.fault_at,
    )
    for kind in sorted(written):
        print(f"{kind}: {written[kind]}")


if __name__ == "__main__":
    main()

# module: benchmarks.wallbench.worker
"""One benchmark process: set up one workload, optionally measure it.

``run.py`` starts this script in a fresh interpreter for every set-up and
every measured run, because the library's module-level id counters
(items, queries, messages, standing queries, contracts) drift across
agoras built in one process and would change the digest.  It prints one
JSON object on its last line of standard output.

Roles:

- ``setup``: build and warm the agora, report set-up seconds, exit.
- ``measure``: set up, then run the measured region, compute the digest,
  check sampled retrieves against ``rank_pairwise``, and report
  wall-clock samples.  With ``--trace`` the layer wrappers of
  ``layers.py`` are installed before set-up and the per-layer metrics
  and span file are produced too.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np
from wallbench import layers, workloads


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--role", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--asks", type=int, default=None,
                        help="ask exactly this many times (traced replay)")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the layers and write spans here (JSONL)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    log: Optional[layers.SpanLog] = None
    if args.spans is not None:
        log = layers.SpanLog()
        log.install()
    scenario, setup_s = workloads.setup(workload, args.seed)
    report: Dict[str, Any] = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    agora = scenario.agora
    counters_before = agora.sim.metrics.counters()
    counts_before = dict(log.counts) if log is not None else {}
    since = workloads.clock()
    if workload.timeline:
        measured = workloads.measure_timeline(scenario)
    else:
        measured = workloads.measure_asks(scenario, args.seconds, exact=args.asks)
    counters = {
        name: value - counters_before.get(name, 0.0)
        for name, value in agora.sim.metrics.counters().items()
    }
    report["rss_mb"] = measured.rss_mb
    if log is not None:
        log.enabled = False
    report["digest"] = workloads.sim_digest(scenario)
    report["checked"], report["check_failures"] = workloads.check_retrieves(scenario)
    report.update(
        operations=measured.operations,
        wall_s=measured.wall_s,
        op_ms=measured.op_ms,
        op_ref=measured.op_ref,
        ref_total=measured.ref_total,
        asks=len(scenario.results) if workload.timeline else measured.operations,
    )
    if log is not None:
        history = [result for consumer in scenario.consumers for result in consumer.history]
        extra = {
            "matching.score.calls": log.counts.get("matching.score", 0.0),
            "feeds.hits": float(sum(
                len(agora.feeds.inbox(consumer.user_id)) for consumer in scenario.consumers
            )),
            "feeds.screened": float(agora.feeds.items_screened),
            "obs.spans": float(agora.tracer.span_count if agora.tracer is not None else 0),
        }
        for name in ("retries", "failovers", "hedges"):
            extra[f"resilience.{name}"] = sum(
                result.resilience_events.get(name, 0.0) for result in history
            )
        counts = {
            name: value - counts_before.get(name, 0.0) for name, value in log.counts.items()
        }
        report["layers"] = layers.layer_metrics(
            log, since, measured.wall_s, report["asks"], counters, counts, extra
        )
        report["self_ms"] = layers.self_time_table(log, since, measured.wall_s)
        log.write_jsonl(args.spans)
        log.uninstall()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

# module: benchmarks.wallbench.run
"""Wall-clock agora benchmark: one command, one workload, one seed.

Usage (from the repository root)::

    python3 wallbench/run.py --workload ask-deep --seed 7 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
the benchmark's own tracing off.  ``--trace 1`` makes an untraced run and
then a traced replay of exactly the same work, and reports the per-layer
metrics plus ``trace.overhead_ratio`` (traced over untraced time of the
measured region, in reference units).  Every number is host wall-clock time
(``time.perf_counter``), wall time in units of a reference kernel timed
beside it (``workloads.reference_ms``), or a count; none is simulated
time.

Every set-up and measured run happens in a fresh interpreter started by
this script (see ``worker.py``), one at a time, with numpy limited to one
thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit and clock, and a full
record with provenance is written to ``wallbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-ups per ``--trace 0`` run; ``setup_s`` is their median.  About
#: half are taken before the measuring processes and the rest after, so
#: the samples straddle the run rather than one phase of the host.
SETUP_SAMPLES = 3
#: a run must end within this many wall seconds
RUN_BUDGET_S = 170.0
#: end-to-end figures measured and printed but not gated by BENCHMARK.json
#: (README.md, "End-to-end metrics", says why)
REPORTED = {"op_p90_ref": "ref", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
#: units whose values are read off the wall clock
WALL_UNITS = ("s", "ms", "us", "1/s")


class RunError(RuntimeError):
    """A child process failed; the run has no result."""


def _clock() -> float:
    return time.perf_counter()  # agora: ignore[AGR001] the benchmark budgets host wall-clock time


def _percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile: ``share`` of the samples are at or below."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout)"


def _clock_of(name: str, unit: str) -> str:
    """The clock a metric is read from: wall time, wall time over the
    reference kernel's wall time, or none for counts."""
    if unit == "ref" or name == "trace.overhead_ratio":
        return "wall/reference"
    if unit in WALL_UNITS or name.startswith("trace."):
        return "wall"
    return "none"


class Runner:
    """Starts worker processes one at a time within the run's budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = _clock() + RUN_BUDGET_S
        self.env = dict(os.environ)
        path = [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, role: str, *extra: str) -> Dict[str, Any]:
        command = [
            sys.executable, "-m", "wallbench.worker", "--workload", self.workload,
            "--seed", str(self.seed), "--role", role, "--seconds", str(self.seconds),
            *extra,
        ]
        remaining = self.deadline - _clock()
        if remaining <= 0:
            raise RunError("run budget exhausted before the next process")
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{role} process exceeded the run budget") from exc
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RunError(f"{role} process exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _end_to_end(setups: List[float], measured: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics pooled over the measuring processes."""
    op_ms = [sample for m in measured for sample in m["op_ms"]]
    op_ref = [sample for m in measured for sample in m["op_ref"]]
    return {
        "setup_s": statistics.median(setups),
        "op_mean_ref": sum(m["ref_total"] for m in measured)
        / sum(m["operations"] for m in measured),
        "op_p90_ref": _percentile(op_ref, 0.9),
        "ops_per_s": sum(m["operations"] for m in measured) / sum(m["wall_s"] for m in measured),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": _percentile(op_ms, 0.9),
        "peak_rss_mb": max(m["rss_mb"] for m in measured),
    }


def _measure(runner: Runner, trace: bool, spans: Path) -> Tuple[
    Dict[str, float], List[Dict[str, Any]], List[float]
]:
    """Run the processes of one benchmark run; returns metric values,
    the measuring processes' reports and the set-up samples.

    Untraced: half of ``SETUP_SAMPLES`` as set-up-only processes, then
    measuring processes until their measured regions add up to
    ``--seconds`` (an ask loop runs that long by itself; a timeline is
    replayed), then set-up-only processes until there are
    ``SETUP_SAMPLES`` set-up samples.  Traced: one untraced measuring
    process, then a traced replay of exactly its work.
    """
    if trace:
        plain = runner.child("measure")
        traced = runner.child("measure", "--asks", str(plain["asks"]), "--spans", str(spans))
        values = dict(traced["layers"])
        # in reference units, so a host phase during one of the two runs
        # does not pass for tracing overhead
        values["trace.overhead_ratio"] = traced["ref_total"] / plain["ref_total"]
        return values, [plain, traced], [plain["setup_s"], traced["setup_s"]]
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    measured: List[Dict[str, Any]] = []
    while sum(m["wall_s"] for m in measured) < runner.seconds:
        measured.append(runner.child("measure"))
    setups += [m["setup_s"] for m in measured]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    return _end_to_end(setups, measured), measured, setups


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write("wallbench: no repro sources next to the benchmark; nothing to run\n")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the running child before the exit propagates.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        values, measured, setups = _measure(
            runner, bool(args.trace), OUT / f"spans-{args.workload}.jsonl"
        )
    except RunError as exc:
        sys.stderr.write(f"wallbench: {exc}\n")
        return 1
    missing = sorted(set(declared) - set(values))
    if missing:
        sys.stderr.write(f"wallbench: no value for declared metrics {missing}\n")
        return 1

    # Correctness: every measuring process replays the same simulation,
    # the pinned seed matches its digest, and no sampled retrieve failed.
    digests = sorted({m["digest"] for m in measured})
    pinned = json.loads((HERE / "digests.json").read_text())
    expected = pinned["digests"].get(args.workload) if args.seed == pinned["seed"] else None
    digest = measured[0]["digest"]
    operations = sum(m["operations"] for m in measured)
    attempted = operations + sum(m["checked"] for m in measured)
    failed = sum(m["check_failures"] for m in measured)
    if len(digests) != 1 or expected not in (None, digest):
        failed += operations
    correct = failed == 0

    clock = "wall (time.perf_counter)"
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": measured[0]["python"], "numpy": measured[0]["numpy"],
        "commit": _git_commit(), "clock": clock,
    }
    metrics = {
        name: {"value": values[name], "unit": unit, "clock": _clock_of(name, unit)}
        for name, unit in declared.items()
    }
    samples = sum(len(m["op_ms"]) for m in measured[:1 if args.trace else None])
    print(f"wallbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{provenance['nproc']} cpus ({provenance['cpu_model']}), python "
          f"{provenance['python']}, numpy {provenance['numpy']}, commit "
          f"{provenance['commit']}; times are {clock}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']:<8s} "
              f"[{metric['clock']}]")
    for name in sorted(set(values) & set(REPORTED)):
        print(f"  {name:42s} {values[name]:>14.6g} {REPORTED[name]:<8s} "
              f"[{_clock_of(name, REPORTED[name])}] (reported, not gated)")
    print(f"  {len(measured)} measuring and {len(setups)} set-up samples; {samples} op "
          f"samples (p90 has {samples - math.ceil(0.9 * samples)} beyond it); "
          f"failed_share {failed / attempted:.6g} ({failed} of {attempted})")
    if expected == digest:
        verdict = "matches the pinned digest"
    elif expected is None:
        verdict = "no pinned digest for this seed"
    else:
        verdict = f"MISMATCH, pinned {expected}"
    if len(digests) != 1:
        verdict += f"; processes DIVERGED: {', '.join(digests)}"
    print(f"  sim_digest {digest} ({verdict})")
    self_ms = measured[-1].get("self_ms") or {}
    if self_ms:
        print(f"  self time of the traced measured region, {sum(self_ms.values()):.1f} ms "
              "[wall]:")
        for name, value in sorted(self_ms.items(), key=lambda item: -item[1]):
            print(f"    {name:40s} {value:>12.1f} ms")
    record = {
        "provenance": provenance, "metrics": metrics, "sim_digest": digest,
        "reported": {name: values[name] for name in sorted(set(values) & set(REPORTED))},
        "correct": correct, "attempted": attempted, "failed": failed,
        "setup_samples_s": setups,
        "processes": [
            {key: m[key] for key in ("setup_s", "operations", "wall_s", "rss_mb", "digest")}
            for m in measured
        ],
        "op_ms": [m["op_ms"] for m in measured],
        "op_ref": [m["op_ref"] for m in measured],
        "self_ms": self_ms,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

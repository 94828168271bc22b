"""Perf-trajectory ratchet: fail CI when serving throughput regresses.

A committed baseline (``BENCH_serve_v1.json``, produced by
``repro-bench serve --json``) records a pinned benchmark configuration
and the throughput it achieved.  ``repro-bench ratchet`` replays the
*identical* configuration — every knob comes from the baseline's
``config`` block, never from the current defaults — and fails when the
fresh ``qps`` falls more than ``--max-regression`` (default 25%) below
the recorded one, or when the replay pays more distance computations
than the recorded run.  The workload is seeded, so its answers and
distance counts repeat exactly: that half of the verdict does not
depend on the host.

The pinned config uses a simulated per-call metric cost
(``simulated_cost_us``), which makes the benchmark *sleep-dominated*:
throughput is then set by how well the engine overlaps and batches
metric calls, not by the raw speed of the host CPU — exactly the
property a cross-machine CI ratchet needs.  Improvements don't
auto-tighten the floor; to ratchet *up*, re-run with ``--write`` on a
representative machine and commit the new baseline.

Exit codes: 0 pass, 1 throughput or distance-count regression (or
result mismatch), 2 unusable baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.bench.throughput import SERVE_SCHEMA, run_throughput

#: Allowed fractional qps drop before the ratchet fails the build.
DEFAULT_MAX_REGRESSION = 0.25


def load_baseline(path: str) -> dict:
    """Read and validate a baseline file; raises ``ValueError`` if it
    isn't a serve-benchmark result this ratchet understands."""
    with open(path) as handle:
        baseline = json.load(handle)
    schema = baseline.get("schema")
    if schema != SERVE_SCHEMA:
        raise ValueError(
            f"baseline {path!r} has schema {schema!r}; this ratchet "
            f"understands {SERVE_SCHEMA!r}"
        )
    if "config" not in baseline or "qps" not in baseline:
        raise ValueError(f"baseline {path!r} is missing 'config' or 'qps'")
    return baseline


def rerun_baseline_config(baseline: dict, *, measure_latency: bool = False):
    """Run the serve benchmark with the baseline's pinned configuration."""
    config = baseline["config"]
    return run_throughput(
        n=int(config["n"]),
        dim=int(config["dim"]),
        n_shards=int(config["shards"]),
        workers=int(config["workers"]),
        backend=config["backend"],
        executor=config.get("executor", "thread"),
        replication=int(config.get("replication", 1)),
        n_queries=int(config["queries"]),
        radius=float(config["radius"]),
        k=int(config["k"]),
        seed=int(config["seed"]),
        simulated_cost_s=float(config.get("simulated_cost_us", 0.0)) * 1e-6,
        measure_latency=measure_latency,
    )


def build_ratchet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench ratchet",
        description=(
            "Re-run the pinned serve benchmark and fail on a qps "
            "regression against the committed baseline."
        ),
    )
    parser.add_argument(
        "--baseline", required=True,
        help="baseline JSON produced by 'repro-bench serve --json'",
    )
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional qps drop before failing "
        f"(default {DEFAULT_MAX_REGRESSION})",
    )
    parser.add_argument(
        "--write", metavar="PATH",
        help="also write the fresh result as a new baseline JSON "
        "(use on a representative machine to ratchet the floor up)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    return parser


def ratchet_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-bench ratchet`` entry point."""
    args = build_ratchet_parser().parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        print(
            f"--max-regression must be in [0, 1), got {args.max_regression}",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"unusable baseline: {error}", file=sys.stderr)
        return 2

    result = rerun_baseline_config(baseline)
    floor = baseline["qps"] * (1.0 - args.max_regression)
    regressed = result.engine_qps < floor
    recorded_calls = baseline.get("sequential_distance_calls")
    more_calls = (
        recorded_calls is not None
        and result.sequential_distance_calls > recorded_calls
    )
    verdict = {
        "schema": "repro-bench-ratchet/v1",
        "baseline_qps": baseline["qps"],
        "current_qps": result.engine_qps,
        "floor_qps": floor,
        "max_regression": args.max_regression,
        "ratio": (
            result.engine_qps / baseline["qps"] if baseline["qps"] else 0.0
        ),
        "baseline_distance_calls": recorded_calls,
        "current_distance_calls": result.sequential_distance_calls,
        "results_identical": result.results_identical,
        "passed": bool(
            not regressed and not more_calls and result.results_identical
        ),
        "current": result.to_dict(),
    }
    if args.write:
        with open(args.write, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.as_json:
        print(json.dumps(verdict, indent=2))
    else:
        status = "PASS" if verdict["passed"] else "FAIL"
        print(
            f"ratchet {status}: {result.engine_qps:.0f} q/s vs baseline "
            f"{baseline['qps']:.0f} q/s "
            f"(floor {floor:.0f}, ratio {verdict['ratio']:.2f}x)"
        )
        if recorded_calls is not None:
            print(
                f"distance calls: {result.sequential_distance_calls:,} vs "
                f"baseline {recorded_calls:,}"
                + (" (MORE)" if more_calls else "")
            )
        if not result.results_identical:
            print("engine answers DIFFER from the sequential baseline")
    return 0 if verdict["passed"] else 1

"""Command-line entry point: regenerate the paper's figures.

Examples::

    repro-bench --list
    repro-bench --figure fig8 --scale 0.1
    repro-bench --all --scale 0.05 --seed 1
    python -m repro.bench --figure fig10 --verify
    repro-bench stats --figure fig8 --scale 0.05
    repro-bench serve --shards 4 --workers 4 --queries 100
    repro-bench ratchet --baseline BENCH_serve_v1.json
    repro-bench coldstart --check BENCH_coldstart_v1.json
    repro-bench recall --check BENCH_recall_v1.json
    repro-bench digest

The ``stats`` subcommand reruns search experiments with per-query
observability on (:class:`~repro.obs.QueryStats`) and prints the
per-bound prune breakdown instead of the cost table (see
``docs/observability.md``).  The ``serve`` subcommand benchmarks the
sharded serving engine's throughput against a sequential baseline (see
``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.bench.figures import ALL_EXPERIMENTS, get_experiment
from repro.bench.report import experiments_md_block, format_stats_result
from repro.bench.runner import run_experiment
from repro.bench.spec import ExperimentSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the evaluation of 'Distance-Based Indexing for "
            "High-Dimensional Metric Spaces' (SIGMOD 1997)."
        ),
    )
    parser.add_argument(
        "--figure",
        action="append",
        dest="figures",
        metavar="ID",
        help="experiment to run (fig4..fig11); repeatable",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment in order"
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="dataset-size multiplier, 1.0 = paper cardinality (default 0.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every answer set against a linear scan (slow)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="also print the EXPERIMENTS.md block for each result",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="append each result as a JSON record to this file",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        # ``repro-bench serve ...``: serving-throughput benchmark
        # (engine vs. sequential baseline; see repro.bench.throughput).
        from repro.bench.throughput import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "ratchet":
        # ``repro-bench ratchet ...``: re-run the pinned serve config
        # and fail on a qps regression against the committed baseline.
        from repro.bench.ratchet import ratchet_main

        return ratchet_main(argv[1:])
    if argv and argv[0] == "coldstart":
        # ``repro-bench coldstart ...``: pickle-load vs .rsx mmap-open
        # wall time and RSS (see repro.bench.coldstart).
        from repro.bench.coldstart import coldstart_main

        return coldstart_main(argv[1:])
    if argv and argv[0] == "recall":
        # ``repro-bench recall ...``: recall-vs-distance-computation
        # curves for the budgeted approximate tier, plus the CI
        # recall ratchet (see repro.bench.recall, docs/approximate.md).
        from repro.bench.recall import recall_main

        return recall_main(argv[1:])
    if argv and argv[0] == "digest":
        # ``repro-bench digest``: one SHA-256 per pinned input over the
        # answers, stats, certificates and evaluated ids (see
        # repro.bench.digest).
        from repro.bench.digest import digest_main

        return digest_main(argv[1:])
    collect_stats = False
    if argv and argv[0] == "stats":
        # ``repro-bench stats ...``: same flags, but range searches run
        # with a QueryStats recorder and the report shows the per-bound
        # prune breakdown (histogram experiments have no searches and
        # are rejected below).
        collect_stats = True
        argv = argv[1:]

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in sorted(ALL_EXPERIMENTS):
            spec = ALL_EXPERIMENTS[experiment_id]
            kind = "search" if isinstance(spec, ExperimentSpec) else "histogram"
            print(f"{experiment_id:>6}  [{kind:>9}]  {spec.title}")
        return 0

    if args.all:
        figure_ids = sorted(ALL_EXPERIMENTS)
    elif args.figures:
        figure_ids = args.figures
    else:
        parser.error("choose --figure ID, --all, or --list")
        return 2  # pragma: no cover - parser.error raises

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    for figure_id in figure_ids:
        try:
            spec = get_experiment(figure_id)
        except ValueError as error:
            parser.error(str(error))
        if collect_stats and not isinstance(spec, ExperimentSpec):
            parser.error(
                f"'{figure_id}' is a histogram experiment; "
                "'repro-bench stats' needs a search experiment"
            )
        result = run_experiment(
            spec,
            scale=args.scale,
            seed=args.seed,
            verify=args.verify,
            progress=progress,
            collect_stats=collect_stats,
        )
        if collect_stats:
            print(format_stats_result(result))
        else:
            print(result.report())
        if args.markdown:
            print()
            print(experiments_md_block(result))
        if args.output:
            with open(args.output, "a") as handle:
                json.dump(result.to_dict(), handle)
                handle.write("\n")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

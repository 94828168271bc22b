"""Command-line entry point for the correctness tooling.

Usage::

    python -m repro.check lint [paths...] [--select RC001,RC002] [--json]
    python -m repro.check invariants [--seed N] [--size N] [--only Cls] [--json]
    python -m repro.check concurrency [paths...] [--json] [--graph FILE]
    python -m repro.check all [--json]

``concurrency`` combines the static lock rules (RC010-RC012), the
interprocedural lock-order graph, and a dynamic smoke run that serves a
small replicated deployment under instrumented locks and fails on any
observed lock-order inversion.

Exit codes: 0 when clean, 1 when any finding or violation is reported,
2 on usage errors (argparse's convention).  Also installed as the
``repro-check`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from repro.check.invariants import (
    Violation,
    verify_breaker_machine,
    verify_structure,
)
from repro.check.lint import LintFinding, run_lint

#: Default lint target: the installed ``repro`` package itself.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _parse_select(value: Optional[str]) -> Optional[frozenset[str]]:
    if value is None:
        return None
    return frozenset(
        code.strip().upper() for code in value.split(",") if code.strip()
    )


def run_lint_command(
    paths: Sequence[str],
    select: Optional[str] = None,
    as_json: bool = False,
    out=sys.stdout,
) -> int:
    """Run the AST lint; returns the process exit code."""
    targets = [Path(p) for p in paths] if paths else [_PACKAGE_ROOT]
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
    findings: list[LintFinding] = run_lint(
        targets, select=_parse_select(select), root=Path.cwd()
    )
    if as_json:
        json.dump(
            [finding.__dict__ for finding in findings], out, indent=2
        )
        out.write("\n")
    else:
        for finding in findings:
            print(finding.format(), file=out)
        print(
            f"lint: {len(findings)} finding(s) in {len(targets)} path(s)",
            file=out,
        )
    return 1 if findings else 0


def run_invariants_command(
    seed: int = 0,
    size: int = 48,
    only: Optional[Sequence[str]] = None,
    as_json: bool = False,
    indexes=None,
    out=sys.stdout,
) -> int:
    """Verify structural invariants; returns the process exit code.

    ``indexes`` may supply a prebuilt ``{name: index}`` mapping (used by
    the corruption-injection tests); by default every index class is
    built fresh via :func:`repro.check.builders.build_verification_indexes`.
    """
    extra: dict[str, list[Violation]] = {}
    if indexes is None:
        from repro.check.builders import build_verification_indexes

        try:
            indexes = build_verification_indexes(seed=seed, n=size, only=only)
        except KeyError as exc:
            print(f"error: unknown index class {exc}", file=sys.stderr)
            return 2
        # The breaker state machine has no built structure to walk; its
        # invariant runs as a scripted exercise alongside the indexes.
        if only is None or "CircuitBreaker" in only:
            extra["CircuitBreaker"] = verify_breaker_machine()
        if only is None or "StoreBackedIndex" in only:
            # Every family with a .rsx writer, verified as reopened from
            # its store: the tables a store-backed index searches.
            from repro.check.builders import build_store_backed_indexes

            with tempfile.TemporaryDirectory() as workdir:
                stored = build_store_backed_indexes(workdir, seed=seed, n=size)
                for name, index in stored.items():
                    with index:
                        extra[name] = verify_structure(index)
        if only is None:
            # Persistence coverage: every verification class must have
            # an explicit PERSIST_COVERAGE entry ("supported" or a
            # reason) — silent omission is the violation.
            from repro.persist.serialize import PERSIST_COVERAGE

            extra["PersistCoverage"] = [
                Violation(
                    "persist-coverage",
                    f"PERSIST_COVERAGE[{name!r}]",
                    "index class has no persistence coverage entry; "
                    "declare it supported or record why it is not",
                )
                for name in sorted(indexes)
                if name not in PERSIST_COVERAGE
            ]
        if only and not indexes and not extra:
            print(f"error: no index matched --only {only}", file=sys.stderr)
            return 2
    report: dict[str, list[Violation]] = {}
    for name, index in sorted(indexes.items()):
        report[name] = verify_structure(index)
    report.update(extra)
    total = sum(len(violations) for violations in report.values())
    if as_json:
        json.dump(
            {
                name: [violation.__dict__ for violation in violations]
                for name, violations in report.items()
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        for name, violations in report.items():
            status = "ok" if not violations else f"{len(violations)} violation(s)"
            print(f"{name}: {status}", file=out)
            for violation in violations:
                print(f"  {violation.format()}", file=out)
        if "PersistCoverage" in report:
            from repro.persist.serialize import PERSIST_COVERAGE

            unsupported = {
                name: reason
                for name, reason in sorted(PERSIST_COVERAGE.items())
                if reason != "supported"
            }
            print(
                f"persist coverage: "
                f"{len(PERSIST_COVERAGE) - len(unsupported)} supported, "
                f"{len(unsupported)} unsupported",
                file=out,
            )
            for name, reason in unsupported.items():
                print(f"  {name}: {reason}", file=out)
        print(
            f"invariants: {total} violation(s) across {len(report)} index(es)",
            file=out,
        )
    return 1 if total else 0


#: The static rules the ``concurrency`` verb runs.
_CONCURRENCY_SELECT = frozenset({"RC010", "RC011", "RC012"})


def _lockwatch_smoke() -> dict:
    """Serve a small replicated deployment under instrumented locks.

    Exercises the lock-heavy serving paths — sharded fan-out with a
    failing primary (breaker + failover), the memoizing distance cache,
    and a replica drop/recover cycle — and returns the watcher's report.
    """
    import numpy as np

    from repro.check.lockwatch import instrument
    from repro.metric import L2
    from repro.serve import Query, QueryEngine, ShardManager
    from repro.serve.cache import DistanceCacheMetric

    objects = np.random.default_rng(0).random((48, 4))
    with instrument(scope="repro") as watcher:
        metric = DistanceCacheMetric(L2())
        manager = ShardManager(
            objects, metric, n_shards=3, backend="vpt", rng=1,
            replication_factor=2,
        )

        def drop_primary(qi, shard, attempt, replica):
            if replica == 0 and qi == 0:
                raise RuntimeError("lockwatch smoke: primary down")

        queries = [Query.range(objects[0], 0.5), Query.knn(objects[1], 5)]
        with QueryEngine(manager, workers=4, fault_hook=drop_primary) as engine:
            engine.run_batch(queries)
        manager.drop_replica(0, 1)
        manager.recover(rng=2)
    return watcher.report()


def run_concurrency_command(
    paths: Sequence[str],
    as_json: bool = False,
    graph: Optional[str] = None,
    out=sys.stdout,
) -> int:
    """Static lock rules + lock graph + dynamic lockwatch smoke."""
    from repro.check.concurrency import build_lock_graph

    targets = [Path(p) for p in paths] if paths else [_PACKAGE_ROOT]
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
    findings = run_lint(targets, select=_CONCURRENCY_SELECT, root=Path.cwd())
    lock_graph = build_lock_graph(targets, root=Path.cwd())
    watch = _lockwatch_smoke()
    inversions = watch["inversions"]
    payload = {
        "findings": [finding.__dict__ for finding in findings],
        "lock_graph": lock_graph,
        "lockwatch": watch,
    }
    if graph is not None:
        Path(graph).write_text(json.dumps(payload, indent=2) + "\n")
    if as_json:
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for finding in findings:
            print(finding.format(), file=out)
        print(
            f"concurrency: {len(findings)} static finding(s), "
            f"{len(lock_graph['edges'])} lock-order edge(s), "
            f"{len(lock_graph['cycles'])} static cycle(s)",
            file=out,
        )
        for component in inversions:
            print(f"  runtime inversion over {', '.join(component)}", file=out)
        for hold in watch["long_holds"]:  # advisory: scheduler noise
            print(
                f"  long hold: {hold['lock']} {hold['hold_s']:.3f}s",
                file=out,
            )
        print(
            f"lockwatch: {len(watch['locks'])} lock(s) watched, "
            f"{len(inversions)} inversion(s)",
            file=out,
        )
    failed = bool(findings or lock_graph["cycles"] or inversions)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static lint + structural invariant verifier "
        "for the repro index family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_parser = sub.add_parser("lint", help="run the AST lint rules")
    lint_parser.add_argument(
        "paths", nargs="*", help="files/directories (default: the repro package)"
    )
    lint_parser.add_argument(
        "--select", help="comma-separated rule codes to run (e.g. RC001,RC003)"
    )
    lint_parser.add_argument("--json", action="store_true", dest="as_json")

    inv_parser = sub.add_parser(
        "invariants", help="build every index class and verify its structure"
    )
    inv_parser.add_argument("--seed", type=int, default=0)
    inv_parser.add_argument(
        "--size", type=int, default=48, help="dataset size per index"
    )
    inv_parser.add_argument(
        "--only",
        action="append",
        help="verify only this index class (repeatable)",
    )
    inv_parser.add_argument("--json", action="store_true", dest="as_json")

    conc_parser = sub.add_parser(
        "concurrency",
        help="lock rules (RC010-RC012), lock-order graph, lockwatch smoke",
    )
    conc_parser.add_argument(
        "paths", nargs="*", help="files/directories (default: the repro package)"
    )
    conc_parser.add_argument("--json", action="store_true", dest="as_json")
    conc_parser.add_argument(
        "--graph", help="write the combined report JSON to this path"
    )

    all_parser = sub.add_parser("all", help="run both layers")
    all_parser.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)
    if args.command == "lint":
        return run_lint_command(
            args.paths, select=args.select, as_json=args.as_json
        )
    if args.command == "invariants":
        return run_invariants_command(
            seed=args.seed, size=args.size, only=args.only, as_json=args.as_json
        )
    if args.command == "concurrency":
        return run_concurrency_command(
            args.paths, as_json=args.as_json, graph=args.graph
        )
    lint_code = run_lint_command([], as_json=args.as_json)
    invariant_code = run_invariants_command(as_json=args.as_json)
    return max(lint_code, invariant_code)


if __name__ == "__main__":
    sys.exit(main())

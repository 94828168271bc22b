#!/usr/bin/env python3
"""Layered performance benchmark for the metric-space index library.

Run from the repository root::

    python3 perfbench/run.py --workload clustered-mvpt --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/README.md``).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit status is non-zero when any answer fails its
oracle check, or when a traced run's span leaves its parent.  The
library is imported from ``src/`` next to this directory, so the run
fails early when the sources are absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    run = measure.traced if args.trace else measure.end_to_end
    outcome = run(workload, args.seconds, OUT_DIR)
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'end-to-end'} run")
    for note in outcome["notes"]:
        print(f"  {note}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    for error in outcome["errors"][:20]:
        print(f"  CHECK FAILED: {error}")
    correct = not outcome["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the dynatrack command-line pipelines.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

One run of one workload:

1. builds the workload's input from the seed, before any timing;
2. replays the workload's subcommands in process with a span around each
   layer call (``replay.py``); the replay's output bytes are the reference
   that every CLI output must equal, and for the default seed they must
   also match the digests in ``digests.json``;
3. runs rounds of ``--version`` (interpreter start plus every import the
   CLI makes: the set-up each call pays), track, events, render and sweep,
   each as a fresh ``python -m dynatrack`` process, in a closed loop with
   one client and no threads for S seconds, with a run of the fixed
   ``yardstick.py`` before the first round and after each round; each
   command's wall time is divided by the mean of the two yardstick times
   around its round, and the reported time is the trimmed mean of these
   ratios times the yardstick's nominal time (``bench.YARDSTICK_S``), so
   that a host that slows down or speeds up moves it little;
4. runs ``dynatrack oracle`` and ``dynatrack track`` on a small planted
   instance for x = 0..3; their documents must be byte-identical.

An operation is one CLI process or one comparison; it fails on a non-zero
exit or an output that differs from its reference. The last line on
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. ``--workload all`` runs every workload and reports
both sets. Metadata, samples, metrics and spans of each run go to
``.perfbench-work/<workload>-<size>-seed<seed>-trace<t>.json``; ``layers.json``
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _stop(signum, _frame):
    # Unwinds through the cleanup that ends a running CLI process.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(
        description="Benchmark of the dynatrack CLI pipelines."
    )
    parser.add_argument("--workload", default="all", help="a workload name or all")
    parser.add_argument("--seed", type=int, help="default: 0, whose outputs have recorded digests")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every input, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    package = SRC / "dynatrack"
    if not (package / "__init__.py").is_file():
        print(f"error: no dynatrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(args.workload, args.seed, args.seconds, args.trace, args.size)


if __name__ == "__main__":
    sys.exit(main())

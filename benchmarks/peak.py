#!/usr/bin/env python3
"""Wall time, peak RSS and minor page faults of one dynatrack command.

    python3 benchmarks/peak.py [-n N] [--src DIR ...] -- events --result doc.json

Runs ``python -m dynatrack ARGS`` N times per source tree, each time as a
fresh process spawned from this small parent (so that the child's
``ru_maxrss`` is its own), alternating between the trees given with
``--src`` (default: this checkout's ``src``) and reversing their order
every other round, since the second process of a round tends to run
faster. Prints one JSON line per tree: the median wall time,
``ru_maxrss`` in MiB and ``ru_minflt``, all from ``os.wait4``, and in
how many rounds the tree ran faster than the first one. The command's
standard output goes to /dev/null.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("-n", type=int, default=5, help="runs per tree")
parser.add_argument("--src", action="append", help="a src directory (repeatable)")
parser.add_argument("args", nargs=argparse.REMAINDER, help="-- and the command")
opts = parser.parse_args()
trees = opts.src or [str(Path(__file__).resolve().parent.parent / "src")]
argv = [sys.executable, "-m", "dynatrack", *opts.args[opts.args[:1] == ["--"]:]]
runs: dict[str, list[tuple[float, float, int]]] = {tree: [] for tree in trees}
for i in range(opts.n):
    for tree in trees[:: -1 if i % 2 else 1]:
        env = dict(os.environ, PYTHONPATH=tree, PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, argv, env,
            file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status):
            sys.exit(f"{tree}: exit code {os.waitstatus_to_exitcode(status)}")
        runs[tree].append((wall, usage.ru_maxrss / 1024, usage.ru_minflt))
first = runs[trees[0]]
for tree, rows in runs.items():
    wall, rss, faults = (statistics.median(column) for column in zip(*rows))
    faster = sum(row[0] < base[0] for row, base in zip(rows, first))
    print(json.dumps({"src": tree, "runs": len(rows), "wall_s": round(wall, 4),
                      "peak_mib": round(rss, 1), "minflt": int(faults),
                      "faster_than_first": faster}))

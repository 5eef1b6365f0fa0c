"""Fixed pure-Python work: the benchmark's yardstick for machine speed.

The benchmark runs this script as a fresh process before every round of
CLI commands it times, and scales the commands' wall times by how long
it took just before and just after the round (see ``bench.closed_loop``). It imports
nothing from dynatrack, so no change to the package moves it. Its mix is
the package's own: string members counted into dictionaries, set
intersections, sorting and JSON encoding.

It prints one checksum line; the same on every run.
"""

from __future__ import annotations

import hashlib
import json

MEMBERS = 6000
CLUSTERS = 120
STEPS = 8


def checksum() -> str:
    state = 1
    names = [f"m{m}" for m in range(MEMBERS)]
    assign = [m % CLUSTERS for m in range(MEMBERS)]
    total = 0
    rows = []
    for _step in range(STEPS):
        before = {}
        for name, c in zip(names, assign):
            before.setdefault(c, set()).add(name)
        for m in range(MEMBERS):
            state = (state * 1103515245 + 12345) % 2**31
            if state % 50 == 0:
                assign[m] = state % CLUSTERS
        after = {}
        for name, c in zip(names, assign):
            after.setdefault(c, set()).add(name)
        counts = {}
        for c, members in before.items():
            for d, others in after.items():
                shared = len(members & others)
                if shared:
                    counts[(c, d)] = shared
        total += sum(counts.values())
        rows.append(sorted(sorted(members) for members in after.values()))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return f"{total} {digest[:16]}"


if __name__ == "__main__":
    print(checksum())

"""Seeded input builders for the benchmark workloads.

Every builder is a pure function of its arguments: the same seed gives
the same sequence, byte for byte, on every machine (CPython's
``random.Random`` is stable across platforms).
"""

from __future__ import annotations

import json
import random

from dynatrack import PlannedEvent, PlantedDc, ScenarioSpec

# Disturbance kinds, spread evenly over the groups; "none" leaves a group
# undisturbed.
DISTURBANCES = ("splinter", "transition", "split", "merge", "none")


def churn_clusters(
    t_total: int, n_members: int, n_clusters: int, seed: int
) -> list[list[list[str]]]:
    """Nested cluster lists of ``synthetic_sequence`` in
    ``benchmarks/compare_backends.py``, for the same (T, N, G, seed).

    N members start round-robin in G clusters; at every step each member
    moves to a uniformly drawn cluster with probability 0.02. Copied
    rather than imported so a change to that script cannot change the
    benchmark's inputs; the benchmark's tests check that both agree.
    """
    rng = random.Random(seed)
    assign = [m % n_clusters for m in range(n_members)]
    data = []
    for _ in range(t_total):
        for m in range(n_members):
            if rng.random() < 0.02:
                assign[m] = rng.randrange(n_clusters)
        clusters: list[list[str]] = [[] for _ in range(n_clusters)]
        for m, c in enumerate(assign):
            clusters[c].append(f"m{m}")
        data.append([c for c in clusters if c])
    return data


def planted_spec(
    seed: int,
    groups: int,
    t_total: int,
    size_range: tuple[int, int],
    turnover: float,
) -> ScenarioSpec:
    """Scenario with `groups` planted groups and at most one disturbance each.

    Groups are born in the first quarter of the sequence and end in the
    last quarter. Sizes, birth and end times, and disturbance kinds are
    spread evenly over their ranges and then shuffled, so that the seed
    changes where work falls but hardly how much there is. Merge targets
    are drawn only among groups that do not merge away themselves and are
    alive at the merge snapshot, which is what ``generate`` requires.
    """
    rng = random.Random(seed)
    lo, hi = size_range
    first_end = 3 * t_total // 4
    sizes = [lo + (hi - lo) * g // max(1, groups - 1) for g in range(groups)]
    starts = [g * max(1, t_total // 4) // groups for g in range(groups)]
    ends = [first_end + g * (t_total - first_end) // groups for g in range(groups)]
    offset = rng.randrange(len(DISTURBANCES))
    kinds = [DISTURBANCES[(g + offset) % len(DISTURBANCES)] for g in range(groups)]
    for column in (sizes, starts, ends, kinds):
        rng.shuffle(column)
    dcs = [PlantedDc(size=n, start=s, end=e) for n, s, e in zip(sizes, starts, ends)]
    staying = [g for g, kind in enumerate(kinds) if kind != "merge"]
    events = []
    for g, kind in enumerate(kinds):
        dc = dcs[g]
        if kind in ("splinter", "transition"):
            duration = rng.randint(1, 3) if kind == "splinter" else rng.randint(2, 4)
            events.append(
                PlannedEvent(
                    kind=kind,
                    dc=g,
                    start=rng.randint(dc.start + 1, dc.end - duration),
                    duration=duration,
                    fraction=round(rng.uniform(0.2, 0.45), 3),
                )
            )
        elif kind == "split":
            events.append(
                PlannedEvent(
                    kind=kind,
                    dc=g,
                    start=rng.randint(dc.start + 1, dc.end),
                    fraction=round(rng.uniform(0.3, 0.5), 3),
                )
            )
        elif kind == "merge":
            start = rng.randint(dc.start + 1, dc.end)
            targets = [h for h in staying if dcs[h].start <= start <= dcs[h].end]
            if targets:
                events.append(
                    PlannedEvent(kind=kind, dc=g, start=start, into=rng.choice(targets))
                )
    return ScenarioSpec(
        snapshots=t_total,
        dcs=tuple(dcs),
        events=tuple(events),
        turnover=turnover,
        seed=seed,
    )


def sequence_bytes(clusters: list[list[list[str]]]) -> bytes:
    """JSON input document for `dynatrack track`/`sweep` (see the README).

    Encoded here rather than with the package's own writer, so the input
    bytes stay fixed whatever the package under test does.
    """
    doc = {"snapshots": [{"clusters": [sorted(c) for c in snap]} for snap in clusters]}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()

"""Shared test utilities: random instances, label comparison, and the
member-set queries that only tests need."""

from __future__ import annotations

import math
import random

from dynatrack import (
    ClusteringSequence,
    ClusterRef,
    DynamicClustering,
    LifecycleEvent,
    sequence_from_lists,
    track,
)
from dynatrack.alluvial import PALETTE, AlluvialLayout
from inputs import churn_clusters


def churn_sequence(
    t_total: int, n_members: int, n_clusters: int, seed: int = 0
) -> ClusteringSequence:
    """The benchmark's seeded churn sequence (`perfbench/inputs.py`): N
    members start round-robin in G clusters, and at every step each moves
    to a uniformly drawn cluster with probability 0.02."""
    return sequence_from_lists(churn_clusters(t_total, n_members, n_clusters, seed))


def cluster_members(seq: ClusteringSequence, ref: ClusterRef) -> frozenset[str]:
    return frozenset(seq.snapshots[ref.time].clusters[ref.cluster])


def snapshot_members(seq: ClusteringSequence, t: int) -> frozenset[str]:
    """Every member present (in any cluster) at snapshot t."""
    return frozenset().union(*seq.snapshots[t].clusters)


def subsequence(seq: ClusteringSequence, end: int) -> ClusteringSequence:
    """Prefix of the sequence containing snapshots 0..end-1."""
    if not (1 <= end <= len(seq)):
        raise IndexError(f"prefix length out of range (T={len(seq)}, got {end})")
    return ClusteringSequence(
        snapshots=seq.snapshots[:end], labels=seq.labels[:end]
    )


def dc_ids(result: DynamicClustering) -> list[int]:
    """Every DC id in the label columns, ascending."""
    return sorted({dc for column in result.labels for dc in column})


def presence(result: DynamicClustering, dc: int) -> tuple[int, ...]:
    """The snapshots, ascending, where some cluster carries DC id `dc`."""
    return tuple(t for t, column in enumerate(result.labels) if dc in column)


def dc_clusters(result: DynamicClustering, dc: int, t: int) -> tuple[int, ...]:
    """The indices, ascending, of the clusters of snapshot t labelled `dc`."""
    return tuple(a for a, label in enumerate(result.labels[t]) if label == dc)


def dc_members(
    seq: ClusteringSequence, result: DynamicClustering, dc: int, t: int
) -> frozenset[str]:
    """The members of DC `dc`'s clusters at snapshot t."""
    clusters = seq.snapshots[t].clusters
    return frozenset().union(*(clusters[a] for a in dc_clusters(result, dc, t)))


def residents(seq: ClusteringSequence, i: int, j: int) -> frozenset[str]:
    """Members present (in any cluster) in both snapshot i and snapshot j."""
    t = len(seq)
    if not (0 <= i < t) or not (0 <= j < t):
        raise IndexError(f"snapshot index out of range (T={t}, got i={i}, j={j})")
    if i == j:
        return snapshot_members(seq, i)
    return snapshot_members(seq, i) & snapshot_members(seq, j)


def autocorrelation(
    seq: ClusteringSequence, result: DynamicClustering, dc: int, j: int
) -> float | None:
    """Jaccard overlap of DC `dc`'s members between its j-th and (j+1)-th
    snapshot of presence.

    Returns None when the two presences are not at consecutive snapshots
    (creation/destruction pairs are excluded from consistency).
    """
    times = presence(result, dc)
    if not (0 <= j < len(times) - 1):
        raise IndexError(f"local index out of range: {j}")
    i, nxt = times[j], times[j + 1]
    if nxt != i + 1:
        return None
    a = dc_members(seq, result, dc, i)
    b = dc_members(seq, result, dc, nxt)
    return len(a & b) / len(a | b)


def reference_events(
    result: DynamicClustering, seq: ClusteringSequence
) -> list[LifecycleEvent]:
    """Life-cycle events computed on member string sets, the way
    `classify_events` defined them before it read the count tables: the
    reference that the table-based classifier is compared against."""
    t_total = len(seq)
    where_memo: dict[int, dict[str, int]] = {}

    def where(i: int) -> dict[str, int]:
        if i not in where_memo:
            where_memo[i] = {
                m: alpha
                for alpha, members in enumerate(seq.snapshots[i].clusters)
                for m in members
            }
        return where_memo[i]

    def spread(kind, time, at, dc_id, members):
        found = {where(at)[m] for m in members if m in where(at)}
        if len(found) < 2:
            return None
        dcs = {result.labels[at][a] for a in found}
        if len(dcs | {dc_id}) < 2:
            return None
        return LifecycleEvent(kind, time, dc_id, related=tuple(sorted(dcs - {dc_id})))

    events: list[LifecycleEvent] = []
    for dc_id in dc_ids(result):
        times = presence(result, dc_id)
        members = {t: dc_members(seq, result, dc_id, t) for t in times}
        first = times[0]
        last = times[-1]
        if first >= 1 and not (members[first] & snapshot_members(seq, first - 1)):
            events.append(LifecycleEvent("birth", first, dc_id))
        if last + 1 < t_total and not (members[last] & snapshot_members(seq, last + 1)):
            events.append(LifecycleEvent("death", last + 1, dc_id))
        for i, nxt in zip(times, times[1:]):
            if nxt != i + 1:
                continue
            delta = len(members[nxt]) - len(members[i])
            if delta > 0:
                events.append(LifecycleEvent("growth", nxt, dc_id, delta=delta))
            elif delta < 0:
                events.append(LifecycleEvent("shrinkage", nxt, dc_id, delta=delta))
        for i in times:
            if i + 1 < t_total:
                ev = spread("split", i + 1, i + 1, dc_id, members[i])
                if ev is not None:
                    events.append(ev)
            if i >= 1:
                ev = spread("merge", i, i - 1, dc_id, members[i])
                if ev is not None:
                    events.append(ev)
    return sorted(events, key=lambda ev: (ev.time, ev.dc, ev.kind, ev.related))


def random_sequence(
    rng: random.Random,
    max_t: int = 6,
    max_members: int = 20,
    max_clusters: int = 4,
    presence: float = 0.8,
) -> ClusteringSequence:
    """Small random instance: per snapshot, a random subset of a member
    pool split into up to `max_clusters` non-empty clusters."""
    t_total = rng.randint(1, max_t)
    pool = [f"m{i}" for i in range(rng.randint(1, max_members))]
    data = []
    for _ in range(t_total):
        present = [m for m in pool if rng.random() < presence]
        rng.shuffle(present)
        if not present:
            data.append([])
            continue
        k = rng.randint(1, min(max_clusters, len(present)))
        cuts = sorted(rng.sample(range(1, len(present)), k - 1)) if k > 1 else []
        clusters, prev = [], 0
        for cut in cuts + [len(present)]:
            clusters.append(present[prev:cut])
            prev = cut
        data.append(clusters)
    return sequence_from_lists(data)


def canonical(
    seq: ClusteringSequence,
    labels: list[list[int]],
    up_to_time: int | None = None,
) -> list[list[int]]:
    """Renumber the label columns' ids by first appearance, optionally over
    a prefix only; the columns must label every cluster of that prefix."""
    end = len(seq) if up_to_time is None else up_to_time + 1
    columns = labels[:end]
    assert list(map(len, columns)) == [len(s) for s in seq.snapshots[:end]]
    mapping: dict[int, int] = {}
    return [[mapping.setdefault(dc, len(mapping)) for dc in col] for col in columns]


def shuffled_labels(
    seq: ClusteringSequence, x: int, rng: random.Random
) -> list[list[int]]:
    """The label columns of `track(seq, x)` run on a copy of `seq` whose
    every snapshot lists its clusters in a random order, put back in
    `seq`'s cluster order."""
    perms = [rng.sample(range(len(snap)), len(snap)) for snap in seq.snapshots]
    data = [
        [snap.clusters[a] for a in perm] for snap, perm in zip(seq.snapshots, perms)
    ]
    labels = track(sequence_from_lists(data, seq.labels), x).labels
    columns = []
    for column, perm in zip(labels, perms):
        back = [0] * len(perm)
        for label, a in zip(column, perm):
            back[a] = label
        columns.append(back)
    return columns


def same_partition(
    seq: ClusteringSequence,
    a: list[list[int]],
    b: list[list[int]],
    up_to_time: int | None = None,
) -> bool:
    return canonical(seq, a, up_to_time) == canonical(seq, b, up_to_time)


def inject_one_shot_members(
    seq: ClusteringSequence, rng: random.Random, max_share: float = 0.5
) -> ClusteringSequence:
    """Add members that exist in exactly one snapshot to existing clusters."""
    data = []
    for t, snap in enumerate(seq.snapshots):
        row = [list(c) for c in snap.clusters]
        if row:
            budget = int(len(snapshot_members(seq, t)) * max_share)
            for j in range(rng.randint(0, budget) if budget else 0):
                row[rng.randrange(len(row))].append(f"one_shot_{t}_{j}")
        data.append(row)
    return sequence_from_lists(data)


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return s[:-3] if s.endswith(".00") else s


def reference_svg(layout: AlluvialLayout, block_width: float = 20.0) -> str:
    """`layout_to_svg` as it was before it reused formatted coordinates:
    every number is formatted where it is written. The reference that the
    writer is compared against, byte for byte."""
    span = 3.0 * block_width
    n_cols = len(layout.blocks)
    height = max(
        (col[-1].y + col[-1].size for col in layout.blocks if col), default=0.0
    )
    width = n_cols * block_width + max(n_cols - 1, 0) * span
    if not math.isfinite(2.0 * (width + height)):
        raise OverflowError(
            f"the diagram's extent ({width!r} x {height!r}) overflows a float"
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        ),
        '<g stroke="none">',
    ]

    def col_x(i: int) -> float:
        return i * (block_width + span)

    for flow in layout.flows:
        x0 = col_x(flow.time) + block_width
        x1 = col_x(flow.time + 1)
        xm = (x0 + x1) / 2.0
        y0a = flow.src_y
        y0b = flow.src_y + flow.magnitude
        y1a = flow.dst_y
        y1b = flow.dst_y + flow.magnitude
        src_dc = layout.blocks[flow.time][flow.src_cluster].dc
        color = PALETTE[src_dc % len(PALETTE)]
        d = (
            f"M {_fmt(x0)} {_fmt(y0a)} "
            f"Q {_fmt(xm)} {_fmt(y0a)} {_fmt(xm)} {_fmt((y0a + y1a) / 2.0)} "
            f"Q {_fmt(xm)} {_fmt(y1a)} {_fmt(x1)} {_fmt(y1a)} "
            f"L {_fmt(x1)} {_fmt(y1b)} "
            f"Q {_fmt(xm)} {_fmt(y1b)} {_fmt(xm)} {_fmt((y0b + y1b) / 2.0)} "
            f"Q {_fmt(xm)} {_fmt(y0b)} {_fmt(x0)} {_fmt(y0b)} Z"
        )
        parts.append(f'<path d="{d}" fill="{color}" fill-opacity="0.4"/>')

    for i, col in enumerate(layout.blocks):
        x = col_x(i)
        for b in col:
            color = PALETTE[b.dc % len(PALETTE)]
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(b.y)}" '
                f'width="{_fmt(block_width)}" height="{_fmt(b.size)}" '
                f'fill="{color}">'
                f"<title>t={b.time} cluster={b.cluster} dc={b.dc} "
                f"size={b.size}</title></rect>"
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Persistent-group results and their analysis.

Holds the final outcome of a tracking run (every cluster mapped to a
dynamic-cluster id, plus the per-DC presence and size history) and the
read-only analyses on top of it: life-cycle event classification,
total membership consistency, and summary statistics. The analyses read
the shared-member count tables of neighbouring snapshots and the cluster
sizes, never the member strings.
All functions here are pure; results are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import relations
from .model import ClusteringSequence

__all__ = [
    "DcSeries",
    "DynamicClustering",
    "clustering_from_labels",
    "LifecycleEvent",
    "classify_events",
    "total_consistency",
    "SummaryStats",
    "summary_stats",
]


@dataclass(frozen=True)
class DcSeries:
    """One dynamic cluster: where it exists and how many members it has there."""

    presence: tuple[int, ...]  # strictly increasing snapshot indices
    clusters_by_time: dict[int, tuple[int, ...]]
    size_by_time: dict[int, int]

    @property
    def lifespan(self) -> int:
        return len(self.presence)

    def member_snapshots(self) -> int:
        """Total member-presence count over the DC's lifetime."""
        return sum(self.size_by_time.values())


@dataclass(frozen=True)
class DynamicClustering:
    """Final association of every cluster to a dynamic-cluster id.

    `labels` holds one column per snapshot: labels[t][a] is the DC id of
    cluster a of snapshot t. `seq` is the labelled sequence.
    `pair_triples[i]` holds the shared-member count triples between
    snapshot i and i+1, as `relations.pair_counts` returns them, or the
    whole list is None when no tables were handed on; a tracked result
    shares the tables its relation cache built. Neither takes part in
    comparisons.
    """

    labels: list[list[int]]
    dcs: dict[int, DcSeries]
    x_used: int
    seq: ClusteringSequence | None = field(default=None, compare=False, repr=False)
    pair_triples: list[list[tuple[int, int, int]]] | None = field(
        default=None, compare=False, repr=False
    )

    def counts_between(self, i: int) -> list[tuple[int, int, int]]:
        """Count triples between snapshot i and i+1.

        Without `pair_triples`, every table is computed from `seq` on
        first use and kept on the result.
        """
        tables = self.pair_triples
        if tables is None:
            if self.seq is None:
                raise ValueError("the result does not carry its sequence")
            tables = relations.count_tables(self.seq)
            object.__setattr__(self, "pair_triples", tables)
        return tables[i]


def clustering_from_labels(
    seq: ClusteringSequence,
    labels: list[list[int]],
    x: int,
    pair_triples: list[list[tuple[int, int, int]]] | None = None,
) -> DynamicClustering:
    """Full result from DC label columns, labels[t][a] for cluster a of
    snapshot t.

    DCs are keyed in ascending id order, which is the order that sums
    over them (such as `total_consistency`) run in. `pair_triples` hands
    on count tables already built for `seq` (see `DynamicClustering`).
    """
    # One pass in snapshot-then-cluster order gives each DC its times and
    # clusters ascending; the clusters of one snapshot are disjoint, so
    # sizes add up.
    found: dict[int, tuple[dict[int, tuple[int, ...]], dict[int, int]]] = {}
    for t, (column, snap) in enumerate(zip(labels, seq.snapshots)):
        for a, (dc, members) in enumerate(zip(column, snap.clusters)):
            entry = found.get(dc)
            if entry is None:
                entry = found[dc] = ({}, {})
            clusters, sizes = entry
            if t in clusters:
                clusters[t] += (a,)
                sizes[t] += len(members)
            else:
                clusters[t] = (a,)
                sizes[t] = len(members)
    dcs = {dc: DcSeries(tuple(c), c, s) for dc, (c, s) in sorted(found.items())}
    copied = [column[:] for column in labels]
    return DynamicClustering(
        labels=copied, dcs=dcs, x_used=x, seq=seq, pair_triples=pair_triples
    )


@dataclass(frozen=True)
class LifecycleEvent:
    """One life-cycle event of a dynamic cluster.

    kind is one of birth, death, growth, shrinkage, split, merge. For
    split/merge, `related` lists the other dynamic clusters involved; for
    growth/shrinkage `delta` is the signed member-count change.
    """

    kind: str
    time: int
    dc: int
    related: tuple[int, ...] = ()
    delta: int = 0


def _sort_key(ev: LifecycleEvent) -> tuple:
    return (ev.time, ev.dc, ev.kind, ev.related)


def classify_events(
    result: DynamicClustering, seq: ClusteringSequence
) -> list[LifecycleEvent]:
    """Classify all life-cycle events of a tracking result.

    Events are read from the result's count tables, cluster sizes and
    labels. Birth requires that no member of the DC's first clusters was
    present at the previous snapshot, that is no count cell enters them;
    death that no cell leaves its last clusters. Both are therefore
    optional, and undefined at the sequence boundaries. Split (merge)
    fires when the cells leaving (entering) a DC's clusters reach several
    clusters at the next (previous) snapshot that, with the DC itself,
    belong to at least two distinct DCs. Growth and shrinkage are
    reported per consecutive presence pair with non-zero size change;
    events are not mutually exclusive. A result of another sequence
    than `seq` raises ValueError, and so does one that carries neither
    its sequence nor its tables when a table is needed.
    """
    if result.seq is not None and result.seq is not seq:
        raise ValueError("the result was built for a different sequence")
    t_total = len(seq)
    labels = result.labels
    # Per snapshot pair i: the clusters at i+1 that each cluster at i
    # shares members with, and the clusters at i each cluster at i+1
    # shares members with.
    reach_next: list[dict[int, list[int]]] = []
    reach_prev: list[dict[int, list[int]]] = []
    for i in range(t_total - 1):
        out: dict[int, list[int]] = {}
        back: dict[int, list[int]] = {}
        for ca, cb, _n in result.counts_between(i):
            out.setdefault(ca, []).append(cb)
            back.setdefault(cb, []).append(ca)
        reach_next.append(out)
        reach_prev.append(back)
    events: list[LifecycleEvent] = []
    for dc_id in sorted(result.dcs):
        series = result.dcs[dc_id]
        presence = series.presence
        clusters = series.clusters_by_time
        sizes = series.size_by_time
        first = presence[0]
        last = presence[-1]
        if first >= 1 and not _reached(reach_prev[first - 1], clusters[first]):
            events.append(LifecycleEvent("birth", first, dc_id))
        if last + 1 < t_total and not _reached(reach_next[last], clusters[last]):
            events.append(LifecycleEvent("death", last + 1, dc_id))
        for j in range(len(presence) - 1):
            i, nxt = presence[j], presence[j + 1]
            if nxt != i + 1:
                continue
            delta = sizes[nxt] - sizes[i]
            if delta > 0:
                events.append(LifecycleEvent("growth", nxt, dc_id, delta=delta))
            elif delta < 0:
                events.append(LifecycleEvent("shrinkage", nxt, dc_id, delta=delta))
        for i in presence:
            if i + 1 < t_total:
                related = _others(reach_next[i], clusters[i], labels[i + 1], dc_id)
                if related:
                    events.append(LifecycleEvent("split", i + 1, dc_id, related))
            if i >= 1:
                related = _others(reach_prev[i - 1], clusters[i], labels[i - 1], dc_id)
                if related:
                    events.append(LifecycleEvent("merge", i, dc_id, related))
    return sorted(events, key=_sort_key)


def _reached(links: dict[int, list[int]], clusters: tuple[int, ...]):
    """The distinct clusters that `links` joins to any of `clusters`."""
    if len(clusters) == 1:
        return links.get(clusters[0], ())
    out: set[int] = set()
    for c in clusters:
        out.update(links.get(c, ()))
    return out


def _others(links, clusters, column, dc_id) -> tuple[int, ...]:
    """The DCs other than `dc_id`, by label `column`, of the clusters that
    `links` joins to `clusters`; () unless there are several such clusters."""
    reached = _reached(links, clusters)
    if len(reached) < 2:
        return ()
    return tuple(sorted({column[a] for a in reached} - {dc_id}))


def total_consistency(
    result: DynamicClustering, mode: str = "all_members"
) -> float | None:
    """Average per-DC membership auto-correlation over all consecutive
    presence pairs; None when no DC has such a pair.

    mode "all_members" uses the plain Jaccard union denominator;
    "residents_only" restricts each pair's denominator to the members
    present in both snapshots system-wide, so members entering or leaving
    the dataset do not dilute the score.

    Every count comes from the snapshot pair's shared-member table, with
    the DC's clusters A at i and B at i+1: |A∩B| is the sum of the cells
    over A × B, and |A∪B| = |A| + |B| - |A∩B|. Because A holds only
    members present at i and B only members present at i+1, the resident
    union is (row sums over A) + (column sums over B) - |A∩B|. The
    residents are those of the snapshots, so the result is expected to
    label every cluster and to carry its sequence, as the results of
    `clustering_from_labels` do; one without tables or `seq` raises
    ValueError.
    """
    if mode not in ("all_members", "residents_only"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    resident = mode == "residents_only"
    # Per snapshot pair: count cells, row sums, column sums.
    lookups: dict[int, tuple[dict, dict, dict]] = {}

    def lookup(i: int) -> tuple[dict, dict, dict]:
        found = lookups.get(i)
        if found is None:
            cells: dict[tuple[int, int], int] = {}
            rows: dict[int, int] = {}
            cols: dict[int, int] = {}
            for ca, cb, n in result.counts_between(i):
                cells[ca, cb] = n
                rows[ca] = rows.get(ca, 0) + n
                cols[cb] = cols.get(cb, 0) + n
            found = lookups[i] = (cells, rows, cols)
        return found

    total = 0.0
    pairs = 0
    for series in result.dcs.values():
        presence = series.presence
        for j in range(len(presence) - 1):
            i, nxt = presence[j], presence[j + 1]
            if nxt != i + 1:
                continue
            cells, rows, cols = lookup(i)
            a = series.clusters_by_time[i]
            b = series.clusters_by_time[nxt]
            shared = sum(cells.get((ca, cb), 0) for ca in a for cb in b)
            if resident:
                union = (
                    sum(rows.get(ca, 0) for ca in a)
                    + sum(cols.get(cb, 0) for cb in b)
                    - shared
                )
            else:
                union = (
                    series.size_by_time[i] + series.size_by_time[nxt] - shared
                )
            pairs += 1
            if union:
                total += shared / union
    if pairs == 0:
        return None
    return total / pairs


@dataclass(frozen=True)
class SummaryStats:
    """Head-count statistics of a dynamic clustering."""

    dc_count: int
    lifespan_histogram: dict[int, int] = field(default_factory=dict)
    mean_lifespan: float | None = None
    weighted_mean_lifespan: float | None = None


def summary_stats(result: DynamicClustering) -> SummaryStats:
    """DC count, lifespan histogram, and (weighted) mean lifespans.

    The weighted mean weights each DC's lifespan by its total
    member-snapshot count: the lifespan of the DC an average member
    resides in.
    """
    if not result.dcs:
        return SummaryStats(dc_count=0)
    lifespans = [s.lifespan for s in result.dcs.values()]
    hist: dict[int, int] = {}
    for ls in lifespans:
        hist[ls] = hist.get(ls, 0) + 1
    weights = [s.member_snapshots() for s in result.dcs.values()]
    weighted = sum(w * ls for w, ls in zip(weights, lifespans)) / sum(weights)
    return SummaryStats(
        dc_count=len(lifespans),
        lifespan_histogram=dict(sorted(hist.items())),
        # statistics.fmean, without importing statistics
        mean_lifespan=math.fsum(lifespans) / len(lifespans),
        weighted_mean_lifespan=weighted,
    )

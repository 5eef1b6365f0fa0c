"""Persistent-group results and their analysis.

Holds the final outcome of a tracking run (every cluster mapped to a
dynamic-cluster id, plus the per-DC presence and member history) and the
read-only analyses on top of it: life-cycle event classification,
total membership consistency, and summary statistics.
All functions here are pure; results are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean

from . import relations
from .model import ClusterRef, ClusteringSequence

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
    """One dynamic cluster: where it exists and what it contains there."""

    presence: tuple[int, ...]  # strictly increasing snapshot indices
    clusters_by_time: dict[int, tuple[int, ...]]
    members_by_time: dict[int, frozenset[str]]

    @property
    def lifespan(self) -> int:
        return len(self.presence)

    def member_snapshots(self) -> int:
        """Total member-presence count over the DC's lifetime."""
        return sum(len(self.members_by_time[t]) for t in self.presence)


@dataclass(frozen=True)
class DynamicClustering:
    """Final association of every cluster to a dynamic-cluster id.

    `seq` is the labelled sequence. `pair_triples[i]` holds the
    shared-member count triples between snapshot i and i+1, as
    `relations.pair_counts` returns them, or None where no table was
    built; a tracked result shares the tables its relation cache built.
    Neither takes part in comparisons.
    """

    labels: dict[ClusterRef, int]
    dcs: dict[int, DcSeries]
    x_used: int
    seq: ClusteringSequence | None = field(default=None, compare=False, repr=False)
    pair_triples: list[list[tuple[int, int, int]] | None] | None = field(
        default=None, compare=False, repr=False
    )

    def counts_between(self, i: int) -> list[tuple[int, int, int]]:
        """Count triples between snapshot i and i+1.

        Tables missing from `pair_triples` are computed from `seq` on
        first use, all at once, and kept on the result.
        """
        tables = self.pair_triples
        if tables is None or tables[i] is None:
            if self.seq is None:
                raise ValueError("the result does not carry its sequence")
            tables = list(tables or [None] * (len(self.seq) - 1))
            indexed = relations.index_sequence(self.seq)
            for j, table in enumerate(tables):
                if table is None:
                    tables[j] = relations.pair_counts(indexed[j], indexed[j + 1])
            object.__setattr__(self, "pair_triples", tables)
        return tables[i]


def clustering_from_labels(
    seq: ClusteringSequence,
    labels: dict[ClusterRef, int],
    x: int,
    pair_triples: list[list[tuple[int, int, int]] | None] | None = None,
) -> DynamicClustering:
    """Full result from a bare cluster-to-id association.

    DCs are keyed in ascending id order, which is the order that sums
    over them (such as `total_consistency`) run in. `pair_triples` hands
    on count tables already built for `seq` (see `DynamicClustering`).
    """
    times: dict[int, dict[int, list[int]]] = {}
    for ref, dc in labels.items():
        times.setdefault(dc, {}).setdefault(ref.time, []).append(ref.cluster)
    dcs: dict[int, DcSeries] = {}
    for dc_id in sorted(times):
        by_time = times[dc_id]
        presence = tuple(sorted(by_time))
        members_by_time = {}
        for t in presence:
            clusters = seq.snapshots[t].clusters
            alphas = by_time[t]
            # Sharing a lone cluster's member set saves a copy per DC and time.
            members_by_time[t] = (
                clusters[alphas[0]]
                if len(alphas) == 1
                else frozenset().union(*(clusters[a] for a in alphas))
            )
        dcs[dc_id] = DcSeries(
            presence=presence,
            clusters_by_time={t: tuple(sorted(by_time[t])) for t in presence},
            members_by_time=members_by_time,
        )
    return DynamicClustering(
        labels=dict(labels), dcs=dcs, x_used=x, seq=seq, pair_triples=pair_triples
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

    Events are evaluated on DC member sets. Birth requires that no member
    of the DC's first member set was present at the previous snapshot;
    death that no member of the last set survives to the next snapshot.
    Both are therefore optional, and undefined at the sequence boundaries.
    Split (merge) fires when a DC's members spread over several clusters
    at the next (previous) snapshot that belong to at least two distinct
    DCs overall. Growth and shrinkage are reported per consecutive
    presence pair with non-zero size change; events are not mutually
    exclusive.
    """
    t_total = len(seq)
    member_maps: dict[int, dict[str, int]] = {}
    events: list[LifecycleEvent] = []
    for dc_id in sorted(result.dcs):
        series = result.dcs[dc_id]
        first = series.presence[0]
        last = series.presence[-1]
        if first >= 1:
            prior = seq.snapshots[first - 1].members
            if not (series.members_by_time[first] & prior):
                events.append(LifecycleEvent("birth", first, dc_id))
        if last + 1 < t_total:
            after = seq.snapshots[last + 1].members
            if not (series.members_by_time[last] & after):
                events.append(LifecycleEvent("death", last + 1, dc_id))
        for j in range(len(series.presence) - 1):
            i, nxt = series.presence[j], series.presence[j + 1]
            if nxt != i + 1:
                continue
            delta = len(series.members_by_time[nxt]) - len(series.members_by_time[i])
            if delta > 0:
                events.append(LifecycleEvent("growth", nxt, dc_id, delta=delta))
            elif delta < 0:
                events.append(LifecycleEvent("shrinkage", nxt, dc_id, delta=delta))
        for i in series.presence:
            if i + 1 < t_total:
                ev = _split_at(result, seq, dc_id, series, i, member_maps)
                if ev is not None:
                    events.append(ev)
            if i >= 1:
                ev = _merge_at(result, seq, dc_id, series, i, member_maps)
                if ev is not None:
                    events.append(ev)
    return sorted(events, key=_sort_key)


def _cluster_of_member(
    seq: ClusteringSequence, i: int, memo: dict[int, dict[str, int]]
) -> dict[str, int]:
    table = memo.get(i)
    if table is None:
        table = {}
        for alpha, members in enumerate(seq.snapshots[i].clusters):
            for m in members:
                table[m] = alpha
        memo[i] = table
    return table


def _split_at(result, seq, dc_id, series, i, memo) -> LifecycleEvent | None:
    where = _cluster_of_member(seq, i + 1, memo)
    hit_clusters = {where[m] for m in series.members_by_time[i] if m in where}
    if len(hit_clusters) < 2:
        return None
    hit_dcs = {result.labels[ClusterRef(i + 1, a)] for a in hit_clusters}
    if len(hit_dcs | {dc_id}) < 2:
        return None
    related = tuple(sorted(hit_dcs - {dc_id}))
    return LifecycleEvent("split", i + 1, dc_id, related=related)


def _merge_at(result, seq, dc_id, series, i, memo) -> LifecycleEvent | None:
    where = _cluster_of_member(seq, i - 1, memo)
    src_clusters = {where[m] for m in series.members_by_time[i] if m in where}
    if len(src_clusters) < 2:
        return None
    src_dcs = {result.labels[ClusterRef(i - 1, a)] for a in src_clusters}
    if len(src_dcs | {dc_id}) < 2:
        return None
    related = tuple(sorted(src_dcs - {dc_id}))
    return LifecycleEvent("merge", i, dc_id, related=related)


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
                    len(series.members_by_time[i])
                    + len(series.members_by_time[nxt])
                    - shared
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
        mean_lifespan=fmean(lifespans),
        weighted_mean_lifespan=weighted,
    )

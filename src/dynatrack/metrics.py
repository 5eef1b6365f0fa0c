"""Persistent-group results and their analysis.

Holds the final outcome of a tracking run (every cluster mapped to a
dynamic-cluster id, plus each DC's member count per snapshot) and the
read-only analyses on top of it: life-cycle events as plain rows, total
membership consistency in both modes and summary statistics (the event
records are in `events`). Events and consistency each make one pass per
pair of neighbouring snapshots over its shared-member count table, against
the label columns and the size tables, never the member strings. All
functions here are pure; results are treated as immutable.
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import TYPE_CHECKING

from .kernel import _Record

if TYPE_CHECKING:
    from .model import ClusteringSequence

__all__ = [
    "DynamicClustering",
    "clustering_from_labels",
    "dc_sizes",
    "event_rows",
    "LifecycleEvent",
    "classify_events",
    "consistencies",
    "total_consistency",
    "SummaryStats",
    "summary_stats",
]


def __getattr__(name: str):
    # Loads `events`, and the `dataclasses` it needs, only on first use.
    if name in ("LifecycleEvent", "classify_events"):
        from . import events

        return getattr(events, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DynamicClustering(_Record):
    """Final association of every cluster to a dynamic-cluster id.

    `labels` holds one column per snapshot: labels[t][a] is the DC id of
    cluster a of snapshot t. A DC is the set of clusters that carry its
    id. `sizes[t]` maps each DC present at snapshot t to the member count
    of its clusters there, and `dcs` is the ascending tuple of all DC ids.
    `seq` is the labelled sequence. `pair_triples[i]` holds the
    shared-member count triples between snapshot i and i+1, as
    `relations.pair_counts` returns them, or the whole list is None until
    `tables` is called; a tracked result shares the tables its relation
    cache built. `sizes` and `dcs` derive from the labels, so only
    `labels` and `x_used` take part in comparisons and the repr.
    """

    __slots__ = ("labels", "sizes", "dcs", "x_used", "seq", "pair_triples")
    _fields = ("labels", "x_used")

    def __init__(
        self, labels: list[list[int]], sizes: list[dict[int, int]], x_used: int,
        seq: ClusteringSequence,
        pair_triples: list[list[tuple[int, int, int]]] | None = None,
    ) -> None:
        self.labels = labels
        self.sizes = sizes
        self.dcs = tuple(sorted(set().union(*sizes)))
        self.x_used = x_used
        self.seq = seq
        self.pair_triples = pair_triples

    def tables(self) -> list[list[tuple[int, int, int]]]:
        """The count triples of every neighbouring snapshot pair, the
        list at i for snapshots i and i+1.

        Without `pair_triples`, every table is computed from `seq` on
        first use and kept on the result.
        """
        if self.pair_triples is None:
            from .relations import count_tables

            self.pair_triples = count_tables(self.seq)
        return self.pair_triples


def clustering_from_labels(
    seq: ClusteringSequence,
    labels: list[list[int]],
    x: int,
    pair_triples: list[list[tuple[int, int, int]]] | None = None,
) -> DynamicClustering:
    """Full result from DC label columns, labels[t][a] for cluster a of
    snapshot t; ValueError unless there is one column per snapshot and
    one label per cluster.

    `pair_triples` hands on count tables already built for `seq` (see
    `DynamicClustering`).
    """
    seq.check_label_columns(labels)
    sizes = dc_sizes(labels, [snap.sizes for snap in seq.snapshots])
    return DynamicClustering([col[:] for col in labels], sizes, x, seq, pair_triples)


def dc_sizes(
    labels: list[list[int]], cluster_sizes: list[tuple[int, ...]]
) -> list[dict[int, int]]:
    """Per snapshot, each DC's member count: the summed sizes of the
    clusters it labels (labels[t][a] and cluster_sizes[t][a] for cluster a
    of snapshot t). The columns must match, as nothing here checks."""
    sizes: list[dict[int, int]] = []
    for column, counts in zip(labels, cluster_sizes):
        found = dict(zip(column, counts))
        if len(found) != len(column):
            # A DC on several clusters of the snapshot: add their sizes.
            found = dict.fromkeys(column, 0)
            for dc, n in zip(column, counts):
                found[dc] += n
        sizes.append(found)
    return sizes


def event_rows(
    labels: list[list[int]],
    sizes: list[dict[int, int]],
    tables: list[list[tuple[int, int, int]]],
) -> list[tuple[int, int, str, tuple[int, ...], int]]:
    """All life-cycle events of a labelling as rows (time, dc, kind,
    related, delta), sorted; no two share (time, dc, kind). For a result,
    pass `result.labels`, `result.sizes` and `result.tables()`; for a
    document, `resultdoc.read_tables` gives the labels and tables, and
    `dc_sizes` the sizes.

    kind is one of birth, death, growth, shrinkage, split, merge. Events
    are read from the count tables (tables[i] between snapshots i and
    i+1), the DC size tables and the labels, one snapshot pair i → i+1 at
    a time; each has time i+1. Birth requires that no member of the DC's
    first clusters was present at the previous snapshot, that is no
    count cell enters them; death that no cell leaves its last clusters.
    Both are therefore optional, and undefined at the sequence boundaries. Split (merge) fires when the
    cells leaving (entering) a DC's clusters reach several clusters at
    the next (previous) snapshot that, with the DC itself, belong to at
    least two distinct DCs; `related` lists those other DCs ascending.
    Growth and shrinkage are reported per consecutive presence pair with
    non-zero size change, `delta` being the signed member-count change
    (0 for every other kind). Events are not mutually exclusive.
    """
    # Each DC's last snapshot, and the DCs met before the current pair's
    # later snapshot: one container for all DCs, none per DC.
    last = {dc: t for t, present in enumerate(sizes) for dc in present}
    seen = set(sizes[0])
    rows: list = []
    add = rows.append
    for i in range(len(labels) - 1):
        t = i + 1
        la, lb = labels[i], labels[t]
        # A cluster each DC at i reaches at t and each DC at t reaches
        # back to at i; the DCs that reach more than one; the DC pairs
        # that cells join.
        fwd: dict[int, int] = {}
        back: dict[int, int] = {}
        splitting: set[int] = set()
        merging: set[int] = set()
        cross: set[tuple[int, int]] = set()
        for ca, cb, _n in tables[i]:
            a = la[ca]
            b = lb[cb]
            if fwd.setdefault(a, cb) != cb:
                splitting.add(a)
            if back.setdefault(b, ca) != ca:
                merging.add(b)
            if a != b:
                cross.add((a, b))
        # In (a, b) order both lists come out ascending.
        splits: dict[int, list[int]] = {}
        merges: dict[int, list[int]] = {}
        for a, b in sorted(cross):
            if a in splitting:
                splits.setdefault(a, []).append(b)
            if b in merging:
                merges.setdefault(b, []).append(a)
        for dc, related in splits.items():
            add((t, dc, "split", tuple(related), 0))
        for dc, related in merges.items():
            add((t, dc, "merge", tuple(related), 0))
        before, after = sizes[i], sizes[t]
        for dc in before.keys() - fwd:
            if last[dc] == i:
                add((t, dc, "death", (), 0))
        for dc in after.keys() - back:
            if dc not in seen:
                add((t, dc, "birth", (), 0))
        seen.update(after)
        for dc in before.keys() & after.keys():
            delta = after[dc] - before[dc]
            if delta > 0:
                add((t, dc, "growth", (), delta))
            elif delta < 0:
                add((t, dc, "shrinkage", (), delta))
    rows.sort()
    return rows


def consistencies(result: DynamicClustering) -> tuple[float | None, float | None]:
    """Total consistency as (all_members, residents_only): the mean
    per-DC membership auto-correlation over all consecutive presence
    pairs, or None in both when no DC has such a pair.

    For a DC with clusters A at i and B at i+1, "all_members" divides
    |A∩B| by |A∪B| = |A| + |B| - |A∩B|; "residents_only" counts in the
    union only the members present in both snapshots system-wide, so
    members entering or leaving the dataset do not dilute the score.
    One pass over the pair's count table, read only when some DC is
    present at both snapshots, gives |A∩B| (the cells the DC keeps), the
    cells leaving A and those entering B; since A holds only members
    present at i and B only members present at i+1, the resident union
    is leaving + entering - |A∩B|. Terms are summed by ascending DC id,
    then time. The result must label every cluster, as those of
    `clustering_from_labels` do.
    """
    labels = result.labels
    sizes = result.sizes
    # (DC, i, |A∩B|, union, resident union) of each presence pair.
    terms: list[tuple[int, int, int, int, int]] = []
    for i in range(len(labels) - 1):
        la, lb = labels[i], labels[i + 1]
        sa, sb = sizes[i], sizes[i + 1]
        shared = dict.fromkeys(sa.keys() & sb.keys(), 0)
        if not shared:
            continue
        leave: dict[int, int] = {}
        enter: dict[int, int] = {}
        for ca, cb, n in result.tables()[i]:
            a = la[ca]
            b = lb[cb]
            if a == b:
                shared[a] += n
            leave[a] = leave.get(a, 0) + n
            enter[b] = enter.get(b, 0) + n
        for dc, kept in shared.items():
            union = sa[dc] + sb[dc] - kept
            resident = leave.get(dc, 0) + enter.get(dc, 0) - kept
            terms.append((dc, i, kept, union, resident))
    if not terms:
        return None, None
    terms.sort()
    total = total_res = 0.0
    for _dc, _i, kept, union, resident in terms:
        if union:
            total += kept / union
        if resident:
            total_res += kept / resident
    return total / len(terms), total_res / len(terms)


def total_consistency(
    result: DynamicClustering, mode: str = "all_members"
) -> float | None:
    """One mode of `consistencies`, "all_members" or "residents_only"."""
    if mode not in ("all_members", "residents_only"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    return consistencies(result)[mode == "residents_only"]


class SummaryStats(_Record):
    """Head-count statistics of a dynamic clustering (by default with a
    new empty `lifespan_histogram`)."""

    __slots__ = _fields = (
        "dc_count", "lifespan_histogram", "mean_lifespan", "weighted_mean_lifespan"
    )

    def __init__(
        self, dc_count: int, lifespan_histogram: dict[int, int] | None = None,
        mean_lifespan: float | None = None,
        weighted_mean_lifespan: float | None = None,
    ) -> None:
        if lifespan_histogram is None:
            lifespan_histogram = {}
        self.dc_count = dc_count
        self.lifespan_histogram = lifespan_histogram
        self.mean_lifespan = mean_lifespan
        self.weighted_mean_lifespan = weighted_mean_lifespan


def summary_stats(result: DynamicClustering) -> SummaryStats:
    """DC count, lifespan histogram, and (weighted) mean lifespans.

    The weighted mean weights each DC's lifespan by its total
    member-snapshot count: the lifespan of the DC an average member
    resides in.
    """
    # One pass over the (snapshot, DC) entries: each DC's [lifespan,
    # member-snapshots]; the weighted sum is then taken in ints, exactly.
    per_dc: dict[int, list[int]] = {}
    for present in result.sizes:
        for dc, size in present.items():
            try:
                counts = per_dc[dc]
            except KeyError:
                per_dc[dc] = [1, size]
            else:
                counts[0] += 1
                counts[1] += size
    if not per_dc:
        return SummaryStats(dc_count=0)
    lifespans, totals = zip(*per_dc.values())
    return SummaryStats(
        dc_count=len(per_dc),
        lifespan_histogram=dict(sorted(Counter(lifespans).items())),
        mean_lifespan=sum(lifespans) / len(per_dc),
        weighted_mean_lifespan=sum(map(mul, lifespans, totals)) / sum(totals),
    )

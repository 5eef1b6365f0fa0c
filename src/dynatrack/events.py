"""Life-cycle events of the dynamic clusters of a tracking result.

`LifecycleEvent` is a dataclass: only programs that classify events load
this module, and with it `dataclasses`."""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import DynamicClustering
from .model import ClusteringSequence

__all__ = ["LifecycleEvent", "classify_events"]


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
        presence, clusters, sizes = result.dcs[dc_id]
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

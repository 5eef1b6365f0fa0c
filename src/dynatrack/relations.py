"""Majority relations between clusters of neighbouring snapshots.

For each pair of consecutive snapshots the shared-member counts yield four
set-valued relations per cluster:

* mapping set: the clusters one step forward holding the largest share of
  the cluster's members (all ties, empty when nothing is shared),
* tracing set: the same one step backward,
* tracer set: the inverse of tracing (clusters whose tracing set is
  exactly this cluster),
* mapper set: the inverse of mapping.

Each set holds cluster indices of one snapshot, which the caller knows:
the relations only ever compare neighbouring snapshots, so no set names
its clusters' time.

Argmax decisions use exact integer counts so ties are exact; because only
members present in both snapshots can be shared, all four relations are
unaffected by members that appear in a single snapshot.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .kernel import count_runs
from .model import ClusteringSequence, Snapshot

__all__ = [
    "MajorityRelations",
    "RelationCache",
    "count_tables",
    "pair_counts",
]


def pair_counts(a: Snapshot, b: Snapshot) -> list[tuple[int, int, int]]:
    """Shared-member counts between the clusters of two snapshots:
    `kernel.count_runs` on their member indexes.

    Returns (cluster_a, cluster_b, count) triples sorted lexicographically,
    non-zero counts only. Members present in one snapshot only never
    produce a triple, which is what makes the relations turnover-robust.
    """
    return count_runs(a.column, a.sizes, b.column)


def count_tables(seq: ClusteringSequence) -> list[list[tuple[int, int, int]]]:
    """The `pair_counts` triples of every neighbouring snapshot pair of `seq`."""
    snaps = seq.snapshots
    return [pair_counts(a, b) for a, b in zip(snaps, snaps[1:])]


class MajorityRelations:
    """All majority relations between snapshot i and snapshot i+1.

    Cluster indices are local to their snapshot; `triples` holds the raw
    shared-member counts for every overlapping pair, as `pair_counts`
    returns them, and `counts` gives them as a dict. The relations are
    frozensets of cluster indices, one per cluster of their snapshot
    (mapping and tracer by a cluster of snapshot i, tracing and mapper by
    one of snapshot i+1), for `lift`; every one-cluster set among them is
    that cluster's entry of the cache's unit table, shared rather than
    copied. `mapper`, the inverse of mapping, is built with the other
    two: every tracking run reads it on every pair it builds. `tracer`,
    the inverse of tracing, is derived on first use, since only the
    marginal search of a multi-step match reads it.
    """

    __slots__ = ("unit", "triples", "mapping", "tracing", "mapper", "_tracer")

    def __init__(self, triples, unit, m_a, m_b):
        # unit[c] is the set {c}; the snapshots hold m_a and m_b clusters.
        # One pass over the sorted triples keeps, per cluster on each side,
        # the partners at the running maximum count in triple order. Every
        # count is positive, so a cluster's first triple always replaces
        # its empty placeholder.
        best_a = [0] * m_a
        best_b = [0] * m_b
        mapping: list = [()] * m_a
        tracing: list = [()] * m_b
        for ca, cb, n in triples:
            if n > best_a[ca]:
                best_a[ca] = n
                mapping[ca] = [unit[cb]]
            elif n == best_a[ca]:
                mapping[ca].append(unit[cb])
            if n > best_b[cb]:
                best_b[cb] = n
                tracing[cb] = [unit[ca]]
            elif n == best_b[cb]:
                tracing[cb].append(unit[ca])
        self.unit = unit
        self.triples = triples
        self.mapping = tuple(map(_union, mapping))
        self.tracing = tuple(map(_union, tracing))
        self.mapper = _inverse(self.mapping, unit, m_b)
        self._tracer = None

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        return {(ca, cb): n for ca, cb, n in self.triples}

    @property
    def tracer(self) -> tuple[frozenset[int], ...]:
        if self._tracer is None:
            self._tracer = _inverse(self.tracing, self.unit, len(self.mapping))
        return self._tracer


def _inverse(table, unit, n):
    """Per cluster of the other side (n of them), the clusters c whose set
    `table[c]` is exactly that cluster."""
    lists: list[list[frozenset[int]]] = [[] for _ in range(n)]
    for c, sets in enumerate(table):
        if len(sets) == 1:
            lists[next(iter(sets))].append(unit[c])
    return tuple(map(_union, lists))


def _union(units):
    """One set of the clusters in `units`, sharing a lone unit set."""
    return units[0] if len(units) == 1 else frozenset().union(*units)


class RelationCache:
    """Lazily built per-pair majority relations for a whole sequence.

    Relations are a pure function of the snapshots, so the cache is
    read-only once built and safe to share across concurrent track runs.
    `unit[a]` is the set {a}, for every cluster index of the largest
    snapshot; every pair shares it, so every one-cluster relation set is
    one of these sets.
    """

    def __init__(self, seq: ClusteringSequence):
        self.seq = seq
        m = max(map(len, seq.snapshots), default=0)
        self.unit = tuple(frozenset((a,)) for a in range(m))
        self._pairs: list[MajorityRelations | None] = [None] * (len(seq) - 1)

    def pair(self, i: int) -> MajorityRelations:
        """Relations between snapshot i and snapshot i+1."""
        if not (0 <= i < len(self._pairs)):
            raise IndexError(f"pair index out of range (T={len(self.seq)}, got {i})")
        rel = self._pairs[i]
        if rel is None:
            a, b = self.seq.snapshots[i : i + 2]
            rel = self._pairs[i] = MajorityRelations(
                pair_counts(a, b), self.unit, len(a), len(b)
            )
        return rel

    def pair_triples(self) -> list[list[tuple[int, int, int]]] | None:
        """The count triples of every pair, or None unless all are built."""
        if None in self._pairs:
            return None
        return [rel.triples for rel in self._pairs]


def lift(table: Sequence[frozenset[int]], clusters: Collection[int]) -> frozenset[int]:
    """Union of `table[a]` over the cluster indices `clusters`.

    `table` is one relation of one snapshot pair, such as
    `rels.pair(t).mapping` for a step forward from snapshot t, and every
    index must be a cluster of the snapshot the table is indexed by.
    Nothing checks that, since the tracker's inner loops call this.
    """
    if len(clusters) == 1:
        for a in clusters:
            return table[a]
    out: set[int] = set()
    for a in clusters:
        out.update(table[a])
    return frozenset(out)

"""Majority relations between clusters of neighbouring snapshots.

For each pair of consecutive snapshots the shared-member counts yield four
set-valued relations per cluster:

* mapping set: the clusters one step forward holding the largest share of
  the cluster's members (all ties, empty when nothing is shared),
* tracing set: the same one step backward,
* tracer set: the inverse of tracing (clusters whose tracing set is
  exactly this cluster),
* mapper set: the inverse of mapping.

Argmax decisions use exact integer counts so ties are exact; because only
members present in both snapshots can be shared, all four relations are
unaffected by members that appear in a single snapshot.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Sequence

from .model import ClusterRef, ClusteringSequence

__all__ = [
    "MajorityRelations",
    "RelationCache",
    "count_tables",
    "pair_counts",
]


def pair_counts(a: dict[str, int], b: dict[str, int]) -> list[tuple[int, int, int]]:
    """Shared-member counts between the clusters of two snapshots, given
    their member columns (`Snapshot.column`).

    Returns (cluster_a, cluster_b, count) triples sorted lexicographically,
    non-zero counts only. Members present in one snapshot only never
    produce a triple, which is what makes the relations turnover-robust.
    """
    counts = Counter(zip(a.values(), map(b.get, a)))
    return sorted((ca, cb, n) for (ca, cb), n in counts.items() if cb is not None)


def count_tables(seq: ClusteringSequence) -> list[list[tuple[int, int, int]]]:
    """The `pair_counts` triples of every neighbouring snapshot pair of `seq`."""
    columns = [snap.column for snap in seq.snapshots]
    return [pair_counts(a, b) for a, b in zip(columns, columns[1:])]


class MajorityRelations:
    """All majority relations between snapshot i and snapshot i+1.

    Cluster indices are local to their snapshot; `triples` holds the raw
    shared-member counts for every overlapping pair, as `pair_counts`
    returns them, and `counts` gives them as a dict. The relations are
    kept as ready-made ClusterRef sets indexed by cluster (the *_refs
    tables), for `lift`; every one-cluster set among them is that
    cluster's unit set from the cache, shared rather than copied. The
    inverse relations (tracer, mapper) are derived on first use; only
    multi-step matches ever need them.
    """

    __slots__ = (
        "units_a", "units_b", "triples", "mapping_refs", "tracing_refs",
        "_tracer_refs", "_mapper_refs",
    )

    def __init__(self, triples, units_a, units_b):
        # units_a and units_b hold the unit set {ClusterRef} of every
        # cluster of the two snapshots, by cluster index. One pass over the
        # sorted triples keeps, per cluster on each side, the partners at
        # the running maximum count in triple order. Every count is
        # positive, so a cluster's first triple always replaces its empty
        # placeholder.
        best_a = [0] * len(units_a)
        best_b = [0] * len(units_b)
        mapping: list = [()] * len(units_a)
        tracing: list = [()] * len(units_b)
        for ca, cb, n in triples:
            if n > best_a[ca]:
                best_a[ca] = n
                mapping[ca] = [units_b[cb]]
            elif n == best_a[ca]:
                mapping[ca].append(units_b[cb])
            if n > best_b[cb]:
                best_b[cb] = n
                tracing[cb] = [units_a[ca]]
            elif n == best_b[cb]:
                tracing[cb].append(units_a[ca])
        self.units_a = units_a
        self.units_b = units_b
        self.triples = triples
        self.mapping_refs = tuple(map(_union, mapping))
        self.tracing_refs = tuple(map(_union, tracing))
        self._tracer_refs = None
        self._mapper_refs = None

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        return {(ca, cb): n for ca, cb, n in self.triples}

    @property
    def tracer_refs(self) -> tuple[frozenset[ClusterRef], ...]:
        if self._tracer_refs is None:
            self._tracer_refs = _inverse(
                self.tracing_refs, self.units_b, len(self.units_a)
            )
        return self._tracer_refs

    @property
    def mapper_refs(self) -> tuple[frozenset[ClusterRef], ...]:
        if self._mapper_refs is None:
            self._mapper_refs = _inverse(
                self.mapping_refs, self.units_a, len(self.units_b)
            )
        return self._mapper_refs


def _inverse(table, units, n):
    """Per cluster of the other side (n of them), the clusters `units[c]`
    whose set `table[c]` is exactly that cluster."""
    lists: list[list[frozenset[ClusterRef]]] = [[] for _ in range(n)]
    for c, sets in enumerate(table):
        if len(sets) == 1:
            lists[next(iter(sets)).cluster].append(units[c])
    return tuple(map(_union, lists))


def _union(units):
    """One set of the clusters in `units`, sharing a lone unit set."""
    return units[0] if len(units) == 1 else frozenset().union(*units)


class RelationCache:
    """Lazily built per-pair majority relations for a whole sequence.

    Relations are a pure function of the snapshots, so the cache is
    read-only once built and safe to share across concurrent track runs.
    """

    def __init__(self, seq: ClusteringSequence):
        self.seq = seq
        self.t_total = len(seq)
        # One shared ClusterRef and unit set {ClusterRef} per cluster, by
        # snapshot and cluster index; every one-cluster relation set is
        # one of these unit sets.
        self.refs = [
            tuple(ClusterRef(t, a) for a in range(len(snap)))
            for t, snap in enumerate(seq.snapshots)
        ]
        self.units = [
            tuple(frozenset((r,)) for r in refs) for refs in self.refs
        ]
        self._pairs: list[MajorityRelations | None] = [None] * (len(seq) - 1)

    def pair(self, i: int) -> MajorityRelations:
        """Relations between snapshot i and snapshot i+1."""
        if not (0 <= i < self.t_total - 1):
            raise IndexError(f"pair index out of range (T={self.t_total}, got {i})")
        rel = self._pairs[i]
        if rel is None:
            a, b = self.seq.snapshots[i : i + 2]
            rel = self._pairs[i] = MajorityRelations(
                pair_counts(a.column, b.column), self.units[i], self.units[i + 1]
            )
        return rel

    def pair_triples(self) -> list[list[tuple[int, int, int]]] | None:
        """The count triples of every pair, or None unless all are built."""
        if None in self._pairs:
            return None
        return [rel.triples for rel in self._pairs]


def lift(
    table: Sequence[frozenset[ClusterRef]], refs: Collection[ClusterRef]
) -> frozenset[ClusterRef]:
    """Union of `table[r.cluster]` over `refs`.

    `table` is one relation of one snapshot pair, such as
    `rels.pair(t).mapping_refs` for a step forward from snapshot t, and
    every ref must sit at the snapshot the table is indexed by. Nothing
    checks that, since the tracker's inner loops call this.
    """
    if len(refs) == 1:
        for r in refs:
            return table[r.cluster]
    out: set[ClusterRef] = set()
    for r in refs:
        out.update(table[r.cluster])
    return frozenset(out)

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

from typing import Callable, Iterable

from .kernel import IndexedSnapshot, pair_counts
from .model import ClusterRef, ClusteringSequence

__all__ = [
    "fim",
    "MajorityRelations",
    "RelationCache",
    "lift_to_set",
    "index_sequence",
]


def fim(
    a: Iterable[str],
    b: Iterable[str],
    residents: Iterable[str],
    kind: str = "symmetric",
) -> float | None:
    """Fraction of identical members between two clusters.

    kind selects the denominator: "symmetric" divides the intersection by
    the union, "forward" by `a`, "backward" by `b`; each denominator is
    first restricted to `residents`. Pass the full member universe as
    `residents` for the unrestricted variants. Returns None when the
    denominator is empty (callers treat that as "no relation").
    """
    a = frozenset(a)
    b = frozenset(b)
    res = frozenset(residents)
    shared = len(a & b)
    if kind == "symmetric":
        denom = len((a | b) & res)
    elif kind == "forward":
        denom = len(a & res)
    elif kind == "backward":
        denom = len(b & res)
    else:
        raise ValueError(f"unknown fim kind {kind!r}")
    if denom == 0:
        return None
    return shared / denom


def _argmax_sets(
    by_source: dict[int, list[tuple[int, int]]], n_source: int
) -> tuple[frozenset[int], ...]:
    out = []
    for s in range(n_source):
        pairs = by_source.get(s)
        if not pairs:
            out.append(frozenset())
            continue
        best = max(n for _, n in pairs)
        out.append(frozenset(t for t, n in pairs if n == best))
    return tuple(out)


class MajorityRelations:
    """All majority relations between snapshot i and snapshot i+1.

    Cluster indices are local to their snapshot; `counts` holds the raw
    shared-member counts for every overlapping pair. The *_refs tables
    carry the same relations as ready-made ClusterRef sets so multi-step
    walks need no per-query set construction. The inverse relations
    (tracer, mapper) are derived on first use; only multi-step matches
    ever need them.
    """

    __slots__ = (
        "time_a", "n_a", "n_b", "counts", "mapping", "tracing",
        "mapping_refs", "tracing_refs",
        "_tracer", "_mapper", "_tracer_refs", "_mapper_refs",
    )

    def __init__(self, triples, time_a, n_a, n_b):
        by_a: dict[int, list[tuple[int, int]]] = {}
        by_b: dict[int, list[tuple[int, int]]] = {}
        counts: dict[tuple[int, int], int] = {}
        for ca, cb, n in triples:
            counts[(ca, cb)] = n
            by_a.setdefault(ca, []).append((cb, n))
            by_b.setdefault(cb, []).append((ca, n))
        self.time_a = time_a
        self.n_a = n_a
        self.n_b = n_b
        self.counts = counts
        self.mapping = _argmax_sets(by_a, n_a)
        self.tracing = _argmax_sets(by_b, n_b)
        t_b = time_a + 1
        self.mapping_refs = tuple(
            frozenset(ClusterRef(t_b, b) for b in s) for s in self.mapping
        )
        self.tracing_refs = tuple(
            frozenset(ClusterRef(time_a, a) for a in s) for s in self.tracing
        )
        self._tracer = None
        self._mapper = None
        self._tracer_refs = None
        self._mapper_refs = None

    @property
    def tracer(self) -> tuple[frozenset[int], ...]:
        if self._tracer is None:
            lists: list[list[int]] = [[] for _ in range(self.n_a)]
            for b, sources in enumerate(self.tracing):
                if len(sources) == 1:
                    lists[next(iter(sources))].append(b)
            self._tracer = tuple(frozenset(l) for l in lists)
        return self._tracer

    @property
    def mapper(self) -> tuple[frozenset[int], ...]:
        if self._mapper is None:
            lists: list[list[int]] = [[] for _ in range(self.n_b)]
            for a, targets in enumerate(self.mapping):
                if len(targets) == 1:
                    lists[next(iter(targets))].append(a)
            self._mapper = tuple(frozenset(l) for l in lists)
        return self._mapper

    @property
    def tracer_refs(self) -> tuple[frozenset[ClusterRef], ...]:
        if self._tracer_refs is None:
            t_b = self.time_a + 1
            self._tracer_refs = tuple(
                frozenset(ClusterRef(t_b, b) for b in s) for s in self.tracer
            )
        return self._tracer_refs

    @property
    def mapper_refs(self) -> tuple[frozenset[ClusterRef], ...]:
        if self._mapper_refs is None:
            self._mapper_refs = tuple(
                frozenset(ClusterRef(self.time_a, a) for a in s)
                for s in self.mapper
            )
        return self._mapper_refs


def index_sequence(seq: ClusteringSequence) -> list[IndexedSnapshot]:
    """Columnar integer view of a sequence for the overlap kernel.

    Member IDs are interned to integers once for the whole sequence.
    """
    intern: dict[str, int] = {}
    out = []
    for snap in seq.snapshots:
        pairs: list[tuple[int, int]] = []
        for alpha, members in enumerate(snap.clusters):
            for m in members:
                code = intern.get(m)
                if code is None:
                    code = len(intern)
                    intern[m] = code
                pairs.append((code, alpha))
        pairs.sort()
        out.append(
            IndexedSnapshot(
                n_clusters=len(snap.clusters),
                ids=[p[0] for p in pairs],
                clusters=[p[1] for p in pairs],
            )
        )
    return out


class RelationCache:
    """Lazily built per-pair majority relations for a whole sequence.

    Relations are a pure function of the snapshots, so the cache is
    read-only once built and safe to share across concurrent track runs.
    """

    def __init__(self, seq: ClusteringSequence):
        self.seq = seq
        self.t_total = len(seq)
        self._indexed = index_sequence(seq)
        self._pairs: list[MajorityRelations | None] = [None] * (len(seq) - 1)

    def pair(self, i: int) -> MajorityRelations:
        """Relations between snapshot i and snapshot i+1."""
        rel = self._pairs[i] if 0 <= i < self.t_total - 1 else None
        if rel is None:
            if not (0 <= i < self.t_total - 1):
                raise IndexError(
                    f"pair index out of range (T={self.t_total}, got {i})"
                )
            a = self._indexed[i]
            b = self._indexed[i + 1]
            rel = MajorityRelations(
                pair_counts(a, b), i, a.n_clusters, b.n_clusters
            )
            self._pairs[i] = rel
        return rel

    def _check(self, ref: ClusterRef) -> None:
        if not (0 <= ref.time < len(self.seq)):
            raise IndexError(f"snapshot index out of range: {ref}")
        if not (0 <= ref.cluster < len(self.seq.snapshots[ref.time])):
            raise IndexError(f"cluster index out of range: {ref}")

    def mapping_set(self, ref: ClusterRef) -> frozenset[ClusterRef]:
        """Majority clusters one step forward; empty if none share members."""
        self._check(ref)
        if ref.time + 1 >= self.t_total:
            raise IndexError(f"no snapshot after {ref.time}")
        return self.pair(ref.time).mapping_refs[ref.cluster]

    def tracing_set(self, ref: ClusterRef) -> frozenset[ClusterRef]:
        """Majority clusters one step backward; empty if none share members."""
        self._check(ref)
        if ref.time == 0:
            raise IndexError("no snapshot before 0")
        return self.pair(ref.time - 1).tracing_refs[ref.cluster]

    def tracer_set(self, ref: ClusterRef) -> frozenset[ClusterRef]:
        """Clusters one step forward whose tracing set is exactly {ref}."""
        self._check(ref)
        if ref.time + 1 >= self.t_total:
            raise IndexError(f"no snapshot after {ref.time}")
        return self.pair(ref.time).tracer_refs[ref.cluster]

    def mapper_set(self, ref: ClusterRef) -> frozenset[ClusterRef]:
        """Clusters one step backward whose mapping set is exactly {ref}."""
        self._check(ref)
        if ref.time == 0:
            raise IndexError("no snapshot before 0")
        return self.pair(ref.time - 1).mapper_refs[ref.cluster]

    def count(self, a: ClusterRef, b: ClusterRef) -> int:
        """Shared-member count between a cluster and one at the next snapshot."""
        if b.time != a.time + 1:
            raise ValueError("count is defined for consecutive snapshots only")
        return self.pair(a.time).counts.get((a.cluster, b.cluster), 0)


def lift_to_set(
    relation: Callable[[ClusterRef], frozenset[ClusterRef]],
    refs: Iterable[ClusterRef],
) -> frozenset[ClusterRef]:
    """Apply a per-cluster relation to a set of clusters: union of images."""
    out: set[ClusterRef] = set()
    for ref in refs:
        out.update(relation(ref))
    return frozenset(out)

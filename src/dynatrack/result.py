"""The result of a tracking run.

`DynamicClustering` maps every cluster to a dynamic-cluster (DC) id and
holds each DC's member count per snapshot. `track` and the oracle build
one with `clustering_from_labels`, and `dc_sizes` gives the size tables
of any label columns, those that `events` reads from a document too. The
analyses of a result are in `metrics` and `events`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .kernel import _Record

if TYPE_CHECKING:
    from .model import ClusteringSequence

__all__ = ["DynamicClustering", "clustering_from_labels", "dc_sizes"]


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

"""Reference forms of what the command line computes in streams and tables.

Each name here builds a whole value that a faster path of the package must
equal, and which no subcommand runs: the life-cycle events as
`LifecycleEvent` records (`classify_events`; `events.event_rows` gives the
rows), one mode of `metrics.consistencies` (`total_consistency`), the
result document as one dict and its bytes (`build_document`,
`document_to_bytes`; `docwriter.document_chunks` streams them), the
alluvial layout of a sequence and its SVG as one string (`build_layout`,
`layout_to_svg`; `alluvial.layout_from_tables` and `svg_chunks`), and the
labelled sequence of a document (`load_document`; `resultdoc.read_tables`
reads the tables). Each stays importable from the module named in the
README, so only programs that use one load this module, and with it
`dataclasses`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import SCHEMA_VERSION
from .alluvial import AlluvialLayout, layout_from_tables, svg_chunks
from .docwriter import canonical_labels
from .events import event_rows
from .metrics import consistencies
from .model import ClusteringSequence, Snapshot
from .relations import count_tables
from .result import DynamicClustering
from .resultdoc import _read, _text

__all__ = [
    "LifecycleEvent",
    "classify_events",
    "total_consistency",
    "build_document",
    "document_to_bytes",
    "build_layout",
    "layout_to_svg",
    "load_document",
]


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


def classify_events(
    result: DynamicClustering, seq: ClusteringSequence
) -> list[LifecycleEvent]:
    """All life-cycle events of a tracking result, as records: the rows
    of `events.event_rows`, in their order (by time, then DC, then
    kind), with the same definitions. A result of another sequence than
    `seq` raises ValueError."""
    if result.seq is not seq:
        raise ValueError("the result was built for a different sequence")
    return [
        LifecycleEvent(kind, time, dc, related, delta)
        for time, dc, kind, related, delta in event_rows(
            result.labels, result.sizes, result.tables()
        )
    ]


def total_consistency(
    result: DynamicClustering, mode: str = "all_members"
) -> float | None:
    """One mode of `consistencies`, "all_members" or "residents_only"."""
    if mode not in ("all_members", "residents_only"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    return consistencies(result)[mode == "residents_only"]


def build_document(
    seq: ClusteringSequence,
    result: DynamicClustering,
    tool_version: str,
) -> dict:
    """Result document (canonical ids) ready for serialisation. Its member
    and (snapshot, cluster) arrays are tuples, the members those of `seq`:
    the same JSON as lists, with fewer objects to build. A result of
    another sequence than `seq` raises ValueError. `document_chunks`
    writes the same bytes without building the document."""
    if result.seq is not seq:
        raise ValueError("the result was built for a different sequence")
    # Canonical ids are 0..k-1 in order of first appearance, and each
    # DC's clusters are met in ascending order.
    registry: list[list[tuple[int, int]]] = []
    snapshots = []
    for t, (snap, label, col) in enumerate(
        zip(seq.snapshots, seq.labels, canonical_labels(result.labels))
    ):
        clusters = []
        for a, (members, dc) in enumerate(zip(snap.clusters, col)):
            if dc == len(registry):
                registry.append([])
            registry[dc].append((t, a))
            clusters.append({"members": members, "dc": dc})
        entry: dict = {"clusters": clusters}
        if label is not None:
            entry["label"] = label
        snapshots.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "tool": "dynatrack",
        "version": tool_version,
        "history": result.x_used,
        "snapshot_count": len(seq),
        "snapshots": snapshots,
        "dcs": [{"id": dc, "clusters": refs} for dc, refs in enumerate(registry)],
    }


def document_to_bytes(doc: dict) -> bytes:
    return (
        json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        + "\n"
    ).encode("utf-8")


def build_layout(
    seq: ClusteringSequence,
    labels: list[list[int]],
    gap: float = 2.0,
) -> AlluvialLayout:
    """Geometry of the diagram in member-count units, from the DC label
    columns (labels[t][a] for cluster a of snapshot t): `layout_from_tables`
    on the cluster sizes and count tables of `seq`.

    `gap` is the vertical spacing between blocks of one column. Raises
    ValueError unless it is finite and >= 0, or unless there is one
    column per snapshot and one label per cluster.
    """
    if not (math.isfinite(gap) and gap >= 0):
        raise ValueError(f"gap must be a finite number >= 0, got {gap!r}")
    seq.check_label_columns(labels)
    sizes = [snap.sizes for snap in seq.snapshots]
    return layout_from_tables(labels, sizes, count_tables(seq), gap)


def layout_to_svg(layout: AlluvialLayout, block_width: float = 20.0) -> str:
    """Standalone SVG 1.1 document for a layout: `svg_chunks` joined."""
    return "".join(svg_chunks(layout, block_width))


def load_document(
    raw: bytes | str,
) -> tuple[ClusteringSequence, list[list[int]], int]:
    """Parse a result document back into (sequence, label columns, history);
    columns[t][a] is the `dc` of cluster a of snapshot t.

    Besides field types, the document is checked against itself: the
    `dcs` registry must list exactly the per-cluster `dc` values, each id
    in one entry with at least one cluster,
    `snapshot_count` must match the snapshots, and the clusters of the
    last snapshot must carry distinct ids (any tracking run gives them
    distinct ids). Invalid snapshots (an empty cluster, a bad or repeated
    member) raise SequenceValidationError, as `sequence_from_lists`
    does, once every other check has passed. The text is decoded one
    snapshot at a time, with the checks, their order and their errors of
    `resultdoc.read_tables`.
    """
    raw = _text(raw)  # drops the bytes
    snapshots: list[Snapshot] = []

    def keep(t: int, column: dict[str, int], sizes: tuple[int, ...]) -> None:
        snapshots[t:] = [Snapshot(column, sizes)]  # t = 0 starts again

    columns, labels, history = _read(raw, True, keep)
    return ClusteringSequence(tuple(snapshots), tuple(labels)), columns, history

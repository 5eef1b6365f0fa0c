"""Reading versioned result documents (the writers are in `docwriter`).

A result document carries everything downstream consumers (event listing,
rendering) need: per snapshot the clusters with their members and dynamic
cluster id, the DC registry, and run metadata. `read_tables` turns one
into the label columns, cluster sizes and shared-member count tables that
`events` and `render` read, in one pass over the snapshots;
`load_document` gives the labelled `ClusteringSequence` instead. Both run
the same checks, in the same order.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

from . import SCHEMA_VERSION
from .errors import SchemaError, SequenceValidationError
from .kernel import NO_SNAPSHOTS, count_runs, member_index

if TYPE_CHECKING:
    from .model import ClusteringSequence

__all__ = [
    "SCHEMA_VERSION",
    "read_tables",
    "load_document",
    "canonical_labels",
    "build_document",
    "document_to_bytes",
    "document_chunks",
    "clustering_from_labels",
]

_WRITERS = ("canonical_labels", "build_document", "document_to_bytes", "document_chunks")


def __getattr__(name: str):
    # The writers and `clustering_from_labels` are re-exported from their
    # modules on first use, so that reading a document (as `events` and
    # `render` do) loads neither.
    if name in _WRITERS:
        from . import docwriter

        return getattr(docwriter, name)
    if name == "clustering_from_labels":
        from .metrics import clustering_from_labels

        return clustering_from_labels
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def read_tables(
    raw: bytes | str,
) -> tuple[
    list[list[int]], list[tuple[int, ...]], list[list[tuple[int, int, int]]], int
]:
    """Read a result document into (label columns, cluster sizes, count
    tables, history): columns[t][a] is the `dc` of cluster a of snapshot
    t, sizes[t][a] its member count, and tables[i] the shared-member
    count triples between snapshots i and i+1, as
    `relations.pair_counts` gives them.

    One pass over the snapshots counts each pair as its later snapshot
    arrives, holding two member indexes at a time. The checks, their
    order and their errors are those of `load_document`.
    """
    sizes: list[tuple[int, ...]] = []
    tables: list[list[tuple[int, int, int]]] = []
    last: dict[str, int] = {}

    def count(column: dict[str, int], counts: tuple[int, ...]) -> None:
        nonlocal last
        if sizes:
            tables.append(count_runs(last, sizes[-1], column))
        last = column
        sizes.append(counts)

    columns, _labels, history = _read(raw, False, count)
    return columns, sizes, tables, history


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
    does, once every other check has passed.
    """
    from .model import ClusteringSequence, Snapshot

    snapshots: list[Snapshot] = []
    columns, labels, history = _read(
        raw, True, lambda column, sizes: snapshots.append(Snapshot(column, sizes))
    )
    return ClusteringSequence(tuple(snapshots), tuple(labels)), columns, history


def _read(
    raw: bytes | str,
    sort: bool,
    keep: Callable[[dict[str, int], tuple[int, ...]], None],
) -> tuple[list[list[int]], list[str | None], int]:
    """Decode and check a result document; return its label columns,
    snapshot labels and history.

    Each snapshot's member index, built by `kernel.member_index` (members
    sorted within each cluster if `sort`), goes to `keep` in snapshot
    order. The first invalid snapshot's SequenceValidationError is held
    until every document check has passed, and no index is built after
    it.
    """
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"result document is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"result document is not valid text: {exc}") from exc
    except RecursionError:
        raise SchemaError("result document is nested too deeply") from None
    except ValueError:  # an integer literal too long to convert
        raise SchemaError("result document has an integer too long to read") from None
    if not isinstance(doc, dict):
        raise SchemaError("result document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    for key in ("history", "snapshot_count", "snapshots", "dcs"):
        if key not in doc:
            raise SchemaError(f"result document is missing {key!r}")
    history = _int(doc["history"], "history")
    if history < 0:
        raise SchemaError(f"history must be non-negative, got {history}")
    labels_meta: list[str | None] = []
    columns: list[list[int]] = []
    invalid: SequenceValidationError | None = None
    try:
        for t, entry in enumerate(doc["snapshots"]):
            clusters = entry["clusters"]
            try:
                row = [cluster["members"] for cluster in clusters]
                col = [cluster["dc"] for cluster in clusters]
            except (KeyError, TypeError):
                row = col = [None]  # fails the type check below
            if not (set(map(type, row)) <= {list} and set(map(type, col)) <= {int}):
                # Name the first offender, in the order the checks run.
                for a, cluster in enumerate(clusters):
                    if not isinstance(cluster["members"], list):
                        raise SchemaError(
                            f"snapshot {t}: cluster {a}: members must be an array"
                        )
                    _int(cluster["dc"], f"snapshot {t}: cluster {a}: dc")
            columns.append(col)
            if invalid is None:
                try:
                    keep(*member_index(t, row, sort))
                except SequenceValidationError as exc:
                    invalid = exc
            label = entry.get("label")
            if label is not None and not isinstance(label, str):
                raise SchemaError(f"snapshot {t}: label must be a string")
            labels_meta.append(label)
        # Each cluster's listed id by snapshot and cluster index (None
        # while unlisted), and the listed refs that name no cluster.
        listed: list[list[int | None]] = [[None] * len(col) for col in columns]
        stray: set[tuple[int, int]] = set()
        for entry in doc["dcs"]:
            dc = _int(entry["id"], "dcs: id")
            for t, a in entry["clusters"]:
                if type(t) is not int or type(a) is not int:
                    _int(t, "dcs: snapshot index")
                    _int(a, "dcs: cluster index")
                if 0 <= t < len(listed) and 0 <= a < len(listed[t]):
                    if listed[t][a] is None:
                        listed[t][a] = dc
                        continue
                elif (t, a) not in stray:
                    stray.add((t, a))
                    continue
                raise SchemaError(f"dcs: cluster ({t}, {a}) is listed twice")
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed result document: {exc!r}") from exc
    if stray or listed != columns:
        raise SchemaError("dcs registry does not match the clusters' dc values")
    if _int(doc["snapshot_count"], "snapshot_count") != len(columns):
        raise SchemaError(
            f"snapshot_count is {doc['snapshot_count']} "
            f"but the document has {len(columns)} snapshots"
        )
    if columns and len(set(columns[-1])) != len(columns[-1]):
        raise SchemaError(
            f"snapshot {len(columns) - 1}: several clusters of the last "
            f"snapshot share one dc id"
        )
    # An entry without clusters, or an id in several entries, also fails to
    # match; checked last, so that the checks above name their faults first.
    if len({e["id"] for e in doc["dcs"] if e["clusters"]}) != len(doc["dcs"]):
        raise SchemaError("dcs registry does not match the clusters' dc values")
    if invalid is not None:
        raise invalid
    if not columns:
        raise SequenceValidationError(NO_SNAPSHOTS)
    return columns, labels_meta, history

"""Versioned result documents for tracking runs.

A result document carries everything downstream consumers (event listing,
rendering) need: per snapshot the clusters with their members and dynamic
cluster id, the DC registry, and run metadata. DC ids are canonicalised
by first appearance (snapshot order, then cluster order) and the JSON
encoding is byte-deterministic, so outputs are directly comparable across
runs and implementations.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import SchemaError
from .model import ClusterRef, ClusteringSequence, sequence_from_lists

if TYPE_CHECKING:
    from .metrics import DynamicClustering

__all__ = [
    "SCHEMA_VERSION",
    "canonical_labels",
    "build_document",
    "document_to_bytes",
    "load_document",
    "clustering_from_labels",
]

SCHEMA_VERSION = 1


def __getattr__(name: str):
    # The re-export of `clustering_from_labels` loads `metrics` on first
    # use, so that loading a document (as `render` does) does not.
    if name == "clustering_from_labels":
        from .metrics import clustering_from_labels

        return clustering_from_labels
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def canonical_labels(
    seq: ClusteringSequence, labels: dict[ClusterRef, int]
) -> dict[ClusterRef, int]:
    """Renumber DC ids by first appearance in snapshot-then-cluster order."""
    mapping: dict[int, int] = {}
    out: dict[ClusterRef, int] = {}
    for ref in seq.cluster_refs():
        dc = labels[ref]
        if dc not in mapping:
            mapping[dc] = len(mapping)
        out[ref] = mapping[dc]
    return out


def build_document(
    seq: ClusteringSequence,
    result: DynamicClustering,
    tool_version: str,
) -> dict:
    """Result document (canonical ids) ready for serialisation."""
    labels = canonical_labels(seq, result.labels)
    snapshots = []
    for snap, label in zip(seq.snapshots, seq.labels):
        clusters = [
            {"members": list(members), "dc": labels[ClusterRef(snap.index, a)]}
            for a, members in enumerate(snap.clusters)
        ]
        entry: dict = {"clusters": clusters}
        if label is not None:
            entry["label"] = label
        snapshots.append(entry)
    registry: dict[int, list[list[int]]] = {}
    for ref, dc in labels.items():
        registry.setdefault(dc, []).append([ref.time, ref.cluster])
    dcs = [
        {"id": dc, "clusters": sorted(registry[dc])} for dc in sorted(registry)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "tool": "dynatrack",
        "version": tool_version,
        "history": result.x_used,
        "snapshot_count": len(seq),
        "snapshots": snapshots,
        "dcs": dcs,
    }


def document_to_bytes(doc: dict) -> bytes:
    return (
        json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        + "\n"
    ).encode("utf-8")


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def load_document(
    raw: bytes | str,
) -> tuple[ClusteringSequence, dict[ClusterRef, int], int]:
    """Parse a result document back into (sequence, labels, history).

    Besides field types, the document is checked against itself: the
    `dcs` registry must list exactly the per-cluster `dc` values,
    `snapshot_count` must match the snapshots, and the clusters of the
    last snapshot must carry distinct ids (any tracking run gives them
    distinct ids).
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
    data = []
    labels_meta: list[str | None] = []
    dc_of: dict[ClusterRef, int] = {}
    listed: dict[ClusterRef, int] = {}
    try:
        for t, entry in enumerate(doc["snapshots"]):
            row = []
            for a, cluster in enumerate(entry["clusters"]):
                members = cluster["members"]
                if not isinstance(members, list):
                    raise SchemaError(
                        f"snapshot {t}: cluster {a}: members must be an array"
                    )
                row.append(members)
                dc_of[ClusterRef(t, a)] = _int(
                    cluster["dc"], f"snapshot {t}: cluster {a}: dc"
                )
            data.append(row)
            label = entry.get("label")
            if label is not None and not isinstance(label, str):
                raise SchemaError(f"snapshot {t}: label must be a string")
            labels_meta.append(label)
        for entry in doc["dcs"]:
            dc = _int(entry["id"], "dcs: id")
            for t, a in entry["clusters"]:
                ref = ClusterRef(
                    _int(t, "dcs: snapshot index"), _int(a, "dcs: cluster index")
                )
                if ref in listed:
                    raise SchemaError(f"dcs: cluster ({t}, {a}) is listed twice")
                listed[ref] = dc
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed result document: {exc!r}") from exc
    if listed != dc_of:
        raise SchemaError("dcs registry does not match the clusters' dc values")
    if _int(doc["snapshot_count"], "snapshot_count") != len(data):
        raise SchemaError(
            f"snapshot_count is {doc['snapshot_count']} "
            f"but the document has {len(data)} snapshots"
        )
    if data:
        last = len(data) - 1
        ids = [dc_of[ClusterRef(last, a)] for a in range(len(data[last]))]
        if len(set(ids)) != len(ids):
            raise SchemaError(
                f"snapshot {last}: several clusters of the last snapshot "
                f"share one dc id"
            )
    seq = sequence_from_lists(data, labels_meta)
    return seq, dc_of, history

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
from itertools import accumulate, pairwise
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterator

from .errors import SchemaError
from .model import ClusteringSequence, sequence_from_lists

if TYPE_CHECKING:
    from .metrics import DynamicClustering

__all__ = [
    "SCHEMA_VERSION",
    "canonical_labels",
    "build_document",
    "document_to_bytes",
    "document_chunks",
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


def canonical_labels(labels: list[list[int]]) -> list[list[int]]:
    """DC label columns renumbered by first appearance in
    snapshot-then-cluster order."""
    mapping: dict[int, int] = {}
    return [[mapping.setdefault(dc, len(mapping)) for dc in col] for col in labels]


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


def _dcs_json(columns: list[list[int]]) -> str:
    """The `dcs` array of canonical label columns."""
    # Canonical ids are 0..k-1 in order of first appearance, and each
    # DC's clusters are met in ascending order.
    refs: list[list[str]] = []
    for t, col in enumerate(columns):
        for a, dc in enumerate(col):
            if dc == len(refs):
                refs.append([])
            refs[dc].append(f"[{t},{a}]")
    dcs = ",".join(
        f'{{"clusters":[{",".join(r)}],"id":{dc}}}' for dc, r in enumerate(refs)
    )
    return f"[{dcs}]"


def document_chunks(result: DynamicClustering, tool_version: str) -> Iterator[str]:
    """`document_to_bytes(build_document(result.seq, result, tool_version))`
    as text chunks, to be written UTF-8 encoded one after another: the
    `dcs` registry with the scalar fields that sort before `snapshots`,
    one chunk per snapshot, then `tool` and `version`. No chunk holds more
    than the registry or one snapshot, and no member is copied into a
    document first.
    """
    seq = result.seq
    columns = canonical_labels(result.labels)
    yield (
        f'{{"dcs":{_dcs_json(columns)},"history":{result.x_used},'
        f'"schema":{SCHEMA_VERSION},"snapshot_count":{len(columns)},"snapshots":['
    )
    sep = ""
    for snap, label, col in zip(seq.snapshots, seq.labels, columns):
        members = list(snap.column)
        # `json.dumps` writes a string as `encode_basestring` does, which
        # adds only the two quotes unless some character needs an escape.
        text = "".join(members)
        if len(encode_basestring(text)) == len(text) + 2:
            quote, comma = '"', '","'
        else:  # each member as `json.dumps` writes it, quotes included
            members = list(map(encode_basestring, members))
            quote, comma = "", ","
        clusters = ",".join(
            f'{{"dc":{dc},"members":[{quote}{comma.join(members[i:j])}{quote}]}}'
            for dc, (i, j) in zip(col, pairwise(accumulate(snap.sizes, initial=0)))
        )
        tail = "" if label is None else f',"label":{encode_basestring(label)}'
        yield f'{sep}{{"clusters":[{clusters}]{tail}}}'
        sep = ","
    yield f'],"tool":"dynatrack","version":{encode_basestring(tool_version)}}}\n'


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


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
    columns: list[list[int]] = []
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
            data.append(row)
            columns.append(col)
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
    if _int(doc["snapshot_count"], "snapshot_count") != len(data):
        raise SchemaError(
            f"snapshot_count is {doc['snapshot_count']} "
            f"but the document has {len(data)} snapshots"
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
    seq = sequence_from_lists(data, labels_meta)
    return seq, columns, history

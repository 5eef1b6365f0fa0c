"""Writers of result documents (the reader is `resultdoc`).

`document_chunks` writes the document that `track` and `oracle` output,
chunk by chunk; `build_document` and `document_to_bytes` build and encode
the same document whole, as the reference that the chunks must equal. DC
ids are canonicalised by first appearance (snapshot order, then cluster
order) and the JSON encoding is byte-deterministic, so outputs are
directly comparable across runs and implementations.
"""

from __future__ import annotations

import json
from itertools import accumulate, pairwise
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterator

from . import SCHEMA_VERSION

if TYPE_CHECKING:
    from .metrics import DynamicClustering
    from .model import ClusteringSequence

__all__ = [
    "canonical_labels",
    "build_document",
    "document_to_bytes",
    "document_chunks",
]


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

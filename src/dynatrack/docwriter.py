"""Writers of result documents (the reader is `resultdoc`).

`document_chunks` writes the document chunk by chunk; `build_document`
and `document_to_bytes` in `reference` build and encode the same
document whole, as the reference that the chunks must equal. DC ids are
canonicalised by first appearance (snapshot order, then cluster order)
and the JSON encoding is byte-deterministic, so outputs are directly
comparable across runs and implementations. `_write_labelling` writes
the document of the `track` and `oracle` commands.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterator

from . import SCHEMA_VERSION, _lazy

if TYPE_CHECKING:
    from .result import DynamicClustering

__all__ = [
    "canonical_labels",
    "build_document",
    "document_to_bytes",
    "document_chunks",
]

__getattr__ = _lazy(
    __name__, {"build_document": "reference", "document_to_bytes": "reference"}
)


def canonical_labels(labels: list[list[int]]) -> list[list[int]]:
    """DC label columns renumbered by first appearance in
    snapshot-then-cluster order."""
    mapping: dict[int, int] = {}
    return [[mapping.setdefault(dc, len(mapping)) for dc in col] for col in labels]


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


def _write_labelling(args, labelling) -> int:
    """What the `track` and `oracle` commands run: write the result document
    of `labelling(seq, x)` on the input."""
    from . import __version__, cli

    if args.history < 0:
        return cli._usage_error("--history must be non-negative")
    seq = cli._load_input(args)
    result = labelling(seq, args.history)
    cli._write(args.output, map(str.encode, document_chunks(result, __version__)))
    return 0

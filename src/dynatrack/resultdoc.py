"""Reading versioned result documents (the writers are in `docwriter`).

A result document carries everything downstream consumers (event listing,
rendering) need: per snapshot the clusters with their members and dynamic
cluster id, the DC registry, and run metadata. `read_tables` turns one
into the label columns, cluster sizes and shared-member count tables that
`events` and `render` read; `load_document` gives the labelled
`ClusteringSequence` instead. Both decode the text one snapshot at a time,
with the C scanner that `json.loads` uses, and run the same checks, in the
same order, with the same errors as checking one `json.loads` tree.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable

from . import SCHEMA_VERSION
from .errors import SchemaError, SequenceValidationError
from .kernel import NO_SNAPSHOTS, check_int, count_runs, load_json, member_index

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

    One pass over the text decodes one snapshot at a time and counts each
    pair as its later snapshot arrives, so that at most two member
    indexes and one snapshot's JSON are held, beside the text, the
    results and the `dcs` refs as one flat list of ints. The checks, their
    order and their errors are those of `load_document`.
    """
    sizes: list[tuple[int, ...]] = []
    tables: list[list[tuple[int, int, int]]] = []
    last: dict[str, int] = {}

    def count(t: int, column: dict[str, int], counts: tuple[int, ...]) -> None:
        nonlocal last
        if t:
            tables.append(count_runs(last, sizes[-1], column))
        else:  # the first snapshot of a (possibly repeated) `snapshots` key
            del sizes[:], tables[:]
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
    does, once every other check has passed. The text is decoded one
    snapshot at a time, as `read_tables` does.
    """
    from .model import ClusteringSequence, Snapshot

    snapshots: list[Snapshot] = []

    def keep(t: int, column: dict[str, int], sizes: tuple[int, ...]) -> None:
        snapshots[t:] = [Snapshot(column, sizes)]  # t = 0 starts again

    columns, labels, history = _read(raw, True, keep)
    return ClusteringSequence(tuple(snapshots), tuple(labels)), columns, history


def _read(
    raw: bytes | str,
    sort: bool,
    keep: Callable[[int, dict[str, int], tuple[int, ...]], None],
) -> tuple[list[list[int]], list[str | None], int]:
    """Decode and check a result document; return its label columns,
    snapshot labels and history.

    Each snapshot's member index (`kernel.member_index`, members sorted
    within each cluster if `sort`) goes to `keep` with its snapshot index;
    a repeated `snapshots` key starts again from 0, as the last one wins in
    `json.loads`. The errors and their order are those of checking one
    `json.loads` tree: a JSON syntax error anywhere, the top-level fields,
    the snapshots, the `dcs` entries against them, the counts, and the
    first invalid snapshot's SequenceValidationError last.
    """
    try:
        doc = _decode(raw, sort, keep)
    except (ValueError, StopIteration, RecursionError):
        # json.loads names the fault, or finds a top level that is no object.
        load_json(raw, SchemaError, "result document")
        raise SchemaError("result document must be a JSON object") from None
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema version {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    for key in ("history", "snapshot_count", "snapshots", "dcs"):
        if key not in doc:
            raise SchemaError(f"result document is missing {key!r}")
    history = check_int(doc["history"], "history", SchemaError)
    if history < 0:
        raise SchemaError(f"history must be non-negative, got {history}")
    snapshots, registry = doc["snapshots"], doc["dcs"]
    if snapshots.error is not None:
        raise snapshots.error
    columns = snapshots.columns
    unmatched, reused = registry.against(columns)
    if unmatched:
        raise SchemaError("dcs registry does not match the clusters' dc values")
    if check_int(doc["snapshot_count"], "snapshot_count", SchemaError) != len(columns):
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
    if reused:
        raise SchemaError("dcs registry does not match the clusters' dc values")
    if snapshots.invalid is not None:
        raise snapshots.invalid
    if not columns:
        raise SequenceValidationError(NO_SNAPSHOTS)
    return columns, snapshots.labels, history


# The parts of `json.loads` that the reader drives: the C scanner of one
# decoder, which decodes one value at `scan_once(text, index)`, the key
# decoder, and the whitespace JSON allows between tokens.
_SCAN = json.JSONDecoder().scan_once
_KEY = json.decoder.scanstring
_SPACE = json.decoder.WHITESPACE.match


def _decode(raw: bytes | str, sort: bool, keep: Callable) -> dict:
    """The fields of the JSON object `raw` as `json.loads` decodes them
    (the last of a repeated key wins), but with `snapshots` and `dcs` as
    streams fed their values, element by element if they are arrays.
    Raises where `json.loads` raises, and on a top level that is no object.
    """
    if not isinstance(raw, str):
        raw = raw.decode(json.detect_encoding(raw), "surrogatepass")
    fields: dict = {}

    def field(end):
        if raw[end : end + 1] != '"':
            raise ValueError
        key, end = _KEY(raw, end + 1)
        end = _SPACE(raw, end).end()
        if raw[end : end + 1] != ":":
            raise ValueError
        end = _SPACE(raw, end + 1).end()
        if key != "snapshots" and key != "dcs":
            fields[key], end = _SCAN(raw, end)
            return end
        stream = _Snapshots(sort, keep) if key == "snapshots" else _Registry()
        fields[key] = stream
        if raw[end : end + 1] != "[":
            value, end = _SCAN(raw, end)
            stream.add(value, stream.check_each)
            return end

        def element(end):
            value, end = _SCAN(raw, end)
            stream.add(value)
            return end

        return _items(raw, end + 1, "]", element)

    end = _SPACE(raw, 0).end()
    if raw[end : end + 1] != "{":
        raise ValueError
    if _SPACE(raw, _items(raw, end + 1, "}", field)).end() != len(raw):
        raise ValueError
    return fields


def _items(text: str, end: int, close: str, item: Callable[[int], int]) -> int:
    """Decode the items of the JSON array or object whose opening bracket
    ends before `end` with `item(index)`, which returns the index after
    the item; return the index after the closing bracket `close`."""
    end = _SPACE(text, end).end()
    if text[end : end + 1] == close:
        return end + 1
    while True:
        end = _SPACE(text, item(end)).end() + 1
        if text[end - 1 : end] == close:
            return end
        if text[end - 1 : end] != ",":
            raise ValueError
        end = _SPACE(text, end).end()


class _Stream:
    """The checks of one array field, run on each element as it is decoded.
    The first error is held in `error`, and no element is checked after it.
    """

    error = None

    def add(self, entry, check=None) -> None:
        """Run `check(entry)`, by default the element check, unless an error
        is held; hold its SchemaError (a KeyError, TypeError or ValueError
        as a malformed document)."""
        if self.error is None:
            try:
                (check or self.check)(entry)
            except SchemaError as exc:
                self.error = exc
            except (KeyError, TypeError, ValueError) as exc:
                self.error = SchemaError(f"malformed result document: {exc!r}")
                self.error.__cause__ = exc

    def check_each(self, value) -> None:
        """Check each element of a value that is not an array, as iterating
        it gives them."""
        for entry in value:
            self.check(entry)


class _Snapshots(_Stream):
    """A `snapshots` array: its label columns and snapshot labels; each
    snapshot's member index goes to `keep` (see `_read`)."""

    invalid = None

    def __init__(self, sort: bool, keep: Callable):
        self.sort, self.keep = sort, keep
        self.columns, self.labels = [], []

    def check(self, entry) -> None:
        t = len(self.columns)
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
                check_int(cluster["dc"], f"snapshot {t}: cluster {a}: dc", SchemaError)
        self.columns.append(col)
        if self.invalid is None:
            try:
                self.keep(t, *member_index(t, row, self.sort))
            except SequenceValidationError as exc:
                self.invalid = exc
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise SchemaError(f"snapshot {t}: label must be a string")
        self.labels.append(label)


class _Registry(_Stream):
    """A `dcs` array: each entry's id and number of refs, and the refs as
    one flat list of (snapshot, cluster) pairs, to be checked against the
    label columns once every snapshot has been read."""

    def __init__(self):
        self.ids, self.counts, self.refs = [], [], []

    def check(self, entry) -> None:
        self.ids.append(check_int(entry["id"], "dcs: id", SchemaError))
        refs = entry["clusters"]
        if type(refs) is list and set(map(type, refs)) <= {list}:
            if set(map(len, refs)) <= {2}:  # pairs, flattened in C
                self.counts.append(len(refs))
                self.refs += chain.from_iterable(refs)
                return
        self.counts.append(0)
        for t, a in refs:
            self.counts[-1] += 1
            self.refs += t, a

    def against(self, columns: list[list[int]]) -> tuple[bool, bool]:
        """Whether the entries fail to list exactly the clusters' dc values,
        and whether an entry lists no cluster or shares its id with another.
        Raises for a ref that is no pair of ints or a cluster listed twice,
        then for the error held while streaming, in the order the entries
        name them."""
        # Each cluster's listed id by snapshot and cluster index (None
        # while unlisted), and the listed refs that name no cluster.
        listed: list[list[int | None]] = [[None] * len(col) for col in columns]
        stray: set[tuple[int, int]] = set()
        flat = iter(self.refs)
        refs = zip(flat, flat)
        for dc, count in zip(self.ids, self.counts):
            for t, a in islice(refs, count):
                if type(t) is not int or type(a) is not int:
                    check_int(t, "dcs: snapshot index", SchemaError)
                    check_int(a, "dcs: cluster index", SchemaError)
                if 0 <= t < len(listed) and 0 <= a < len(listed[t]):
                    if listed[t][a] is None:
                        listed[t][a] = dc
                        continue
                elif (t, a) not in stray:
                    stray.add((t, a))
                    continue
                raise SchemaError(f"dcs: cluster ({t}, {a}) is listed twice")
        if self.error is not None:
            raise self.error
        used = {dc for dc, count in zip(self.ids, self.counts) if count}
        return bool(stray) or listed != columns, len(used) != len(self.ids)

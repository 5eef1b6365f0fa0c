"""Snapshot data model: clustering sequences and parsing.

A clustering sequence is an ordered list of snapshots; each snapshot is a
disjoint family of non-empty member-ID sets. Member IDs are opaque UTF-8
strings compared by exact equality. Snapshot order is file order; optional
labels are carried along but never used for ordering.

`parse_sequence` reads the JSON layout here; the CSV reader is in
`csvinput`, loaded only for CSV input, and the writer of the JSON layout,
`sequence_to_json_bytes`, is in `generator`, whose fixtures it writes. It
stays importable from here.
"""

from __future__ import annotations

import json
from itertools import accumulate, pairwise
from typing import Iterable, NamedTuple, Sequence

from . import _lazy
from .errors import ParseError, SequenceValidationError
from .kernel import NO_SNAPSHOTS, _Record, member_index

__all__ = [
    "ClusterRef",
    "Snapshot",
    "ClusteringSequence",
    "sequence_from_lists",
    "parse_sequence",
    "sequence_to_json_bytes",
]

__getattr__ = _lazy(__name__, {"sequence_to_json_bytes": "generator"})


class ClusterRef(NamedTuple):
    """Stable handle for one cluster: (snapshot index, cluster index)."""

    time: int
    cluster: int


class Snapshot(_Record):
    """One time point's clustering: `column` maps members (in cluster order,
    sorted within each cluster) to cluster indices; `sizes` holds cluster sizes."""

    __slots__ = ("column", "sizes")
    _fields = ("clusters",)

    def __init__(self, column: dict[str, int], sizes: tuple[int, ...]) -> None:
        self.column = column
        self.sizes = sizes

    @property
    def clusters(self) -> tuple[tuple[str, ...], ...]:
        members = tuple(self.column)
        return tuple(members[a:b] for a, b in pairwise((0, *accumulate(self.sizes))))

    def __len__(self) -> int:
        return len(self.sizes)


class ClusteringSequence(_Record):
    """Ordered snapshots plus optional per-snapshot labels."""

    __slots__ = _fields = ("snapshots", "labels")

    def __init__(
        self, snapshots: tuple[Snapshot, ...], labels: tuple[str | None, ...] = ()
    ) -> None:
        if not snapshots:
            raise SequenceValidationError(NO_SNAPSHOTS)
        if not labels:
            labels = (None,) * len(snapshots)
        elif len(labels) != len(snapshots):
            raise SequenceValidationError(
                f"{len(labels)} labels for {len(snapshots)} snapshots"
            )
        self.snapshots = snapshots
        self.labels = labels

    def __len__(self) -> int:
        return len(self.snapshots)

    def check_label_columns(self, labels: Sequence[Sequence[int]]) -> None:
        """Raise ValueError unless `labels` holds one column per snapshot
        and one label per cluster (labels[t][a] for cluster a of snapshot t)."""
        if len(labels) != len(self):
            raise ValueError(f"{len(labels)} label columns for {len(self)} snapshots")
        for t, (column, snap) in enumerate(zip(labels, self.snapshots)):
            if len(column) != len(snap):
                raise ValueError(
                    f"snapshot {t}: {len(column)} labels for {len(snap)} clusters"
                )


def sequence_from_lists(
    data: Sequence[Sequence[Iterable[str]]],
    labels: Sequence[str | None] | None = None,
) -> ClusteringSequence:
    """Build and validate a sequence from plain nested collections.

    Raises SequenceValidationError for empty clusters, empty or non-string
    member IDs, and members repeated within a snapshot.
    """
    snapshots = [
        Snapshot(*member_index(t, list(map(list, clusters)), True))
        for t, clusters in enumerate(data)
    ]
    return ClusteringSequence(
        snapshots=tuple(snapshots),
        labels=tuple(labels) if labels is not None else (),
    )


def _parse_json(text: str) -> ClusteringSequence:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError("JSON input is nested too deeply") from None
    except ValueError:  # an integer literal too long to convert
        raise ParseError("JSON input holds an integer too long to read") from None
    if not isinstance(doc, dict) or "snapshots" not in doc:
        raise ParseError('top-level JSON object must contain a "snapshots" array')
    raw_snaps = doc["snapshots"]
    if not isinstance(raw_snaps, list):
        raise ParseError('"snapshots" must be an array')
    # An escape of half a surrogate pair decodes to a lone surrogate, which
    # no UTF-8 output can hold; only input with such an escape is checked,
    # and input without any escape pays one substring scan.
    escaped = "\\u" in text and ("\\ud" in text or "\\uD" in text)
    data = []
    labels: list[str | None] = []
    for t, entry in enumerate(raw_snaps):
        if not isinstance(entry, dict) or "clusters" not in entry:
            raise ParseError(f'snapshot {t} must be an object with a "clusters" array')
        clusters = entry["clusters"]
        if not isinstance(clusters, list) or any(
            not isinstance(c, list) for c in clusters
        ):
            raise ParseError(f'snapshot {t}: "clusters" must be an array of arrays')
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"snapshot {t}: label must be a string")
        if escaped:
            try:
                json.dumps([label, clusters], ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(
                    f"snapshot {t}: a member ID or the label holds a lone "
                    f"surrogate escape"
                ) from None
        data.append(clusters)
        labels.append(label)
    return sequence_from_lists(data, labels)


def parse_sequence(source: bytes | str, fmt: str = "json") -> ClusteringSequence:
    """Parse a clustering sequence from raw file content.

    `fmt` is "json" or "csv"; see the README for both layouts. Syntax
    problems raise ParseError, invariant violations raise
    SequenceValidationError.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = source
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"input holds a lone surrogate at {exc.start}") from None
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        from .csvinput import parse_csv

        return parse_csv(text)
    raise ValueError(f"unknown input format {fmt!r}")

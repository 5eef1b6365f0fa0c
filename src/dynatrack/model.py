"""Snapshot data model: clustering sequences and parsing.

A clustering sequence is an ordered list of snapshots; each snapshot is a
disjoint family of non-empty member-ID sets. Member IDs are opaque UTF-8
strings compared by exact equality. Snapshot order is file order; optional
labels are carried along but never used for ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError, SequenceValidationError

__all__ = [
    "ClusterRef",
    "Snapshot",
    "ClusteringSequence",
    "sequence_from_lists",
    "parse_sequence",
    "sequence_to_json_dict",
    "sequence_to_json_bytes",
    "subsequence",
]


class ClusterRef(NamedTuple):
    """Stable handle for one cluster: (snapshot index, cluster index)."""

    time: int
    cluster: int


@dataclass(frozen=True)
class Snapshot:
    """One time point's clustering: a disjoint family of member sets."""

    index: int
    clusters: tuple[frozenset[str], ...]

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class ClusteringSequence:
    """Ordered snapshots plus optional per-snapshot labels."""

    snapshots: tuple[Snapshot, ...]
    labels: tuple[str | None, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise SequenceValidationError("a sequence needs at least one snapshot")
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * len(self.snapshots))
        elif len(self.labels) != len(self.snapshots):
            raise SequenceValidationError(
                f"{len(self.labels)} labels for {len(self.snapshots)} snapshots"
            )

    def __len__(self) -> int:
        return len(self.snapshots)

    def cluster_refs(self) -> Iterable[ClusterRef]:
        for snap in self.snapshots:
            for alpha in range(len(snap.clusters)):
                yield ClusterRef(snap.index, alpha)


def sequence_from_lists(
    data: Sequence[Sequence[Iterable[str]]],
    labels: Sequence[str | None] | None = None,
) -> ClusteringSequence:
    """Build and validate a sequence from plain nested collections.

    Raises SequenceValidationError for empty clusters, empty or non-string
    member IDs, and members repeated within a snapshot.
    """
    snapshots = []
    for t, raw_clusters in enumerate(data):
        seen: set[str] = set()
        clusters = []
        for alpha, raw in enumerate(raw_clusters):
            members = list(raw)
            if not members:
                raise SequenceValidationError(
                    f"snapshot {t}: cluster {alpha} is empty"
                )
            for m in members:
                if not isinstance(m, str) or not m:
                    raise SequenceValidationError(
                        f"snapshot {t}: cluster {alpha} has a non-string or "
                        f"empty member ID ({m!r})"
                    )
                if m in seen:
                    raise SequenceValidationError(
                        f"snapshot {t}: member {m!r} appears in more than one cluster"
                    )
                seen.add(m)
            clusters.append(frozenset(members))
        snapshots.append(Snapshot(index=t, clusters=tuple(clusters)))
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


def _csv_rows(text: str) -> Iterable[list[str]]:
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"CSV line {reader.line_num}: {exc}") from None


def _parse_csv(text: str) -> ClusteringSequence:
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV input") from None
    if [h.strip() for h in header] != ["t", "member", "cluster"]:
        raise ParseError('CSV header must be "t,member,cluster"')
    by_time: dict[int, dict[int, list[str]]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        t_raw, member, cluster_raw = row
        try:
            t = int(t_raw)
            cluster = int(cluster_raw)
        except ValueError:
            raise ParseError(
                f"line {lineno}: t and cluster must be integers"
            ) from None
        if t < 0 or cluster < 0:
            raise ParseError(f"line {lineno}: t and cluster must be non-negative")
        by_time.setdefault(t, {}).setdefault(cluster, []).append(member)
    if not by_time:
        raise ParseError("CSV contains no data rows")
    missing = _first_gap(by_time)
    if missing is not None:
        raise SequenceValidationError(
            f"snapshot indices have gaps: missing t={missing}"
        )
    data = []
    for t in range(len(by_time)):
        clusters_for_t = by_time[t]
        gap = _first_gap(clusters_for_t)
        if gap is not None:
            raise SequenceValidationError(
                f"snapshot {t}: cluster indices have gaps: missing cluster={gap}"
            )
        data.append([clusters_for_t[c] for c in range(len(clusters_for_t))])
    return sequence_from_lists(data)


def _first_gap(keys: dict[int, object]) -> int | None:
    """The smallest index missing from non-negative `keys`, if one is.

    It is at most len(keys), so a huge index in the input costs nothing.
    """
    if max(keys) == len(keys) - 1:
        return None
    return next(i for i in range(len(keys) + 1) if i not in keys)


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
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown input format {fmt!r}")


def sequence_to_json_dict(seq: ClusteringSequence) -> dict:
    """Plain-JSON form of a sequence; inverse of parse_sequence for “json”.

    Cluster membership is order-free, so members are emitted sorted.
    """
    snaps = []
    for snap, label in zip(seq.snapshots, seq.labels):
        entry: dict = {"clusters": [sorted(c) for c in snap.clusters]}
        if label is not None:
            entry["label"] = label
        snaps.append(entry)
    return {"snapshots": snaps}


def sequence_to_json_bytes(seq: ClusteringSequence) -> bytes:
    doc = sequence_to_json_dict(seq)
    return (
        json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        + "\n"
    ).encode("utf-8")


def subsequence(seq: ClusteringSequence, end: int) -> ClusteringSequence:
    """Prefix of the sequence containing snapshots 0..end-1."""
    if not (1 <= end <= len(seq)):
        raise IndexError(f"prefix length out of range (T={len(seq)}, got {end})")
    return ClusteringSequence(
        snapshots=seq.snapshots[:end], labels=seq.labels[:end]
    )

"""The CSV input layout: one `t,member,cluster` row per member.

`model.parse_sequence` reads CSV input with `parse_csv`, and imports this
module, with `csv` and `io`, only for CSV input.
"""

from __future__ import annotations

import csv
import io
from typing import Iterator

from .errors import ParseError, SequenceValidationError
from .model import ClusteringSequence, sequence_from_lists

__all__ = ["parse_csv"]


def _csv_rows(text: str) -> Iterator[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"CSV line {reader.line_num}: {exc}") from None


def parse_csv(text: str) -> ClusteringSequence:
    """The sequence of the CSV text `text` (see the README for the layout).
    Syntax problems raise ParseError, invariant violations raise
    SequenceValidationError."""
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

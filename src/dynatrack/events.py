"""Life-cycle events of a tracking result as records.

`metrics.event_rows` finds the events as plain rows; this module wraps
them in `LifecycleEvent` dataclass records, so only programs that want
the records load it, and with it `dataclasses`."""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import DynamicClustering, event_rows
from .model import ClusteringSequence

__all__ = ["LifecycleEvent", "classify_events"]


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
    of `metrics.event_rows`, in their order (by time, then DC, then
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

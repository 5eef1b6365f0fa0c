"""Scores of a tracking result, and the `sweep` command.

`consistencies` gives the total membership consistency of a result in
both modes, from one pass per pair of neighbouring snapshots over its
shared-member count table, against the label columns and the size
tables, never the member strings; `summary_stats` counts its DCs and
their lifespans. `cmd_sweep` tracks the input at each history of a range
and writes both for each. Only the `sweep` command loads this module.
All functions here are pure; results are treated as immutable.

The result itself is in `result`, the life-cycle events in `events`, and
`total_consistency` in `reference`; each stays importable from here.
"""

from __future__ import annotations

import sys
from collections import Counter
from operator import mul
from typing import TYPE_CHECKING

from . import _lazy
from .kernel import _Record

if TYPE_CHECKING:
    from .result import DynamicClustering

__all__ = [
    "DynamicClustering",
    "clustering_from_labels",
    "dc_sizes",
    "event_rows",
    "LifecycleEvent",
    "classify_events",
    "consistencies",
    "total_consistency",
    "SummaryStats",
    "summary_stats",
]

__getattr__ = _lazy(__name__, {
    "DynamicClustering": "result", "clustering_from_labels": "result",
    "dc_sizes": "result", "event_rows": "events", "LifecycleEvent": "reference",
    "classify_events": "reference", "total_consistency": "reference",
})

# The columns of a sweep CSV row: keys of that x's record, each with the
# format of its value (`_cell`).
SWEEP_COLUMNS = {
    "x": "", "dc_count": "", "mean_lifespan": "", "weighted_mean_lifespan": "",
    "consistency_all": ".6f", "consistency_resident": ".6f",
}
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)


def consistencies(result: DynamicClustering) -> tuple[float | None, float | None]:
    """Total consistency as (all_members, residents_only): the mean
    per-DC membership auto-correlation over all consecutive presence
    pairs, or None in both when no DC has such a pair.

    For a DC with clusters A at i and B at i+1, "all_members" divides
    |A∩B| by |A∪B| = |A| + |B| - |A∩B|; "residents_only" counts in the
    union only the members present in both snapshots system-wide, so
    members entering or leaving the dataset do not dilute the score.
    One pass over the pair's count table, read only when some DC is
    present at both snapshots, gives |A∩B| (the cells the DC keeps), the
    cells leaving A and those entering B; since A holds only members
    present at i and B only members present at i+1, the resident union
    is leaving + entering - |A∩B|. Terms are summed by ascending DC id,
    then time. The result must label every cluster, as those of
    `result.clustering_from_labels` do.
    """
    labels = result.labels
    sizes = result.sizes
    # (DC, i, |A∩B|, union, resident union) of each presence pair.
    terms: list[tuple[int, int, int, int, int]] = []
    for i in range(len(labels) - 1):
        la, lb = labels[i], labels[i + 1]
        sa, sb = sizes[i], sizes[i + 1]
        shared = dict.fromkeys(sa.keys() & sb.keys(), 0)
        if not shared:
            continue
        leave: dict[int, int] = {}
        enter: dict[int, int] = {}
        for ca, cb, n in result.tables()[i]:
            a = la[ca]
            b = lb[cb]
            if a == b:
                shared[a] += n
            leave[a] = leave.get(a, 0) + n
            enter[b] = enter.get(b, 0) + n
        for dc, kept in shared.items():
            union = sa[dc] + sb[dc] - kept
            resident = leave.get(dc, 0) + enter.get(dc, 0) - kept
            terms.append((dc, i, kept, union, resident))
    if not terms:
        return None, None
    terms.sort()
    total = total_res = 0.0
    for _dc, _i, kept, union, resident in terms:
        if union:
            total += kept / union
        if resident:
            total_res += kept / resident
    return total / len(terms), total_res / len(terms)


class SummaryStats(_Record):
    """Head-count statistics of a dynamic clustering (by default with a
    new empty `lifespan_histogram`)."""

    __slots__ = _fields = (
        "dc_count", "lifespan_histogram", "mean_lifespan", "weighted_mean_lifespan"
    )

    def __init__(
        self, dc_count: int, lifespan_histogram: dict[int, int] | None = None,
        mean_lifespan: float | None = None,
        weighted_mean_lifespan: float | None = None,
    ) -> None:
        if lifespan_histogram is None:
            lifespan_histogram = {}
        self.dc_count = dc_count
        self.lifespan_histogram = lifespan_histogram
        self.mean_lifespan = mean_lifespan
        self.weighted_mean_lifespan = weighted_mean_lifespan


def summary_stats(result: DynamicClustering) -> SummaryStats:
    """DC count, lifespan histogram, and (weighted) mean lifespans.

    The weighted mean weights each DC's lifespan by its total
    member-snapshot count: the lifespan of the DC an average member
    resides in.
    """
    # One pass over the (snapshot, DC) entries: each DC's [lifespan,
    # member-snapshots]; the weighted sum is then taken in ints, exactly.
    per_dc: dict[int, list[int]] = {}
    for present in result.sizes:
        for dc, size in present.items():
            try:
                counts = per_dc[dc]
            except KeyError:
                per_dc[dc] = [1, size]
            else:
                counts[0] += 1
                counts[1] += size
    if not per_dc:
        return SummaryStats(dc_count=0)
    lifespans, totals = zip(*per_dc.values())
    return SummaryStats(
        dc_count=len(per_dc),
        lifespan_histogram=dict(sorted(Counter(lifespans).items())),
        mean_lifespan=sum(lifespans) / len(per_dc),
        weighted_mean_lifespan=sum(map(mul, lifespans, totals)) / sum(totals),
    )


def _cell(value, spec: str) -> str:
    """`value` in the format `spec`; None is an empty cell."""
    return "" if value is None else format(value, spec)


def cmd_sweep(args) -> int:
    """The `sweep` command: one row of scores per history in the range, as
    CSV and if asked JSON, and the best x of each consistency on stderr."""
    from . import cli
    from .relations import RelationCache
    from .tracking import track

    if args.history_min < 0:
        return cli._usage_error("--history-min must be non-negative")
    if args.history_min > args.history_max:
        return cli._usage_error("--history-min must not exceed --history-max")
    seq = cli._load_input(args)
    rels = RelationCache(seq)
    records = []
    # The search depth of a target at snapshot t is min(t, x) <= T - 1, so
    # every x >= T - 1 gives the labels, and the numbers, of x = T - 1.
    # The rows stop at the first x where that holds.
    last = min(args.history_max, max(args.history_min, len(seq) - 1))
    for x in range(args.history_min, last + 1):
        result = track(seq, x, relations=rels)
        stats = summary_stats(result)
        cons_all, cons_res = consistencies(result)
        records.append(
            {
                "x": x,
                "dc_count": stats.dc_count,
                "lifespan_histogram": stats.lifespan_histogram,
                "mean_lifespan": stats.mean_lifespan,
                "weighted_mean_lifespan": stats.weighted_mean_lifespan,
                "consistency_all": cons_all,
                "consistency_resident": cons_res,
            }
        )
    rows = [
        ",".join(_cell(r[key], spec) for key, spec in SWEEP_COLUMNS.items())
        for r in records
    ]
    csv_text = SWEEP_HEADER + "\n" + "\n".join(rows) + "\n"
    cli._write(args.output, [csv_text.encode("utf-8")])
    if args.json:
        cli._write_json(args.json, {"schema": 1, "sweep": records})
    if args.history_max > last:
        print(
            f"every x > {last} gives the row of x = {last} "
            f"(the search depth is at most T - 1 = {len(seq) - 1})",
            file=sys.stderr,
        )
    for key in ("consistency_all", "consistency_resident"):
        defined = [r for r in records if r[key] is not None]
        if defined:
            best = max(r[key] for r in defined)
            xs = [str(r["x"]) for r in defined if r[key] == best]
            print(
                f"best {key}: {best:.6f} at x = {', '.join(xs)}",
                file=sys.stderr,
            )
    return 0

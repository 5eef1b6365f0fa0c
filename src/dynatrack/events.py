"""Life-cycle events of a labelling, and the `events` command.

`event_rows` finds the events of label columns as plain rows, from the
count tables and DC size tables, never the member strings; `cmd_events`
writes those of a result document. Only the `events` command loads this
module. The `LifecycleEvent` records of `classify_events` are reference
forms, in `reference`, re-exported here on first use.
"""

from __future__ import annotations

from . import _lazy

__all__ = ["event_rows", "LifecycleEvent", "classify_events"]

# Loads `reference`, and the `dataclasses` it needs, only on first use.
__getattr__ = _lazy(
    __name__, {"LifecycleEvent": "reference", "classify_events": "reference"}
)


def event_rows(
    labels: list[list[int]],
    sizes: list[dict[int, int]],
    tables: list[list[tuple[int, int, int]]],
) -> list[tuple[int, int, str, tuple[int, ...], int]]:
    """All life-cycle events of a labelling as rows (time, dc, kind,
    related, delta), sorted; no two share (time, dc, kind). For a result,
    pass `result.labels`, `result.sizes` and `result.tables()`; for a
    document, `resultdoc.read_tables` gives the labels and tables, and
    `dc_sizes` the sizes.

    kind is one of birth, death, growth, shrinkage, split, merge. Events
    are read from the count tables (tables[i] between snapshots i and
    i+1), the DC size tables and the labels, one snapshot pair i → i+1 at
    a time; each has time i+1. Birth requires that no member of the DC's
    first clusters was present at the previous snapshot, that is no
    count cell enters them; death that no cell leaves its last clusters.
    Both are therefore optional, and undefined at the sequence boundaries. Split (merge) fires when the
    cells leaving (entering) a DC's clusters reach several clusters at
    the next (previous) snapshot that, with the DC itself, belong to at
    least two distinct DCs; `related` lists those other DCs ascending.
    Growth and shrinkage are reported per consecutive presence pair with
    non-zero size change, `delta` being the signed member-count change
    (0 for every other kind). Events are not mutually exclusive.
    """
    # Each DC's last snapshot, and the DCs met before the current pair's
    # later snapshot: one container for all DCs, none per DC.
    last = {dc: t for t, present in enumerate(sizes) for dc in present}
    seen = set(sizes[0])
    rows: list = []
    add = rows.append
    for i in range(len(labels) - 1):
        t = i + 1
        la, lb = labels[i], labels[t]
        # A cluster each DC at i reaches at t and each DC at t reaches
        # back to at i; the DCs that reach more than one; the DC pairs
        # that cells join.
        fwd: dict[int, int] = {}
        back: dict[int, int] = {}
        splitting: set[int] = set()
        merging: set[int] = set()
        cross: set[tuple[int, int]] = set()
        for ca, cb, _n in tables[i]:
            a = la[ca]
            b = lb[cb]
            if fwd.setdefault(a, cb) != cb:
                splitting.add(a)
            if back.setdefault(b, ca) != ca:
                merging.add(b)
            if a != b:
                cross.add((a, b))
        # In (a, b) order both lists come out ascending.
        splits: dict[int, list[int]] = {}
        merges: dict[int, list[int]] = {}
        for a, b in sorted(cross):
            if a in splitting:
                splits.setdefault(a, []).append(b)
            if b in merging:
                merges.setdefault(b, []).append(a)
        for dc, related in splits.items():
            add((t, dc, "split", tuple(related), 0))
        for dc, related in merges.items():
            add((t, dc, "merge", tuple(related), 0))
        before, after = sizes[i], sizes[t]
        for dc in before.keys() - fwd:
            if last[dc] == i:
                add((t, dc, "death", (), 0))
        for dc in after.keys() - back:
            if dc not in seen:
                add((t, dc, "birth", (), 0))
        seen.update(after)
        for dc in before.keys() & after.keys():
            delta = after[dc] - before[dc]
            if delta > 0:
                add((t, dc, "growth", (), delta))
            elif delta < 0:
                add((t, dc, "shrinkage", (), delta))
    rows.sort()
    return rows


def cmd_events(args) -> int:
    """The `events` command: the events of the result document
    `args.result`, as JSON, to `args.output`."""
    from . import cli
    from .result import dc_sizes
    from .resultdoc import read_tables

    labels, sizes, tables, _x = read_tables(cli._read(args.result))
    rows = event_rows(labels, dc_sizes(labels, sizes), tables)
    # The compact, key-sorted JSON that `json.dumps` would write: every
    # field is an int or an ASCII kind word.
    events = ",".join(
        f'{{"dc":{dc},"delta":{delta},"kind":"{kind}",'
        f'"related":[{",".join(map(str, related))}],"time":{time}}}'
        for time, dc, kind, related, delta in rows
    )
    cli._write(args.output, [f'{{"events":[{events}],"schema":1}}\n'.encode()])
    return 0

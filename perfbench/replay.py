"""In-process replay of the CLI subcommands, with a span around each layer call.

The replay calls the public functions that ``dynatrack.cli`` calls, in the
same order, and writes the same bytes; the benchmark checks that they equal
the CLI's. ``track`` is replayed through its public steps (``RelationCache``,
``new_state``, ``process_snapshot``, ``finalize``) so that relation building,
the source search and finalize each get a span. Building every pair table
before the search, instead of on first use, gives the same tables.

Counters are derived only from public data: the pair tables' ``counts`` and
the ``TraceEvent``s of ``new_state(..., trace=True)``. They are summed over
every call the replay makes, like the span timings.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import dynatrack
from dynatrack import relations
from dynatrack.alluvial import build_layout, layout_to_svg
from dynatrack.cli import SWEEP_HEADER
from dynatrack.metrics import classify_events, summary_stats, total_consistency
from dynatrack.model import parse_sequence
from dynatrack.oracle import brute_force_track
from dynatrack.relations import RelationCache
from dynatrack.resultdoc import (
    build_document,
    clustering_from_labels,
    document_to_bytes,
    load_document,
)
from dynatrack.tracking import finalize, new_state, process_snapshot

# Span of the replay's own bookkeeping (counting); it is part of the
# tracing overhead and belongs to no layer of the package.
COUNT_SPAN = "replay.count"


class Spans:
    """Spans kept in memory: name, start, end, parent span and workload id.

    Spans nest strictly (one thread), so a span's self time is its
    duration minus the durations of its direct children.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def innermost(self) -> str | None:
        return self.records[self._open[-1]]["name"] if self._open else None

    def busy(self) -> dict[str, float]:
        """Duration per span name, summed over calls."""
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            out[r["name"]] += r["end"] - r["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over calls."""
        out = self.busy()
        for r in self.records:
            if r["parent"] is not None:
                out[self.records[r["parent"]]["name"]] -= r["end"] - r["start"]
        return out


class Replay:
    """Replays `track`, `sweep`, `events`, `render` and `oracle` in process.

    Each method takes the paths and options of the matching subcommand and
    writes the file that the subcommand would write.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self.counts: Counter = Counter()

    @contextmanager
    def kernel_spans(self):
        """Time the overlap kernel inside the replay's own pair-table builds.

        ``RelationCache.pair`` calls the kernel through the name
        ``relations.pair_counts``; the layout's private rebuild is left
        inside ``alluvial.layout``.
        """
        original = relations.pair_counts
        spans = self.spans

        def pair_counts(a, b):
            if spans.innermost() != "relations.pairs":
                return original(a, b)
            with spans.span("kernel.pair_counts"):
                return original(a, b)

        relations.pair_counts = pair_counts
        try:
            yield
        finally:
            relations.pair_counts = original

    def _label(self, seq, x: int):
        span = self.spans.span
        with span("relations.index"):
            rels = RelationCache(seq)
        with span("relations.pairs"):
            pairs = [rels.pair(i) for i in range(len(seq) - 1)]
        with span("tracking.process"):
            state = new_state(seq, x, trace=True)
            for i in range(1, len(seq)):
                process_snapshot(state, seq, rels, i)
        with span("tracking.finalize"):
            result = finalize(state, seq)
        with span(COUNT_SPAN):
            c = self.counts
            c["relations.builds"] += 1
            for i, pair in enumerate(pairs):
                c["relations.pairs"] += 1
                c["relations.cells"] += len(pair.counts)
                c["kernel.probes"] += sum(len(m) for m in seq.snapshots[i].clusters)
                c["kernel.shared"] += sum(pair.counts.values())
            for ev in state.trace:
                c["tracking.targets"] += 1
                if ev.n_star == 0:
                    c["tracking.new_dcs"] += 1
                else:
                    c["tracking.flow_clusters"] += sum(len(layer) for layer in ev.flow)
                    if ev.n_star == x:
                        c["tracking.at_horizon"] += 1
                c["tracking.marginals"] += len(ev.marginals)
            c["tracking.dcs"] += len(result.dcs)
        return result

    def _parse(self, path: Path):
        raw = path.read_bytes()
        with self.spans.span("model.parse"):
            seq = parse_sequence(raw, "json")
        with self.spans.span(COUNT_SPAN):
            self.counts["model.entries"] += sum(
                len(c) for snap in seq.snapshots for c in snap.clusters
            )
        return seq

    def _write_document(self, seq, result, output: Path) -> None:
        with self.spans.span("resultdoc.build"):
            doc = build_document(seq, result, dynatrack.__version__)
        with self.spans.span("resultdoc.encode"):
            data = document_to_bytes(doc)
        output.write_bytes(data)
        self.counts["resultdoc.doc_bytes"] += len(data)

    def _load(self, path: Path):
        raw = path.read_bytes()
        with self.spans.span("resultdoc.load"):
            return load_document(raw)

    def track(self, input_path: Path, x: int, output: Path) -> None:
        with self.spans.span("cli.track"):
            seq = self._parse(input_path)
            result = self._label(seq, x)
            self._write_document(seq, result, output)

    def oracle(self, input_path: Path, x: int, output: Path) -> None:
        with self.spans.span("cli.oracle"):
            seq = self._parse(input_path)
            with self.spans.span("oracle.brute_force"):
                result = brute_force_track(seq, x)
            self._write_document(seq, result, output)
        self.counts["oracle.checks"] += 1

    def sweep(self, input_path: Path, x_min: int, x_max: int, output: Path) -> None:
        span = self.spans.span
        with span("cli.sweep"):
            seq = self._parse(input_path)
            rows = []
            for x in range(x_min, x_max + 1):
                result = self._label(seq, x)
                with span("metrics.summary"):
                    stats = summary_stats(result)
                with span("metrics.consistency"):
                    cons_all = total_consistency(result, "all_members")
                    cons_res = total_consistency(result, "residents_only")
                rows.append(
                    f"{x},{stats.dc_count},{_plain(stats.mean_lifespan)},"
                    f"{_plain(stats.weighted_mean_lifespan)},"
                    f"{_ratio(cons_all)},{_ratio(cons_res)}"
                )
            text = SWEEP_HEADER + "\n" + "\n".join(rows) + "\n"
            output.write_bytes(text.encode("utf-8"))

    def events(self, result_path: Path, output: Path) -> None:
        span = self.spans.span
        with span("cli.events"):
            seq, labels, x = self._load(result_path)
            with span("resultdoc.rebuild"):
                result = clustering_from_labels(seq, labels, x)
            with span("metrics.events"):
                found = classify_events(result, seq)
            events = [dataclasses.asdict(ev) for ev in found]
            for entry in events:
                entry["related"] = list(entry["related"])
            payload = json.dumps(
                {"schema": 1, "events": events},
                ensure_ascii=False,
                sort_keys=True,
                separators=(",", ":"),
            )
            output.write_bytes((payload + "\n").encode("utf-8"))
        self.counts["metrics.events"] += len(found)

    def render(self, result_path: Path, output: Path) -> None:
        span = self.spans.span
        with span("cli.render"):
            seq, labels, _x = self._load(result_path)
            with span("alluvial.layout"):
                layout = build_layout(seq, labels, gap=2.0)
            with span("alluvial.svg"):
                svg = layout_to_svg(layout, block_width=20.0)
            data = svg.encode("utf-8")
            output.write_bytes(data)
        self.counts["alluvial.flows"] += len(layout.flows)
        self.counts["alluvial.svg_bytes"] += len(data)


def _plain(v: float | None) -> str:
    return "" if v is None else str(v)


def _ratio(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"

"""Alluvial diagrams: snapshot columns of cluster blocks joined by flows.

Block height is proportional to cluster size (one height unit per
member); block colour encodes the dynamic cluster. A flow between two
blocks of consecutive snapshots carries the members present in both, so
the difference between a block's height and its summed in-flows (or
out-flows) is exactly the number of members introduced (or removed).
Output is plain SVG 1.1, byte-identical for identical inputs: every
number is written in fixed point with two decimals, and a ".00" ending
is dropped ("12", "12.50", "-0").
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from typing import NamedTuple

from .model import ClusteringSequence
from .relations import count_tables

__all__ = ["Block", "Flow", "AlluvialLayout", "build_layout", "layout_to_svg"]

# 12 fixed colours cycled by canonical DC id.
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a845", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#d37295", "#86bcb6",
)


class Block(NamedTuple):
    time: int
    cluster: int
    dc: int
    size: int
    y: float


class Flow(NamedTuple):
    time: int  # source snapshot; target is time + 1
    src_cluster: int
    dst_cluster: int
    magnitude: int
    src_y: float
    dst_y: float


class AlluvialLayout(NamedTuple):
    blocks: tuple[tuple[Block, ...], ...]  # per snapshot
    flows: tuple[Flow, ...]
    gap: float

    def to_json_dict(self) -> dict:
        return {
            "blocks": [[b._asdict() for b in col] for col in self.blocks],
            "flows": [f._asdict() for f in self.flows],
            "gap": self.gap,
        }


def build_layout(
    seq: ClusteringSequence,
    labels: list[list[int]],
    gap: float = 2.0,
) -> AlluvialLayout:
    """Geometry of the diagram in member-count units, from the DC label
    columns (labels[t][a] for cluster a of snapshot t).

    `gap` is the vertical spacing between blocks of one column. Raises
    ValueError unless it is finite and >= 0, or unless there is one
    column per snapshot and one label per cluster.
    """
    if not (math.isfinite(gap) and gap >= 0):
        raise ValueError(f"gap must be a finite number >= 0, got {gap!r}")
    seq.check_label_columns(labels)
    columns: list[tuple[Block, ...]] = []
    tops: list[list[float]] = []
    for t, (snap, col) in enumerate(zip(seq.snapshots, labels)):
        # Each block's top is the sum of the heights and gaps above it.
        col_tops = list(accumulate([s + gap for s in snap.sizes], initial=0.0))[:-1]
        blocks = map(Block, repeat(t), range(len(snap)), col, snap.sizes, col_tops)
        columns.append(tuple(blocks))
        tops.append(col_tops)

    flows: list[Flow] = []
    for i, table in enumerate(count_tables(seq)):
        out_used = [0.0] * len(tops[i])
        in_used = [0.0] * len(tops[i + 1])
        for a, b, magnitude in table:
            src_y = tops[i][a] + out_used[a]
            dst_y = tops[i + 1][b] + in_used[b]
            flows.append(Flow(i, a, b, magnitude, src_y, dst_y))
            out_used[a] += magnitude
            in_used[b] += magnitude
    return AlluvialLayout(blocks=tuple(columns), flows=tuple(flows), gap=gap)


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return s[:-3] if s.endswith(".00") else s


class _Formatted(dict):
    """`_fmt` results by value. Zeros are never stored: -0.0 and 0.0 are
    one dict key, but `_fmt` writes "-0" for one and "0" for the other."""

    def __missing__(self, v: float) -> str:
        s = _fmt(v)
        if v:
            self[v] = s
        return s


def layout_to_svg(
    layout: AlluvialLayout,
    block_width: float = 20.0,
    unit: float = 1.0,
) -> str:
    """Standalone SVG 1.1 document for a layout.

    Columns are `3 * block_width` apart; one member is `unit` pixels tall;
    the diagram reaches down to the largest `y + size` of any block.
    Raises ValueError unless `block_width` and `unit` are finite and > 0
    and every block size is >= 0, and OverflowError when the diagram is
    too large for float coordinates.
    """
    for name, value in (("block_width", block_width), ("unit", unit)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    span = 3.0 * block_width
    n_cols = len(layout.blocks)
    height = 0.0
    for col in layout.blocks:
        for b in col:
            if b.size < 0:
                raise ValueError(
                    f"block (t={b.time}, cluster={b.cluster}) has negative "
                    f"size {b.size}"
                )
            bottom = (b.y + b.size) * unit
            if bottom > height:
                height = bottom
    width = n_cols * block_width + max(n_cols - 1, 0) * span
    # Every coordinate written, and every sum taken to find one, is at most
    # twice the width or the height.
    if not math.isfinite(2.0 * (width + height)):
        raise OverflowError(
            f"the diagram's extent ({width!r} x {height!r}) overflows a float"
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        ),
        '<g stroke="none">',
    ]

    pitch = block_width + span  # from one column's left edge to the next
    # Where flows from column t leave it (x0), bend (xm) and enter t+1 (x1),
    # for each flow time, which a hand-built layout may put past the columns.
    edges = {}
    for t in {flow.time for flow in layout.flows}:
        x0, x1 = t * pitch + block_width, (t + 1) * pitch
        edges[t] = _fmt(x0), _fmt((x0 + x1) / 2.0), _fmt(x1)
    fy = _Formatted()  # lives for this call only
    for flow in layout.flows:
        x0, xm, x1 = edges[flow.time]
        y0a = flow.src_y * unit
        y0b = (flow.src_y + flow.magnitude) * unit
        y1a = flow.dst_y * unit
        y1b = (flow.dst_y + flow.magnitude) * unit
        a0, b0, a1, b1 = fy[y0a], fy[y0b], fy[y1a], fy[y1b]
        am, bm = fy[(y0a + y1a) / 2.0], fy[(y0b + y1b) / 2.0]
        src_dc = layout.blocks[flow.time][flow.src_cluster].dc
        color = PALETTE[src_dc % len(PALETTE)]
        # two quadratic segments per edge give an S-shaped ribbon
        parts.append(
            f'<path d="M {x0} {a0} Q {xm} {a0} {xm} {am} Q {xm} {a1} {x1} {a1} '
            f'L {x1} {b1} Q {xm} {b1} {xm} {bm} Q {xm} {b0} {x0} {b0} Z" '
            f'fill="{color}" fill-opacity="0.4"/>'
        )

    width_s = _fmt(block_width)
    for i, col in enumerate(layout.blocks):
        x = _fmt(i * pitch)
        for b in col:
            color = PALETTE[b.dc % len(PALETTE)]
            parts.append(
                f'<rect x="{x}" y="{fy[b.y * unit]}" '
                f'width="{width_s}" height="{fy[b.size * unit]}" '
                f'fill="{color}">'
                f"<title>t={b.time} cluster={b.cluster} dc={b.dc} "
                f"size={b.size}</title></rect>"
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Alluvial diagrams: snapshot columns of cluster blocks joined by flows.

Block height is proportional to cluster size (one height unit per
member); block colour encodes the dynamic cluster. A flow between two
blocks of consecutive snapshots carries the members present in both, so
the difference between a block's height and its summed in-flows (or
out-flows) is exactly the number of members introduced (or removed).
Output is plain SVG 1.1, byte-identical for identical inputs: every
number is written in fixed point with two decimals, and a ".00" ending
is dropped ("12", "12.50", "-0").

`layout_from_tables` lays a diagram out from the tables that
`resultdoc.read_tables` reads, and `svg_chunks` and `layout_json_chunks`
write it; `cmd_render` is the `render` command that runs them. The
whole-value forms `build_layout` and `layout_to_svg` are in `reference`.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import _lazy

__all__ = [
    "Block",
    "Flow",
    "AlluvialLayout",
    "build_layout",
    "layout_from_tables",
    "layout_to_svg",
    "svg_chunks",
    "layout_json_chunks",
]

__getattr__ = _lazy(__name__, {"build_layout": "reference", "layout_to_svg": "reference"})

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


def layout_json_chunks(layout: AlluvialLayout) -> Iterator[str]:
    """`json.dumps(layout.to_json_dict(), sort_keys=True, separators=(",", ":"))`
    plus a newline, in chunks: one per column of blocks and one per run of
    one flow time, so that no dict per block or flow is built.

    Numbers are written as `json` writes them: ints in decimal, floats by
    `float.__repr__`. `json` writes NaN and infinities its own way, so a
    layout holding one is encoded by `json` itself, in one chunk.
    """
    ys = chain(
        map(itemgetter(4), chain.from_iterable(layout.blocks)),
        map(itemgetter(4), layout.flows),
        map(itemgetter(5), layout.flows),
    )
    if not all(map(math.isfinite, ys)):
        yield _dumps(layout.to_json_dict()) + "\n"
        return
    yield '{"blocks":['
    sep = ""
    for col in layout.blocks:
        yield sep + "[" + ",".join(
            f'{{"cluster":{a},"dc":{dc},"size":{size},"time":{t},"y":{y!r}}}'
            for t, a, dc, size, y in col
        ) + "]"
        sep = ","
    yield '],"flows":['
    sep = ""
    for _t, flows in groupby(layout.flows, itemgetter(0)):
        yield sep + ",".join(
            f'{{"dst_cluster":{b},"dst_y":{dst_y!r},"magnitude":{magnitude},'
            f'"src_cluster":{a},"src_y":{src_y!r},"time":{t}}}'
            for t, a, b, magnitude, src_y, dst_y in flows
        )
        sep = ","
    yield f'],"gap":{_dumps(layout.gap)}}}\n'


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def layout_from_tables(
    labels: list[list[int]],
    sizes: list[tuple[int, ...]],
    tables: list[list[tuple[int, int, int]]],
    gap: float = 2.0,
) -> AlluvialLayout:
    """Geometry of the diagram from the label columns, the cluster sizes
    (sizes[t][a] for cluster a of snapshot t) and the count tables
    (tables[i] between snapshots i and i+1, as `relations.pair_counts`
    gives them), which `resultdoc.read_tables` reads from a document.

    Nothing is checked here: `labels` and `sizes` must hold one entry per
    cluster, and `gap` must be finite and >= 0 (see `reference.build_layout`).
    """
    columns: list[tuple[Block, ...]] = []
    tops: list[list[float]] = []
    for t, (counts, col) in enumerate(zip(sizes, labels)):
        # Each block's top is the sum of the heights and gaps above it.
        col_tops = list(accumulate([s + gap for s in counts], initial=0.0))[:-1]
        blocks = map(Block, repeat(t), range(len(counts)), col, counts, col_tops)
        columns.append(tuple(blocks))
        tops.append(col_tops)

    flows: list[Flow] = []
    for i, table in enumerate(tables):
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


def svg_chunks(layout: AlluvialLayout, block_width: float = 20.0) -> Iterator[str]:
    """Standalone SVG 1.1 document for a layout, in chunks: the header, the
    flows of each run of one flow time, the blocks of each column, and the
    closing tags.

    Columns are `3 * block_width` apart; one member is one pixel tall; the
    diagram reaches down to the largest `y + size` of any block. Before
    its first chunk, it raises ValueError unless `block_width` is finite
    and > 0 and every block size is >= 0, and OverflowError when the
    diagram is too large for float coordinates.
    """
    if not (math.isfinite(block_width) and block_width > 0):
        raise ValueError(
            f"block_width must be a finite number > 0, got {block_width!r}"
        )
    n_cols = len(layout.blocks)
    height = 0.0
    for col in layout.blocks:
        for b in col:
            if b.size < 0:
                raise ValueError(
                    f"block (t={b.time}, cluster={b.cluster}) has negative "
                    f"size {b.size}"
                )
            bottom = b.y + b.size
            if bottom > height:
                height = bottom
    span = 3.0 * block_width
    width = n_cols * block_width + max(n_cols - 1, 0) * span
    # Every coordinate written, and every sum taken to find one, is at most
    # twice the width or the height.
    if not math.isfinite(2.0 * (width + height)):
        raise OverflowError(
            f"the diagram's extent ({width!r} x {height!r}) overflows a float"
        )
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        '<g stroke="none">\n'
    )
    pitch = block_width + span  # from one column's left edge to the next
    fy = _Formatted()  # lives for this document only
    for t, flows in groupby(layout.flows, itemgetter(0)):
        # Where flows from column t leave it (x0), bend (xm) and enter t+1
        # (x1); a hand-built layout may put t past the columns.
        x0, x1 = t * pitch + block_width, (t + 1) * pitch
        x0, xm, x1 = _fmt(x0), _fmt((x0 + x1) / 2.0), _fmt(x1)
        blocks = layout.blocks[t]
        paths = []
        for _t, src, _dst, magnitude, y0a, y1a in flows:
            y0b, y1b = y0a + magnitude, y1a + magnitude
            a0, b0, a1, b1 = fy[y0a], fy[y0b], fy[y1a], fy[y1b]
            am, bm = fy[(y0a + y1a) / 2.0], fy[(y0b + y1b) / 2.0]
            color = PALETTE[blocks[src].dc % len(PALETTE)]
            # two quadratic segments per edge give an S-shaped ribbon
            paths.append(
                f'<path d="M {x0} {a0} Q {xm} {a0} {xm} {am} Q {xm} {a1} {x1} {a1} '
                f'L {x1} {b1} Q {xm} {b1} {xm} {bm} Q {xm} {b0} {x0} {b0} Z" '
                f'fill="{color}" fill-opacity="0.4"/>\n'
            )
        yield "".join(paths)

    width_s = _fmt(block_width)
    for i, col in enumerate(layout.blocks):
        x = _fmt(i * pitch)
        yield "".join(
            f'<rect x="{x}" y="{fy[b.y]}" '
            f'width="{width_s}" height="{fy[b.size]}" '
            f'fill="{PALETTE[b.dc % len(PALETTE)]}">'
            f"<title>t={b.time} cluster={b.cluster} dc={b.dc} "
            f"size={b.size}</title></rect>\n"
            for b in col
        )
    yield "</g>\n</svg>\n"


def cmd_render(args) -> int:
    """The `render` command: the SVG, and if asked the layout JSON, of the
    result document `args.result`."""
    from . import cli
    from .resultdoc import read_tables

    if not (math.isfinite(args.block_width) and args.block_width > 0):
        return cli._usage_error("--block-width must be a finite number > 0")
    if not (math.isfinite(args.gap) and args.gap >= 0):
        return cli._usage_error("--gap must be a finite number >= 0")
    labels, sizes, tables, _x = read_tables(cli._read(args.result))
    layout = layout_from_tables(labels, sizes, tables, args.gap)
    svg = svg_chunks(layout, block_width=args.block_width)
    try:
        cli._write(args.output, map(str.encode, svg))
    except OverflowError as exc:
        return cli._usage_error(f"--gap or --block-width too large: {exc}")
    if args.layout_json:
        cli._write(args.layout_json, map(str.encode, layout_json_chunks(layout)))
    return 0

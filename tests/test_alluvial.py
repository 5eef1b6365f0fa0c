"""Alluvial layout geometry and SVG output."""

import json
import math
import random
import xml.etree.ElementTree as ET

import pytest

from dynatrack import build_layout, layout_to_svg, sequence_from_lists, track
from dynatrack.alluvial import (
    PALETTE,
    AlluvialLayout,
    Block,
    Flow,
    layout_json_chunks,
    svg_chunks,
)
from dynatrack.resultdoc import canonical_labels
from helpers import random_sequence, reference_svg, snapshot_members

SVG_NS = "{http://www.w3.org/2000/svg}"


def layout_for(seq, x=2, gap=2.0):
    labels = canonical_labels(track(seq, x).labels)
    return build_layout(seq, labels, gap=gap)


def test_single_snapshot_one_column_no_flows():
    seq = sequence_from_lists([[["a", "b"], ["c"]]])
    layout = layout_for(seq)
    assert len(layout.blocks) == 1
    assert layout.flows == ()
    svg = layout_to_svg(layout)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    assert len(root.findall(f".//{SVG_NS}rect")) == 2
    assert not root.findall(f".//{SVG_NS}path")


def test_block_heights_proportional_to_sizes():
    seq = sequence_from_lists([[["a", "b", "c"], ["d"]], [["a", "b", "c", "d"]]])
    layout = layout_for(seq)
    svg = layout_to_svg(layout)
    root = ET.fromstring(svg)
    heights = sorted(float(r.get("height")) for r in root.findall(f".//{SVG_NS}rect"))
    assert heights == [1.0, 3.0, 4.0]


def test_flow_magnitudes_are_resident_overlaps():
    seq = sequence_from_lists([[["a", "b", "c"], ["d"]], [["a", "b"], ["c", "d"]]])
    layout = layout_for(seq)
    mags = {(f.src_cluster, f.dst_cluster): f.magnitude for f in layout.flows}
    assert mags == {(0, 0): 2, (0, 1): 1, (1, 1): 1}


def test_flow_balance_against_block_sizes():
    # block size minus summed in-flows = newly introduced members;
    # block size minus summed out-flows = removed members
    for seed in range(20):
        seq = random_sequence(random.Random(seed), max_t=5)
        layout = layout_for(seq)
        for t, col in enumerate(layout.blocks):
            for block in col:
                members = frozenset(seq.snapshots[t].clusters[block.cluster])
                inflow = sum(
                    f.magnitude
                    for f in layout.flows
                    if f.time == t - 1 and f.dst_cluster == block.cluster
                )
                outflow = sum(
                    f.magnitude
                    for f in layout.flows
                    if f.time == t and f.src_cluster == block.cluster
                )
                if t > 0:
                    introduced = len(members - snapshot_members(seq, t - 1))
                    assert block.size - inflow == introduced
                if t + 1 < len(seq):
                    removed = len(members - snapshot_members(seq, t + 1))
                    assert block.size - outflow == removed


def test_svg_is_byte_deterministic():
    seq = sequence_from_lists(
        [[["a", "b"], ["c"]], [["a", "c"], ["b"]], [["a", "b", "c"]]]
    )
    labels = canonical_labels(track(seq, 2).labels)
    one = layout_to_svg(build_layout(seq, labels))
    two = layout_to_svg(build_layout(seq, labels))
    assert one.encode() == two.encode()


def test_colors_follow_palette_by_dc():
    seq = sequence_from_lists([[["a"], ["b"]]])
    layout = layout_for(seq)
    svg = layout_to_svg(layout)
    root = ET.fromstring(svg)
    fills = [r.get("fill") for r in root.findall(f".//{SVG_NS}rect")]
    assert fills == [PALETTE[0], PALETTE[1]]


def test_svg_structure_is_plain_11():
    seq = random_sequence(random.Random(3), max_t=4)
    svg = layout_to_svg(layout_for(seq))
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(svg)
    allowed = {f"{SVG_NS}{t}" for t in ("svg", "g", "rect", "path", "title")}
    assert {el.tag for el in root.iter()} <= allowed
    for el in root.iter(f"{SVG_NS}path"):
        assert el.get("d", "").startswith("M ")


def test_layout_json_is_serialisable():
    import json

    seq = sequence_from_lists([[["a"]], [["a"]]])
    layout = layout_for(seq)
    payload = json.dumps(layout.to_json_dict(), sort_keys=True)
    assert '"flows"' in payload and '"blocks"' in payload


def test_layout_json_holds_every_field():
    # The records' fields are the layout JSON's keys.
    assert Block._fields == ("time", "cluster", "dc", "size", "y")
    assert Flow._fields == (
        "time", "src_cluster", "dst_cluster", "magnitude", "src_y", "dst_y"
    )
    for seed in range(10):
        seq = random_sequence(random.Random(600 + seed))
        layout = layout_for(seq, gap=1.5)
        assert layout.to_json_dict() == {
            "blocks": [[b._asdict() for b in col] for col in layout.blocks],
            "flows": [f._asdict() for f in layout.flows],
            "gap": 1.5,
        }


def test_svg_equals_reference_on_random_instances():
    gaps = (0.0, 0.5, 1 / 3, 1.5, 2.0)
    for seed in range(225):
        seq = random_sequence(random.Random(900 + seed))
        layout = layout_for(seq, gap=gaps[seed % len(gaps)])
        for block_width in (20.0, 0.1, 7.3):
            assert layout_to_svg(layout, block_width) == reference_svg(
                layout, block_width
            ), (seed, block_width)


def hand_built_layout():
    """Geometry `build_layout` never makes: -0.0 beside 0.0, negatives,
    values whose third decimal is a 5 (2.675 is stored below it), and a
    flow out of the last column."""
    blocks = (  # time, cluster, dc, size, y
        (Block(0, 0, 0, 0, -0.0), Block(0, 1, 13, 2, 0.125), Block(0, 2, 2, 1, -3.5)),
        (Block(1, 0, 0, 3, 0.0), Block(1, 1, 5, 1, 2.675)),
        (Block(2, 0, 7, 0, -0.0),),
    )
    flows = (  # time, src_cluster, dst_cluster, magnitude, src_y, dst_y
        Flow(0, 0, 0, 0, -0.0, 0.0),
        Flow(0, 1, 0, 2, 0.125, -0.0),
        Flow(0, 2, 1, 1, -3.5, 1.005),
        Flow(1, 0, 0, 0, -0.0, -0.0),
        Flow(1, 1, 0, 1, -0.005, 0.375),
        Flow(2, 0, 0, 1, -0.0, 0.5),
    )
    return AlluvialLayout(blocks=blocks, flows=flows, gap=0.0)


@pytest.mark.parametrize("block_width", [20.0, 0.1, 7.3])
def test_svg_equals_reference_on_hand_built_coordinates(block_width):
    layout = hand_built_layout()
    svg = layout_to_svg(layout, block_width)
    assert svg == reference_svg(layout, block_width)
    assert ' y="-0"' in svg and ' y="0"' in svg


def test_svg_height_is_the_largest_block_bottom():
    # the column's first block reaches lower than its last one
    layout = AlluvialLayout(
        ((Block(0, 0, 0, 5, 10.0), Block(0, 1, 1, 1, 0.0)),), (), 0.0
    )
    svg = layout_to_svg(layout)
    assert 'width="20" height="15" viewBox="0 0 20 15"' in svg
    lower = AlluvialLayout(((Block(0, 0, 0, 5, 2.5),),), (), 0.0)
    assert 'height="7.50" viewBox="0 0 20 7.50"' in layout_to_svg(lower)


def test_svg_rejects_negative_block_size():
    layout = AlluvialLayout(
        ((Block(0, 0, 0, 3, 0.0),), (Block(1, 0, 0, 1, 0.0), Block(1, 1, 1, -2, 3.0))),
        (Flow(0, 0, 0, 1, 0.0, 0.0),),
        0.0,
    )
    with pytest.raises(ValueError, match=r"block \(t=1, cluster=1\) has negative size -2"):
        layout_to_svg(layout)


@pytest.mark.parametrize("value", [-5.0, 0.0, -math.inf, math.inf, math.nan])
def test_svg_rejects_block_width(value):
    layout = layout_for(sequence_from_lists([[["a", "b"]], [["a"]]]))
    with pytest.raises(ValueError, match="block_width must be a finite number > 0"):
        layout_to_svg(layout, block_width=value)


@pytest.mark.parametrize("value", [-5.0, -math.inf, math.inf, math.nan])
def test_layout_rejects_gap(value):
    seq = sequence_from_lists([[["a"], ["b"]]])
    with pytest.raises(ValueError, match="gap must be a finite number >= 0"):
        layout_for(seq, gap=value)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([[0, 1]], "1 label columns for 2 snapshots"),
        ([[0], [0]], "snapshot 0: 1 labels for 2 clusters"),
        ([[0, 1], [0, 7]], "snapshot 1: 2 labels for 1 clusters"),
    ],
)
def test_layout_checks_the_column_shapes(labels, message):
    # Without the check, the first raised a bare IndexError, the second
    # dropped a block (and layout_to_svg then raised IndexError), and the
    # third ignored the 7.
    seq = sequence_from_lists([[["a"], ["b"]], [["a", "b"]]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_layout(seq, labels)


def test_svg_chunks_one_per_flow_time_and_column():
    seq = sequence_from_lists(
        [[["a", "b"], ["c"]], [["a", "b", "c"]], [["a"], ["b", "c"]], [["d"]]]
    )
    layout = layout_for(seq)
    chunks = list(svg_chunks(layout, 7.3))
    assert "".join(chunks) == layout_to_svg(layout, 7.3)
    # the header, flows at times 0 and 1 (none leave snapshot 2), the
    # blocks of 4 columns, and the closing tags
    assert len(chunks) == 1 + 2 + 4 + 1
    assert chunks[0].endswith('<g stroke="none">\n')
    assert chunks[-1] == "</g>\n</svg>\n"


@pytest.mark.parametrize(
    "blocks, block_width, error, message",
    [
        (None, 1e308, OverflowError, "overflows a float"),
        # each extent is finite, and so is their difference, but not the sum
        (((Block(0, 0, 0, 1, 8e307),),), 5e307, OverflowError, "overflows a float"),
        (None, 0.0, ValueError, "block_width must be a finite number > 0"),
        (((Block(0, 0, 0, -1, 0.0),),), 20.0, ValueError, "negative size -1"),
    ],
    ids=["overflow", "overflow-of-the-sum", "block-width", "negative-size"],
)
def test_svg_chunks_check_their_arguments_before_the_first_chunk(
    blocks, block_width, error, message
):
    layout = layout_for(sequence_from_lists([[["a", "b"]], [["a"]]]))
    if blocks is not None:
        layout = layout._replace(blocks=blocks)
    chunks = svg_chunks(layout, block_width)  # a generator: nothing runs yet
    with pytest.raises(error, match=message):
        next(chunks)


def reference_layout_json(layout: AlluvialLayout) -> str:
    """The layout JSON as `render --layout-json` wrote it before it was
    streamed: one `json.dumps` over `to_json_dict`, plus a newline."""
    payload = json.dumps(layout.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return payload + "\n"


def test_layout_json_chunks_equal_json_dumps():
    gaps = (0.0, 0.5, 1 / 3, 1.5, 2.0, 1e-7, 123456789.123, 3)
    for seed in range(160):
        seq = random_sequence(random.Random(1300 + seed))
        layout = layout_for(seq, gap=gaps[seed % len(gaps)])
        assert "".join(layout_json_chunks(layout)) == reference_layout_json(layout)
    # -0.0, negatives, a flow out of the last column, no flows or blocks
    for layout in (
        hand_built_layout(),
        hand_built_layout()._replace(gap=0.1 + 0.2),
        AlluvialLayout(blocks=((),), flows=(), gap=2.0),
        AlluvialLayout(blocks=(), flows=(), gap=0),
    ):
        assert "".join(layout_json_chunks(layout)) == reference_layout_json(layout)


def test_layout_json_with_non_finite_numbers_equals_json_dumps():
    # Stacked gaps of 1e308 overflow to inf, which `json` writes as
    # Infinity; a hand-built NaN is written as NaN.
    seq = sequence_from_lists([[["a"], ["b"], ["c"]], [["a", "b", "c"]]])
    overflowing = layout_for(seq, gap=1e308)
    assert math.isinf(overflowing.blocks[0][2].y)
    nan_flow = hand_built_layout()._replace(flows=(Flow(0, 0, 0, 1, math.nan, 0.0),))
    for layout in (overflowing, nan_flow):
        text = "".join(layout_json_chunks(layout))
        assert text == reference_layout_json(layout)
        assert "Infinity" in text or "NaN" in text

"""The benchmark's recorded output digests, checked in process.

`perfbench/run.py` compares every output it writes with the SHA-256
digests in `perfbench/digests.json`. These tests build each workload's
seed-0 input with the benchmark's own builders and check against those
digests the `track` document and the `render` SVG of the reference
writers, and the `track`, `events`, `render` and `sweep` outputs of the
command line itself, so that a byte change to any of them fails here
before it reaches the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dynatrack import __version__, build_layout, layout_to_svg, track
from dynatrack.cli import main
from dynatrack.model import parse_sequence
from dynatrack.resultdoc import build_document, document_to_bytes, load_document

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402
from inputs import sequence_bytes  # noqa: E402
from replay import Spans  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_track_and_render_match_recorded_digests(name):
    workload = bench.WORKLOADS[name]
    raw = sequence_bytes(workload.build(bench.DEFAULT_SEED, False, Spans(name)))
    seq = parse_sequence(raw, "json")
    result = track(seq, workload.history)
    doc = document_to_bytes(build_document(seq, result, __version__))
    assert sha256(doc) == DIGESTS[name]["track"]
    # render's defaults: --gap 2, --block-width 20
    seq, labels, _x = load_document(doc)
    svg = layout_to_svg(build_layout(seq, labels, gap=2.0), block_width=20.0)
    assert sha256(svg.encode("utf-8")) == DIGESTS[name]["render"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_cli_outputs_match_recorded_digests(name, tmp_path):
    workload = bench.WORKLOADS[name]
    inp = tmp_path / "input.json"
    inp.write_bytes(
        sequence_bytes(workload.build(bench.DEFAULT_SEED, False, Spans(name)))
    )
    out = {cmd: tmp_path / f"{cmd}.out" for cmd in ("track", "events", "render", "sweep")}
    x_min, x_max = workload.sweep
    # the arguments of the benchmark's timed commands
    for argv in (
        ["track", "--input", inp, "--history", workload.history, "--output", out["track"]],
        ["events", "--result", out["track"], "--output", out["events"]],
        ["render", "--result", out["track"], "--output", out["render"]],
        ["sweep", "--input", inp, "--history-min", x_min, "--history-max", x_max,
         "--output", out["sweep"]],
    ):
        assert main(list(map(str, argv))) == 0
    digests = {cmd: sha256(path.read_bytes()) for cmd, path in out.items()}
    assert digests == DIGESTS[name]

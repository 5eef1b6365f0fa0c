"""Tests of the benchmark itself: input builders, correctness gate, metric
names and units, and refusal to run without the package.

Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dynatrack  # noqa: E402
from dynatrack import generate, sequence_from_lists, track  # noqa: E402
from dynatrack.resultdoc import build_document, document_to_bytes  # noqa: E402

import bench  # noqa: E402
from inputs import churn_clusters, planted_spec  # noqa: E402
from replay import Spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _compare_backends():
    spec = importlib.util.spec_from_file_location(
        "compare_backends", ROOT / "benchmarks" / "compare_backends.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("t, n, g, seed", [(5, 300, 7, 0), (8, 500, 40, 3)])
def test_churn_builder_matches_compare_backends(t, n, g, seed):
    expected = _compare_backends().synthetic_sequence(t, n, g, seed=seed)
    assert sequence_from_lists(churn_clusters(t, n, g, seed)) == expected


def test_planted_merges_only_into_groups_that_stay():
    merges = 0
    for seed in range(40):
        spec = planted_spec(seed, 30, 12, (6, 20), 0.05)
        merging = {ev.dc for ev in spec.events if ev.kind == "merge"}
        for ev in spec.events:
            if ev.kind == "merge":
                merges += 1
                assert ev.into not in merging
        generate(spec)  # raises GenerationError on a dead merge target
    assert merges > 0


def test_small_instance_fits_the_oracle():
    for seed in range(200):
        clusters = bench.small_instance(seed, Spans("test"))
        assert len(clusters) <= 8
        assert sum(len(snapshot) for snapshot in clusters) <= 40


def test_self_time_leaves_out_child_spans():
    spans = Spans("test")
    with spans.span("cli.track"):
        with spans.span("model.parse"):
            pass
    busy = spans.busy()
    own = spans.self_times()
    assert own["model.parse"] == busy["model.parse"]
    assert own["cli.track"] == pytest.approx(busy["cli.track"] - busy["model.parse"])


def test_gate_rejects_a_tampered_document(tmp_path):
    seq = sequence_from_lists(churn_clusters(6, 60, 4, 0))
    good = document_to_bytes(build_document(seq, track(seq, 2), dynatrack.__version__))
    doc = json.loads(good)
    doc["snapshots"][3]["clusters"][0]["dc"] += 1
    ok = bench.Proc(0, 0.1, 1024, b"", b"")
    gate = bench.Gate()
    for name, data in (("good", good), ("tampered", document_to_bytes(doc))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        gate.check_output(name, ok, path, hashlib.sha256(good).hexdigest())
    assert gate.attempted == 2
    assert gate.failures == ["tampered: output differs from the reference"]


def test_gate_counts_a_nonzero_exit(tmp_path):
    gate = bench.Gate()
    output = tmp_path / "doc.json"
    proc = bench.Cli(tmp_path).run(
        "track", "--input", tmp_path / "missing.json", "--history", 1,
        "--output", output,
    )
    gate.check_output("track", proc, output, None)
    assert proc.returncode != 0
    assert gate.failed == 1
    assert gate.failures[0].startswith("track: exit code ")


def test_scaled_is_the_trimmed_mean_ratio_in_yardstick_seconds():
    # A fifth of the ratios at each end is dropped: one stalled round of
    # five moves nothing.
    assert bench.trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0]) == 3.0
    assert bench.trimmed_mean([2.0, 4.0]) == 3.0
    ratios = {"track_s": [2.0, 2.0, 2.0, 2.0, 50.0]}
    assert bench.scaled(ratios) == {"track_s": 2.0 * bench.YARDSTICK_S}


def test_declared_metrics_match_the_benchmark():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == bench.per_layer_units()
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [name for row in layers for name in row["metrics"]]
    assert sorted(mapped) == sorted(bench.per_layer_units())


def test_tiny_run_of_every_workload_prints_every_metric():
    done = _run("--size", "tiny", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = set(done.stdout.split("\n"))
    for workload in DECLARED["workloads"]:
        for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            key = f"{workload['name']}/{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"]
            assert any(
                line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
                for line in table
            )


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_run_reports_exactly_the_declared_set(trace, declared):
    done = _run(
        "--workload", "planted-sweep", "--seed", "7", "--seconds", "0",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED[declared]
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(
        "--workload", "churn-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

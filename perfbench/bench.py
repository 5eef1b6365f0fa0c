"""Workloads, correctness gate and metrics of the benchmark (see run.py)."""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import dynatrack
from dynatrack import generate

from inputs import churn_clusters, planted_spec, sequence_bytes
from replay import Replay, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

COMMAND_TIMEOUT_S = 60.0
# The machine-speed yardstick (yardstick.py), its output, and the wall
# time that every command's time is scaled to. Each command's time is
# divided by the mean of the yardstick's times just before and just after
# its round; the trimmed mean of these ratios, times YARDSTICK_S, is the
# command's wall time on a machine where the yardstick takes YARDSTICK_S
# seconds. Shared hosts change speed by tens of percent from one minute to
# the next, and the commands of a round and the yardstick around it change
# alike, so the scaled figures repeat from run to run where the raw ones
# do not. The raw medians are reported beside them.
YARDSTICK = HERE / "yardstick.py"
YARDSTICK_OUTPUT = b"48000 cf8aa7d5c82528da\n"
YARDSTICK_S = 0.4
# The seed whose outputs have recorded digests (digests.json).
DEFAULT_SEED = 0
COMMANDS = ("track", "events", "render", "sweep")
ORACLE_HISTORIES = range(4)

END_TO_END = {
    "setup_s": "s",
    "track_s": "s",
    "events_s": "s",
    "render_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = (
    "model", "relations", "kernel", "tracking", "resultdoc",
    "metrics", "alluvial", "generator", "oracle", "cli",
)

# Per-layer timing metric -> the span whose durations it sums.
SPAN_METRICS = {
    "model.parse_s": "model.parse",
    "relations.index_s": "relations.index",
    "relations.pairs_s": "relations.pairs",
    "kernel.pair_counts_s": "kernel.pair_counts",
    "tracking.process_s": "tracking.process",
    "tracking.finalize_s": "tracking.finalize",
    "resultdoc.build_s": "resultdoc.build",
    "resultdoc.encode_s": "resultdoc.encode",
    "resultdoc.load_s": "resultdoc.load",
    "resultdoc.rebuild_s": "resultdoc.rebuild",
    "metrics.events_s": "metrics.events",
    "metrics.consistency_s": "metrics.consistency",
    "metrics.summary_s": "metrics.summary",
    "alluvial.layout_s": "alluvial.layout",
    "alluvial.svg_s": "alluvial.svg",
    "generator.generate_s": "generator.generate",
    "oracle.brute_force_s": "oracle.brute_force",
}

COUNT_METRICS = {
    "model.entries": "count",
    "relations.builds": "count",
    "relations.pairs": "count",
    "relations.cells": "count",
    "kernel.probes": "count",
    "kernel.shared": "count",
    "tracking.targets": "count",
    "tracking.new_dcs": "count",
    "tracking.at_horizon": "count",
    "tracking.flow_clusters": "count",
    "tracking.marginals": "count",
    "tracking.dcs": "count",
    "resultdoc.doc_bytes": "bytes",
    "metrics.events": "count",
    "alluvial.flows": "count",
    "alluvial.svg_bytes": "bytes",
    "oracle.checks": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: "s" for name in SPAN_METRICS}
    units.update(COUNT_METRICS)
    units["kernel.hit_ratio"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for cmd in COMMANDS:
        units[f"cli.{cmd}.self_s"] = "s"
        units[f"cli.{cmd}.trace_overhead_s"] = "s"
    return units


def _generate(spec, spans: Spans) -> list[list[list[str]]]:
    with spans.span("generator.generate"):
        seq, _truth = generate(spec)
    return [[list(c) for c in snap.clusters] for snap in seq.snapshots]


@dataclass(frozen=True)
class Workload:
    history: int  # track --history
    sweep: tuple[int, int]  # sweep --history-min, --history-max
    # (seed, tiny, spans) -> nested cluster lists of the input sequence
    build: Callable[[int, bool, Spans], list]


def _churn(full: tuple[int, int, int], tiny: tuple[int, int, int]):
    return lambda seed, is_tiny, spans: churn_clusters(*(tiny if is_tiny else full), seed)


def _planted(seed: int, is_tiny: bool, spans: Spans):
    if is_tiny:
        return _generate(planted_spec(seed, 6, 8, (8, 20), 0.05), spans)
    return _generate(planted_spec(seed, 30, 40, (30, 119), 0.05), spans)


# Sizes are a tenth or less of the ROADMAP baselines, so that a 35 s run
# holds ten or more closed-loop rounds of all four subcommands: the noise
# of a shared host averages out only over many rounds. The two track
# workloads sweep a single x, where a sweep has no work to share.
WORKLOADS = {
    # (T, N, G): 100 clusters of ~50 members; 2% of members move per step.
    "churn-wide": Workload(3, (3, 3), _churn((20, 5000, 100), (6, 60, 4))),
    # (T, N, G): ~5 members per cluster, searched 12 snapshots deep.
    "frag-deep": Workload(12, (12, 12), _churn((40, 500, 100), (6, 40, 8))),
    # 30 planted groups of 30-119 members, 5% turnover, one disturbance each.
    "planted-sweep": Workload(5, (0, 5), _planted),
}


def small_instance(seed: int, spans: Spans) -> list[list[list[str]]]:
    """Planted instance within the oracle's limits (<= 8 snapshots, <= 40
    clusters): 3 groups over 7 snapshots, each with at most one event, can
    emit at most 21 + 18 clusters."""
    return _generate(planted_spec(seed, 3, 7, (4, 8), 0.1), spans)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Counts operations and the failed ones, with a reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def check_output(self, what: str, proc, output: Path, expected: str | None):
        """One CLI operation: it must exit 0 and write `expected` bytes."""
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()
            problem = f"exit code {proc.returncode}" + (f" ({tail[-1]})" if tail else "")
        elif not output.is_file():
            problem = "no output written"
        elif expected is not None and sha256(output) != expected:
            problem = "output differs from the reference"
        else:
            problem = None
        self.record(what, problem)


@dataclass
class Proc:
    returncode: int
    seconds: float
    maxrss_kib: int
    stdout: bytes
    stderr: bytes


class Cli:
    """Runs `python -m dynatrack` as a fresh process on the checkout's src."""

    def __init__(self, workdir: Path):
        # A fixed hash seed keeps set and dict layouts, and so the work
        # done, equal from one process to the next.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.workdir = workdir

    def run(self, *args) -> Proc:
        return self.python("-m", "dynatrack", *args)

    def python(self, *args) -> Proc:
        """Runs the interpreter with `args`, as a fresh process."""
        out_path = self.workdir / "cli.stdout"
        err_path = self.workdir / "cli.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)],
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=ROOT,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child, then re-raise
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            proc.returncode,
            seconds,
            usage.ru_maxrss,
            out_path.read_bytes(),
            err_path.read_bytes(),
        )


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def run_metadata(workload: str, seed: int, seconds: float, size: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "dynatrack": dynatrack.__version__,
        "backend": dynatrack.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def closed_loop(cli: Cli, cycle, gate: Gate, seconds: float):
    """Rounds of the cycle until the next round would end after `seconds`.

    `cycle` holds (metric, CLI arguments, check) triples; check(proc)
    records the operation with the gate. The yardstick runs before the
    first round and after every round. Returns each metric's wall times,
    the same divided by the mean yardstick time around their round, and
    the highest peak RSS of the CLI processes.
    """
    samples: dict[str, list[float]] = {metric: [] for metric, _args, _check in cycle}
    samples["yardstick"] = []
    ratios: dict[str, list[float]] = {metric: [] for metric, _args, _check in cycle}
    peak_kib = 0

    def yardstick() -> float:
        proc = cli.python(YARDSTICK)
        ok = proc.returncode == 0 and proc.stdout == YARDSTICK_OUTPUT
        gate.record("yardstick", None if ok else f"exit code {proc.returncode}, "
                    f"stdout {proc.stdout!r}")
        samples["yardstick"].append(proc.seconds)
        return proc.seconds

    before = yardstick()
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        times = {}
        for metric, args, check in cycle:
            proc = cli.run(*args)
            check(proc)
            times[metric] = proc.seconds
            peak_kib = max(peak_kib, proc.maxrss_kib)
        after = yardstick()
        for metric, t in times.items():
            samples[metric].append(t)
            ratios[metric].append(t / ((before + after) / 2))
        before = after
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            return samples, ratios, peak_kib


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and the highest
    fifth: steadier than the median on a few samples, and unlike the mean
    not moved by one stalled process."""
    cut = len(values) // 5
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def scaled(ratios: dict[str, list[float]]) -> dict[str, float]:
    """Each command's trimmed mean ratio to the yardstick, times YARDSTICK_S."""
    return {metric: trimmed_mean(values) * YARDSTICK_S for metric, values in ratios.items()}


def layer_metrics(spans: Spans, counts, raw: dict[str, float]) -> dict[str, float]:
    busy = spans.busy()
    own = spans.self_times()
    out = {name: busy.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out["kernel.hit_ratio"] = counts["kernel.shared"] / counts["kernel.probes"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in own.items() if name.split(".")[0] == layer
        )
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
        # The CLI's time includes interpreter start and imports and the
        # replay's does not, so set-up is taken off before comparing. Both
        # are raw wall times: the replay's spans are not scaled.
        untraced = raw[f"{cmd}_s"] - raw["setup_s"]
        out[f"cli.{cmd}.trace_overhead_s"] = busy[f"cli.{cmd}"] - untraced
    return out


def dominance_notes(spans: Spans, w: Workload) -> list[str]:
    """The figures behind each workload's claim about its dominant layer."""
    busy = spans.busy()
    records = spans.records
    under_track: dict[str, float] = defaultdict(float)
    sweep_builds = 0
    for r in records:
        parent = records[r["parent"]]["name"] if r["parent"] is not None else None
        if parent == "cli.track":
            under_track[r["name"]] += r["end"] - r["start"]
        elif parent == "cli.sweep" and r["name"] == "relations.index":
            sweep_builds += 1
    largest = max(under_track, key=under_track.get)
    relations_s = busy["relations.index"] + busy["relations.pairs"]
    return [
        f"largest span of track: {largest} "
        f"({under_track[largest]:.3f} s of {busy['cli.track']:.3f} s)",
        f"relations.index_s + relations.pairs_s = {relations_s:.3f} s, "
        f"tracking.process_s = {busy['tracking.process']:.3f} s",
        f"relation builds in sweep: {sweep_builds} "
        f"for {w.sweep[1] - w.sweep[0] + 1} values of x",
    ]


def run_workload(name: str, seed: int, seconds: float, size: str) -> dict:
    w = WORKLOADS[name]
    spans = Spans(name)
    gate = Gate()
    meta = run_metadata(name, seed, seconds, size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inp = workdir / "input.json"
        small = workdir / "small.json"
        inp.write_bytes(sequence_bytes(w.build(seed, size == "tiny", spans)))
        small.write_bytes(sequence_bytes(small_instance(seed, spans)))
        cli_out = {cmd: workdir / f"cli-{cmd}.out" for cmd in COMMANDS}
        ref_out = {cmd: workdir / f"ref-{cmd}.out" for cmd in COMMANDS}
        for x in ORACLE_HISTORIES:
            ref_out[f"oracle-{x}"] = workdir / f"ref-oracle-{x}.json"

        replay = Replay(spans)
        try:
            with replay.kernel_spans():
                replay.track(inp, w.history, ref_out["track"])
                replay.events(ref_out["track"], ref_out["events"])
                replay.render(ref_out["track"], ref_out["render"])
                replay.sweep(inp, *w.sweep, ref_out["sweep"])
                for x in ORACLE_HISTORIES:
                    replay.oracle(small, x, ref_out[f"oracle-{x}"])
            replayed = True
        except Exception:
            traceback.print_exc()
            replayed = False
        gate.record("replay", None if replayed else "raised (traceback on stderr)")
        reference = {k: sha256(p) for k, p in ref_out.items() if p.is_file()}
        counts = replay.counts
        del replay
        gc.collect()

        expected = dict(reference)
        if size == "full" and seed == DEFAULT_SEED:
            recorded = json.loads((HERE / "digests.json").read_text())[name]
            for out, digest in recorded.items():
                gate.record(
                    f"replayed {out} against its recorded digest",
                    None if reference.get(out) == digest else "differs",
                )
                expected[out] = digest

        cli = Cli(workdir)
        version = f"dynatrack {dynatrack.__version__}\n".encode()

        def check_version(proc):
            ok = proc.returncode == 0 and proc.stdout == version
            gate.record("--version", None if ok else f"exit code {proc.returncode}, "
                        f"stdout {proc.stdout!r}")

        def check(cmd):
            return lambda proc: gate.check_output(cmd, proc, cli_out[cmd], expected.get(cmd))

        check_version(cli.run("--version"))  # fills the caches before timing
        doc = cli_out["track"]
        cycle = [
            ("setup_s", ["--version"], check_version),
            ("track_s", ["track", "--input", inp, "--history", w.history,
                         "--output", doc], check("track")),
            ("events_s", ["events", "--result", doc, "--output", cli_out["events"]],
             check("events")),
            ("render_s", ["render", "--result", doc, "--output", cli_out["render"]],
             check("render")),
            ("sweep_s", ["sweep", "--input", inp, "--history-min", w.sweep[0],
                         "--history-max", w.sweep[1], "--output", cli_out["sweep"]],
             check("sweep")),
        ]
        samples, ratios, peak_kib = closed_loop(cli, cycle, gate, seconds)

        for x in ORACLE_HISTORIES:
            oracle_out = workdir / f"cli-oracle-{x}.json"
            track_out = workdir / f"cli-track-small-{x}.json"
            proc = cli.run("oracle", "--input", small, "--history", x,
                           "--output", oracle_out)
            gate.check_output(f"oracle x={x}", proc, oracle_out,
                              expected.get(f"oracle-{x}"))
            proc = cli.run("track", "--input", small, "--history", x,
                           "--output", track_out)
            gate.check_output(f"track x={x} against oracle", proc, track_out,
                              sha256(oracle_out) if oracle_out.is_file() else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {metric: statistics.median(values) for metric, values in samples.items()}
    e2e = scaled(ratios)
    e2e["peak_rss_mb"] = peak_kib / 1024
    return {
        "meta": meta,
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "end_to_end": e2e,
        "raw_medians_s": raw,
        "per_layer": layer_metrics(spans, counts, raw) if replayed else {},
        "notes": dominance_notes(spans, w) if replayed else [],
        "samples": samples,
        "ratios": ratios,
        "reference_sha256": reference,
        "spans": spans.records,
    }


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"## {title}")
    for name, unit in units.items():
        if name in values:
            print(f"{name:34s} {values[name]!r:>24} {unit}")


def report(result: dict) -> None:
    """Human-readable lines: metadata, every metric with its unit, notes."""
    meta = result["meta"]
    print(f"# {meta['workload']} seed {meta['seed']}: {json.dumps(meta)}")
    sizes = {k: len(v) for k, v in result["samples"].items()}
    print(f"# samples per end-to-end metric: {json.dumps(sizes)}")
    _print_table("end to end (trimmed mean ratio to the yardstick, in yardstick seconds)",
                 result["end_to_end"], END_TO_END)
    _print_table("raw wall-time medians", result["raw_medians_s"],
                 {"yardstick": "s", **END_TO_END})
    _print_table("per layer (traced replay)", result["per_layer"], per_layer_units())
    for note in result["notes"]:
        print(f"# {note}")
    print(f"# operations: {result['failed']} failed of {result['attempted']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")


def save(result: dict, trace: int) -> None:
    """Write the run's metadata, samples, metrics and spans."""
    meta = result["meta"]
    path = WORK / f"{meta['workload']}-{meta['size']}-seed{meta['seed']}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")


def summary(results: dict[str, dict], workload: str, trace: int) -> dict:
    """The final JSON line: one workload's chosen metric set, or for
    `all` every metric of every workload, named `<workload>/<metric>`."""
    metrics = {}
    for name, result in results.items():
        sets = [(END_TO_END, result["end_to_end"]), (per_layer_units(), result["per_layer"])]
        if workload != "all":
            sets = [sets[trace]]
        prefix = f"{name}/" if workload == "all" else ""
        for units, values in sets:
            for metric, unit in units.items():
                if metric in values:
                    metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(workload: str, seed: int | None, seconds: float, trace: int, size: str) -> int:
    if workload != "all" and workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if workload == "all" else [workload]
    results = {}
    for name in names:
        result = run_workload(
            name, DEFAULT_SEED if seed is None else seed, seconds, size
        )
        report(result)
        save(result, trace)
        results[name] = result
    print(json.dumps(summary(results, workload, trace)))
    return 0

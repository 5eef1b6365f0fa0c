"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criterion 8 is a wall-clock scaling check and takes the longest
(well under its five-minute budget).
"""

import gc
import random
import time
import xml.etree.ElementTree as ET

import pytest

from dynatrack import (
    PlannedEvent,
    PlantedDc,
    ScenarioSpec,
    brute_force_track,
    build_layout,
    clustering_from_labels,
    generate,
    layout_to_svg,
    new_state,
    process_snapshot,
    sequence_from_lists,
    total_consistency,
    track,
)
from dynatrack.relations import RelationCache
from dynatrack.resultdoc import canonical_labels
from helpers import (
    canonical,
    churn_sequence,
    inject_one_shot_members,
    presence,
    random_sequence,
    same_partition,
    shuffled_labels,
    subsequence,
)


def report(capfd, n, name):
    # bypass capture so the line shows up even without `pytest -s`
    with capfd.disabled():
        print(f"ACCEPTANCE {n} ({name}): PASS", flush=True)


def test_criterion_1_oracle_equivalence(capfd):
    start = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        seq = random_sequence(rng, max_t=6, max_members=20, max_clusters=4)
        x = rng.randint(0, 4)
        fast = track(seq, x)
        slow = brute_force_track(seq, x)
        assert same_partition(seq, fast.labels, slow.labels), (
            f"disagreement at seed={seed}, x={x}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    report(capfd, 1, f"oracle equivalence, 1000/1000 in {elapsed:.1f}s")


# Golden values pinned after verifying the fixture against the
# brute-force reference (also re-checked below at runtime).
SPLINTER_TRANSITION_SPEC = ScenarioSpec(
    snapshots=10,
    dcs=(PlantedDc(size=12, start=0, end=9),),
    events=(
        PlannedEvent("splinter", 0, start=2, duration=3, fraction=1 / 3),
        PlannedEvent("transition", 0, start=6, duration=3, fraction=0.25),
    ),
    turnover=0.0,
    seed=42,
)
GOLDEN_DC_COUNT = {1: 5, 5: 1}


def test_criterion_2_splinter_transition_reproduction(capfd, monkeypatch):
    monkeypatch.setattr("dynatrack.oracle.MAX_SNAPSHOTS", 12)
    seq, _ = generate(SPLINTER_TRANSITION_SPEC)
    assert len(seq) == 10
    for x, expected in GOLDEN_DC_COUNT.items():
        result = track(seq, x)
        assert len(result.dcs) == expected, (x, len(result.dcs))
        reference = brute_force_track(seq, x)
        assert same_partition(seq, result.labels, reference.labels)
    wide = track(seq, 5)
    (only,) = wide.dcs
    assert presence(wide, only) == tuple(range(10))  # spans all snapshots
    assert all(sizes.keys() == {only} for sizes in wide.sizes)
    assert len(track(seq, 1).dcs) >= 3
    report(capfd, 2, "one group at x=5 over 10 snapshots, 5 groups at x=1")


def test_criterion_3_turnover_robustness(capfd):
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        seq = random_sequence(rng)
        x = rng.randint(0, 4)
        noisy = inject_one_shot_members(seq, rng, max_share=0.5)
        assert same_partition(seq, track(seq, x).labels, track(noisy, x).labels), (
            f"turnover changed labels at seed={seed}"
        )
    report(capfd, 3, "turnover robustness, 200/200")


def test_criterion_4_order_invariance(capfd):
    for seed in range(200):
        rng = random.Random(50_000 + seed)
        seq = random_sequence(rng)
        x = rng.randint(0, 4)
        base = canonical(seq, track(seq, x).labels)
        for _ in range(5):
            got = canonical(seq, shuffled_labels(seq, x, rng))
            assert got == base, f"order changed labels at seed={seed}"
    report(capfd, 4, "order invariance, 200 instances x 5 permutations")


def test_criterion_5_structural_consistency(capfd):
    assert __debug__, "run the suite without -O so runtime checks are active"
    violations = 0
    for seed in range(300):
        rng = random.Random(60_000 + seed)
        seq = random_sequence(rng)
        x = rng.randint(0, 4)
        rels = RelationCache(seq)
        state = new_state(seq, x)
        for i in range(1, len(seq)):
            # process_snapshot itself checks injectivity; verify
            # independently as well
            process_snapshot(state, seq, rels, i)
            frontier = state.labels[i]
            assert len(frontier) == len(seq.snapshots[i])
            if len(set(frontier)) != len(frontier):
                violations += 1
    assert violations == 0
    report(capfd, 5, "structural consistency, zero violations in 300 runs")


def test_criterion_6_consistency_metric(capfd):
    def one_dc(member_sets):
        seq = sequence_from_lists([[ms] for ms in member_sets])
        return clustering_from_labels(seq, [[0] for _ in member_sets], 1)

    single = one_dc([{"1", "2"}, {"1", "2"}, {"1", "3"}])
    assert total_consistency(single) == pytest.approx(2 / 3, abs=1e-12)

    # the same DC plus a stable one as cluster 1 of every snapshot
    seq = sequence_from_lists(
        [[ms, {"x", "y"}] for ms in ({"1", "2"}, {"1", "2"}, {"1", "3"})]
    )
    combined = clustering_from_labels(
        seq, [[0, 1]] * 3, 1
    )
    assert total_consistency(combined) == pytest.approx(5 / 6, abs=1e-12)

    constant = one_dc([{"a", "b", "c"}] * 4)
    assert total_consistency(constant, "all_members") == 1.0
    assert total_consistency(constant, "residents_only") == 1.0

    for seed in range(100):
        seq = random_sequence(random.Random(70_000 + seed))
        result = track(seq, 3)
        for mode in ("all_members", "residents_only"):
            v = total_consistency(result, mode)
            assert v is None or 0.0 <= v <= 1.0
    report(capfd, 6, "consistency metric bounds and hand values")


def test_criterion_7_horizon_and_progressiveness(capfd):
    checked = 0
    for seed in range(100):
        rng = random.Random(80_000 + seed)
        seq = random_sequence(rng, max_t=6)
        x = rng.randint(0, 3)
        events = []
        full = track(seq, x, trace=events)
        for ev in events:
            if ev.marginals:
                times = sorted(r.time for r in ev.marginals)
                assert times[-1] - times[0] + 1 <= max(x - 1, 0)
        for k in range(1, len(seq)):
            upto = (k - 1) - x
            if upto < 0:
                continue
            pre = track(subsequence(seq, k), x)
            assert canonical(seq, full.labels, upto) == canonical(
                seq, pre.labels, upto
            ), f"prefix disagreement at seed={seed}, k={k}"
            checked += 1
    assert checked > 0
    report(capfd, 7, "progressiveness and marginal span bound, 100 instances")


def best_time(seq, x, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        track(seq, x)
        best = min(best, time.perf_counter() - t0)
    return best


def scaling_ratios(x=1, g=10, rounds=8, batch=3):
    """Wall-time growth when doubling T (200->400), and when doubling N
    (1000->2000) with G (g->2g), so that every layer's input doubles.

    Per round, one batch of runs is timed for each size back to back; the
    order of sizes rotates between rounds and a warm-up pass precedes
    timing, so scheduler noise and load drift spread across sizes instead
    of biasing one of them. Ratios come from per-size medians over the
    rounds, which shrugs off individual throttled rounds. The inputs are
    moved to the permanent generation once built, so the full collections
    that fall in a timed window do not walk the other sizes' inputs.
    """
    from statistics import median

    sizes = [
        ("base", churn_sequence(200, 1000, g, seed=1)),
        ("double_t", churn_sequence(400, 1000, g, seed=1)),
        ("double_n", churn_sequence(200, 2000, 2 * g, seed=1)),
    ]
    gc.collect()
    gc.freeze()
    try:
        for _, seq in sizes:
            track(seq, x)
        times: dict[str, list[float]] = {name: [] for name, _ in sizes}
        for r in range(rounds):
            for name, seq in sizes[r % 3:] + sizes[: r % 3]:
                t0 = time.perf_counter()
                for _ in range(batch):
                    track(seq, x)
                times[name].append(time.perf_counter() - t0)
    finally:
        gc.unfreeze()
    med = {name: median(v) for name, v in times.items()}
    return (
        med["double_t"] / med["base"],
        med["double_n"] / med["base"],
        med["base"] / batch,
    )


def ratios_with_remeasure(lo, hi, **kwargs):
    """One re-measure when a wall-clock ratio lands outside its bounds.

    A genuine scaling defect fails both measurements; a scheduler hiccup
    on this shared box rarely survives two. The retried value is the one
    asserted, and the retry is visible in the PASS line.
    """
    ratio_t, ratio_n, per_run = scaling_ratios(**kwargs)
    retried = ""
    if not (lo <= ratio_t <= hi and lo <= ratio_n <= hi):
        retried = f" (remeasured; first T {ratio_t:.2f}, N {ratio_n:.2f})"
        ratio_t, ratio_n, per_run = scaling_ratios(**kwargs)
    return ratio_t, ratio_n, per_run, retried


def test_criterion_8_scaling(capfd):
    start = time.perf_counter()
    ratio_t, ratio_n, per_run, retried = ratios_with_remeasure(1.6, 2.6)
    assert 1.6 <= ratio_t <= 2.6, f"T-doubling ratio {ratio_t:.2f}"
    assert 1.6 <= ratio_n <= 2.6, f"N-doubling ratio {ratio_n:.2f}"
    total = time.perf_counter() - start
    assert total < 300.0, f"benchmark took {total:.0f}s"
    report(
        capfd,
        8,
        f"scaling: T ratio {ratio_t:.2f}, N ratio {ratio_n:.2f}, "
        f"{per_run * 1000:.0f}ms/run, total {total:.0f}s{retried}",
    )


def test_criterion_9_rendering(capfd):
    seq, _ = generate(SPLINTER_TRANSITION_SPEC)
    labels = canonical_labels(track(seq, 5).labels)
    layout = build_layout(seq, labels)
    svg_one = layout_to_svg(layout)
    svg_two = layout_to_svg(build_layout(seq, labels))
    assert svg_one.encode() == svg_two.encode()  # byte-identical

    root = ET.fromstring(svg_one)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert root.get("version") == "1.1"
    assert root.get("width") and root.get("height") and root.get("viewBox")
    allowed = {f"{ns}{t}" for t in ("svg", "g", "rect", "path", "title")}
    assert {el.tag for el in root.iter()} <= allowed

    rects = root.findall(f".//{ns}rect")
    blocks = [b for col in layout.blocks for b in col]
    assert len(rects) == len(blocks)
    sizes = {
        (b.time, b.cluster): b.size for col in layout.blocks for b in col
    }
    for rect in rects:
        title = rect.find(f"{ns}title").text
        fields = dict(part.split("=") for part in title.split())
        key = (int(fields["t"]), int(fields["cluster"]))
        assert abs(float(rect.get("height")) - sizes[key]) <= 1.0
    report(capfd, 9, "SVG structure, proportional heights, deterministic bytes")

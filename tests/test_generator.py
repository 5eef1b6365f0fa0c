"""Synthetic scenario generation and planted-structure recovery."""

import hashlib
import json

import pytest

from dynatrack import (
    PlannedEvent,
    PlantedDc,
    ScenarioSpec,
    brute_force_track,
    generate,
    track,
)
from dynatrack.errors import GenerationError
from dynatrack.generator import EVENT_KINDS, MAX_MEMBER_SNAPSHOTS, MAX_SNAPSHOTS
from dynatrack.model import sequence_to_json_bytes
from helpers import canonical, snapshot_members
from inputs import planted_spec


def simple_spec(**overrides):
    base = dict(
        snapshots=6,
        dcs=(PlantedDc(size=8, start=0, end=5),),
        events=(),
        turnover=0.0,
        seed=1,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_no_events_no_turnover_is_constant():
    seq, truth = generate(simple_spec())
    first = seq.snapshots[0].clusters
    assert all(s.clusters == first for s in seq.snapshots)
    assert truth == [[0]] * 6


def test_same_seed_same_output():
    spec = simple_spec(
        events=(PlannedEvent("splinter", 0, start=2, duration=2, fraction=0.25),),
        turnover=0.1,
        seed=99,
    )
    a = generate(spec)
    b = generate(spec)
    assert a[0] == b[0] and a[1] == b[1]


def test_planted_groups_recovered_without_noise():
    spec = ScenarioSpec(
        snapshots=5,
        dcs=(PlantedDc(8, 0, 4), PlantedDc(5, 1, 4), PlantedDc(3, 0, 2)),
        seed=3,
    )
    seq, truth = generate(spec)
    result = track(seq, 1)
    got = canonical(seq, result.labels)
    mapping = {}
    want = [[mapping.setdefault(gt, len(mapping)) for gt in row] for row in truth]
    assert got == want


def test_splinter_detaches_and_returns():
    spec = simple_spec(
        events=(PlannedEvent("splinter", 0, start=2, duration=2, fraction=0.25),)
    )
    seq, truth = generate(spec)
    sizes = [sorted(len(c) for c in s.clusters) for s in seq.snapshots]
    assert sizes == [[8], [8], [2, 6], [2, 6], [8], [8]]
    assert truth[2] == [0, 0]


def test_splinter_absorbed_exactly_when_history_covers_it():
    # detached for d snapshots: one group iff x >= d+1
    d = 2
    spec = simple_spec(
        events=(PlannedEvent("splinter", 0, start=2, duration=d, fraction=0.25),)
    )
    seq, _ = generate(spec)
    at_threshold = track(seq, d + 1)
    below = track(seq, d)
    assert len(at_threshold.dcs) == 1
    assert len(below.dcs) == 2
    # boundary confirmed against the reference implementation
    assert len(brute_force_track(seq, d + 1).dcs) == 1
    assert len(brute_force_track(seq, d).dcs) == 2


def test_transition_moves_everyone():
    spec = simple_spec(
        events=(PlannedEvent("transition", 0, start=2, duration=3, fraction=0.25),)
    )
    seq, truth = generate(spec)
    assert [len(s.clusters) for s in seq.snapshots] == [1, 1, 2, 2, 2, 1]
    assert all(set(row) == {0} for row in truth)
    # the final cluster is the grown splinter holding all members
    assert seq.snapshots[5].clusters[0] == seq.snapshots[0].clusters[0]


def test_split_creates_new_ground_truth_group():
    spec = ScenarioSpec(
        snapshots=5,
        dcs=(PlantedDc(8, 0, 4),),
        events=(PlannedEvent("split", 0, start=2, fraction=0.25),),
        seed=5,
    )
    seq, truth = generate(spec)
    assert truth[1] == [0]
    assert truth[2] == [0, 1]
    assert truth[4] == [0, 1]
    result = track(seq, 4)
    assert len(result.dcs) == 2


def test_merge_absorbs_group():
    spec = ScenarioSpec(
        snapshots=5,
        dcs=(PlantedDc(6, 0, 4), PlantedDc(4, 0, 4)),
        events=(PlannedEvent("merge", 1, start=2, into=0),),
        seed=6,
    )
    seq, truth = generate(spec)
    assert [len(s.clusters) for s in seq.snapshots] == [2, 2, 1, 1, 1]
    assert truth[2] == [0]
    assert len(seq.snapshots[2].clusters[0]) == 10


def test_turnover_introduces_fresh_members():
    spec = simple_spec(turnover=0.5, seed=11)
    seq, _ = generate(spec)
    assert snapshot_members(seq, 1) != snapshot_members(seq, 0)


def test_infeasible_fraction_raises():
    with pytest.raises(GenerationError, match="empty"):
        generate(
            simple_spec(
                events=(
                    PlannedEvent("splinter", 0, start=2, duration=1, fraction=0.01),
                )
            )
        )


def test_event_outside_lifespan_rejected():
    with pytest.raises(GenerationError, match="lifespan"):
        simple_spec(
            events=(PlannedEvent("splinter", 0, start=4, duration=3, fraction=0.5),)
        ).validate()


def test_caps_hold_at_their_limits():
    # validated only: generating these would take minutes
    top = MAX_SNAPSHOTS
    size = MAX_MEMBER_SNAPSHOTS // top
    simple_spec(snapshots=top, dcs=(PlantedDc(size, 0, top - 1),)).validate()
    with pytest.raises(GenerationError, match="snapshots"):
        simple_spec(snapshots=top + 1, dcs=()).validate()
    with pytest.raises(GenerationError, match="member-snapshots"):
        simple_spec(
            snapshots=top,
            dcs=(PlantedDc(size, 0, top - 1), PlantedDc(1, 0, 0)),
        ).validate()


def test_merge_requires_target():
    with pytest.raises(GenerationError, match="into"):
        ScenarioSpec(
            snapshots=4,
            dcs=(PlantedDc(4, 0, 3), PlantedDc(4, 0, 3)),
            events=(PlannedEvent("merge", 0, start=2),),
        ).validate()


def test_spec_json_roundtrip():
    spec = ScenarioSpec(
        snapshots=10,
        dcs=(PlantedDc(12, 0, 9),),
        events=(
            PlannedEvent("splinter", 0, start=2, duration=3, fraction=1 / 3),
            PlannedEvent("transition", 0, start=6, duration=3, fraction=0.25),
        ),
        turnover=0.0,
        seed=42,
    )
    again = ScenarioSpec.from_json(
        '{"snapshots": 10, "dcs": [{"size": 12, "start": 0, "end": 9}],'
        ' "events": [{"kind": "splinter", "dc": 0, "start": 2, "duration": 3,'
        ' "fraction": 0.3333333333333333}, {"kind": "transition", "dc": 0,'
        ' "start": 6, "duration": 3, "fraction": 0.25}],'
        ' "turnover": 0.0, "seed": 42}'
    )
    assert again == spec
    assert generate(again) == generate(spec)


def test_spec_with_a_long_integer_rejected():
    # longer than the 4,300 digits the interpreter converts to int
    with pytest.raises(GenerationError, match="integer too long"):
        ScenarioSpec.from_json('{"snapshots":1' + "0" * 5000 + "}")


def test_ground_truth_aligns_with_clusters():
    spec = ScenarioSpec(
        snapshots=8,
        dcs=(PlantedDc(10, 0, 7), PlantedDc(6, 2, 6)),
        events=(PlannedEvent("splinter", 0, start=3, duration=2, fraction=0.3),),
        turnover=0.05,
        seed=21,
    )
    seq, truth = generate(spec)
    assert [len(s.clusters) for s in seq.snapshots] == [len(r) for r in truth]


# The digest of `generate` over PINNED_SPECS: each spec's sequence bytes
# and ground-truth columns, or its GenerationError message.
GENERATE_DIGEST = "556d648f5d0b40e0b608ceedb74b544ae8590a1fa938d854a7fe76ca6d6fc18c"


def _pinned_specs():
    """360 seeded `planted_spec` scenarios at three turnover rates, and a
    few that `generate` or the spec reader rejects."""
    specs = [
        planted_spec(seed, 3 + seed % 6, 8 + seed % 9, (4, 8 + seed % 10), turnover)
        for seed in range(120)
        for turnover in (0.0, 0.05, 0.2)
    ]
    specs += [
        # splinter and split fractions that leave an empty cluster
        simple_spec(events=(PlannedEvent("splinter", 0, 2, 1, 0.01),)),
        simple_spec(events=(PlannedEvent("split", 0, 2, fraction=0.99),)),
        # transition whose first step moves everyone
        simple_spec(events=(PlannedEvent("transition", 0, 2, 2, 0.99),)),
        # merge into a group that merged away at the same snapshot
        simple_spec(
            dcs=(PlantedDc(4, 0, 5), PlantedDc(4, 0, 5), PlantedDc(4, 0, 5)),
            events=(
                PlannedEvent("merge", 1, 2, into=2),
                PlannedEvent("merge", 0, 2, into=1),
            ),
        ),
        # validation failures
        simple_spec(turnover=1.0),
        simple_spec(dcs=(PlantedDc(0, 0, 5),)),
        simple_spec(events=(PlannedEvent("merge", 0, 2, into=0),)),
    ]
    return specs


def test_generate_output_is_pinned():
    digest = hashlib.sha256()
    kinds = set()
    errors = 0
    for spec in _pinned_specs():
        kinds.update(ev.kind for ev in spec.events)
        try:
            seq, truth = generate(spec)
        except GenerationError as exc:
            errors += 1
            digest.update(f"error: {exc}\n".encode())
            continue
        digest.update(sequence_to_json_bytes(seq))
        digest.update(json.dumps(truth, separators=(",", ":")).encode() + b"\n")
    assert kinds == set(EVENT_KINDS)
    assert errors >= 7
    assert digest.hexdigest() == GENERATE_DIGEST


def test_groups_are_emitted_in_birth_order():
    # dc 1 splits at t=1, before dc 0 is born at t=3: the split's offspring
    # (ground truth 2) comes before dc 0 in every later snapshot
    spec = simple_spec(
        dcs=(PlantedDc(4, 3, 5), PlantedDc(6, 0, 5)),
        events=(PlannedEvent("split", 1, 1, fraction=0.5),),
    )
    _seq, truth = generate(spec)
    assert truth == [[1], [1, 2], [1, 2], [1, 2, 0], [1, 2, 0], [1, 2, 0]]

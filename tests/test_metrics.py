"""Life-cycle events, auto-correlation, consistency, summary statistics."""

import dataclasses
import json
import random
import statistics
from argparse import Namespace
from collections import Counter
from fractions import Fraction

import pytest

from dynatrack import (
    DynamicClustering,
    PlannedEvent,
    PlantedDc,
    RelationCache,
    ScenarioSpec,
    SummaryStats,
    classify_events,
    clustering_from_labels,
    consistencies,
    event_rows,
    events,
    generate,
    metrics,
    relations,
    sequence_from_lists,
    summary_stats,
    total_consistency,
    track,
    __version__,
)
from dynatrack.cli import cmd_events
from dynatrack.model import ClusterRef
from dynatrack.resultdoc import (
    build_document,
    document_to_bytes,
    load_document,
)
from helpers import (
    autocorrelation,
    churn_sequence,
    dc_clusters,
    dc_ids,
    dc_members,
    presence,
    random_sequence,
    reference_events,
)


def labelled(data, labels):
    """Result of the label columns `labels` (labels[t][a] for cluster a of
    snapshot t) on the sequence `data`."""
    return clustering_from_labels(sequence_from_lists(data), labels, 1)


def single_dc(member_sets):
    """Result with one DC, one cluster per snapshot."""
    return labelled(
        [[ms] for ms in member_sets], [[0] for _ in member_sets]
    )


def dc_with_a_gap():
    """DC 0 is present at snapshots 0 and 2 but not 1, where its members
    are gone; DC 1 grows by one member at 1 and shrinks back at 2."""
    return labelled(
        [[{"a", "b"}, {"c"}], [{"c", "d"}], [{"a", "b"}, {"c"}]],
        [[0, 1], [1], [0, 1]],
    )


def reference_total_consistency(result, mode="all_members"):
    """The consistency of `result` computed on member string sets."""
    if mode not in ("all_members", "residents_only"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    system: dict[int, frozenset[str]] = {}

    def members_at(i):
        if i not in system:
            system[i] = frozenset().union(
                *(dc_members(result.seq, result, dc, i) for dc in set(result.labels[i]))
            )
        return system[i]

    total = 0.0
    pairs = 0
    for dc in dc_ids(result):
        times = presence(result, dc)
        for i, nxt in zip(times, times[1:]):
            if nxt != i + 1:
                continue
            a = dc_members(result.seq, result, dc, i)
            b = dc_members(result.seq, result, dc, nxt)
            union = a | b
            if mode == "residents_only":
                union = union & members_at(i) & members_at(nxt)
            pairs += 1
            if union:
                total += len(a & b) / len(union)
    if pairs == 0:
        return None
    return total / pairs


def test_clustering_from_labels_groups_members_by_dc_in_id_order():
    # A splinter absorbed at x=3 leaves one DC on two clusters of t2.
    seq = sequence_from_lists(
        [
            [["1", "2", "3"], ["4", "5", "6"]],
            [["1", "2", "3", "4", "5", "6"]],
            [["1", "2", "3", "4"], ["5", "6"]],
            [["1", "2", "3", "4", "5", "6"]],
        ]
    )
    # Ids renumbered against their order of first appearance.
    tracked = track(seq, 3).labels
    ids = sorted({dc for column in tracked for dc in column})
    renamed = dict(zip(ids, reversed(ids)))
    labels = [[renamed[dc] for dc in column] for column in tracked]
    assert labels != tracked
    result = clustering_from_labels(seq, labels, 3)
    assert result.dcs == tuple(ids)
    assert result.labels == labels and result.x_used == 3
    assert any(
        len(dc_clusters(result, dc, t)) > 1 for dc in ids for t in range(len(seq))
    )
    # Each size table lists exactly the DCs of its snapshot.
    assert [sorted(sizes) for sizes in result.sizes] == [
        sorted(set(column)) for column in labels
    ]
    for dc_id in ids:
        refs = sorted(
            ClusterRef(t, a)
            for t, column in enumerate(labels)
            for a, dc in enumerate(column)
            if dc == dc_id
        )
        times = tuple(sorted({r.time for r in refs}))
        assert presence(result, dc_id) == times
        assert tuple(t for t, sizes in enumerate(result.sizes) if dc_id in sizes) == times
        for t in times:
            alphas = tuple(r.cluster for r in refs if r.time == t)
            assert dc_clusters(result, dc_id, t) == alphas
            members = set()
            for a in alphas:
                members.update(seq.snapshots[t].clusters[a])
            assert dc_members(seq, result, dc_id, t) == members
            assert result.sizes[t][dc_id] == len(members)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([[0]], "1 label columns for 2 snapshots"),
        ([[0], [0, 5]], "snapshot 1: 2 labels for 1 clusters"),
        ([[0], [0], [0]], "3 label columns for 2 snapshots"),
        ([[], [0]], "snapshot 0: 0 labels for 1 clusters"),
    ],
)
def test_clustering_from_labels_checks_the_column_shapes(labels, message):
    # Without the check, zip truncated these silently: `event_rows` raised
    # IndexError or KeyError and `consistencies` returned (None, None).
    seq = sequence_from_lists([[["a"]], [["a"]]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        clustering_from_labels(seq, labels, 1)


class TestAutocorrelation:
    def test_identical(self):
        result = single_dc([{"1", "2"}, {"1", "2"}])
        assert autocorrelation(result.seq, result, 0, 0) == 1.0

    def test_partial(self):
        result = single_dc([{"1", "2"}, {"1", "3"}])
        assert autocorrelation(result.seq, result, 0, 0) == pytest.approx(1 / 3)

    def test_disjoint(self):
        result = single_dc([{"1", "2"}, {"3", "4"}])
        assert autocorrelation(result.seq, result, 0, 0) == 0.0

    def test_gap_pair_is_excluded(self):
        result = labelled([[{"a"}], [{"b"}], [{"a"}]], [[0], [1], [0]])
        assert presence(result, 0) == (0, 2)
        assert [0 in sizes for sizes in result.sizes] == [True, False, True]
        assert autocorrelation(result.seq, result, 0, 0) is None

    def test_bad_index(self):
        result = single_dc([{"1"}, {"1"}])
        with pytest.raises(IndexError):
            autocorrelation(result.seq, result, 0, 1)


def scenario_sequences():
    """Generated scenarios with a splinter, a transition, a split, a merge
    and rising turnover."""
    for seed in range(4):
        spec = ScenarioSpec(
            snapshots=10,
            dcs=(PlantedDc(12, 0, 9), PlantedDc(9, 0, 7), PlantedDc(6, 2, 9)),
            events=(
                PlannedEvent("splinter", 0, start=2, duration=3, fraction=1 / 3),
                PlannedEvent("transition", 1, start=3, duration=2, fraction=0.5),
                PlannedEvent("split", 2, start=5, fraction=0.5),
                PlannedEvent("merge", 1, start=7, into=0),
            ),
            turnover=0.1 + 0.1 * seed,
            seed=seed,
        )
        yield generate(spec)[0]


def consistency_instances():
    """Tracked results over random sequences and generated scenarios."""
    for seed in range(40):
        seq = random_sequence(random.Random(9000 + seed), max_t=8)
        for x in range(5):
            yield track(seq, x)
    for seq in scenario_sequences():
        for x in range(5):
            yield track(seq, x)


class TestTotalConsistency:
    def test_single_dc_hand_value(self):
        # pairs: 1.0 and 1/3 -> mean 2/3
        result = single_dc([{"1", "2"}, {"1", "2"}, {"1", "3"}])
        expected = float(Fraction(1, 1) + Fraction(1, 3)) / 2
        assert total_consistency(result) == pytest.approx(expected, abs=1e-12)
        assert total_consistency(result) == pytest.approx(2 / 3, abs=1e-12)

    def test_undefined_when_no_pairs(self):
        # every DC lives a single snapshot
        result = labelled([[{"a"}], [{"b"}]], [[0], [1]])
        assert total_consistency(result) is None
        assert total_consistency(result, "residents_only") is None

    def test_two_dc_hand_value(self):
        # one DC stable over 3 snapshots (two 1.0 pairs), one as in the
        # single-DC case (1.0 and 1/3): (2 + 1 + 1/3) / 4 = 5/6
        varying = ({"1", "2"}, {"1", "2"}, {"1", "3"})
        result = labelled(
            [[ms, {"x", "y"}] for ms in varying],
            [[0, 1]] * 3,
        )
        expected = float((2 * Fraction(1) + Fraction(1) + Fraction(1, 3)) / 4)
        assert total_consistency(result) == pytest.approx(expected, abs=1e-12)
        assert total_consistency(result) == pytest.approx(5 / 6, abs=1e-12)

    def test_constant_membership_scores_one(self):
        result = single_dc([{"1", "2"}] * 4)
        assert total_consistency(result, "all_members") == 1.0
        assert total_consistency(result, "residents_only") == 1.0

    def test_residents_only_discounts_departures(self):
        # member 2 leaves the system entirely: resident mode ignores it
        result = single_dc([{"1", "2"}, {"1"}])
        assert total_consistency(result, "all_members") == pytest.approx(0.5)
        assert total_consistency(result, "residents_only") == 1.0

    def test_resident_mode_uses_system_wide_residents(self):
        # member 2 moves to another DC: still resident, still a defect
        result = labelled(
            [[{"1", "2"}], [{"1"}, {"2"}]], [[0], [0, 1]]
        )
        assert total_consistency(result, "residents_only") == pytest.approx(0.5)

    def test_bounds_and_mode_ordering_on_random_runs(self):
        for seed in range(30):
            seq = random_sequence(random.Random(seed))
            result = track(seq, 2)
            for mode in ("all_members", "residents_only"):
                v = total_consistency(result, mode)
                if v is not None:
                    assert 0.0 <= v <= 1.0
            va = total_consistency(result, "all_members")
            vr = total_consistency(result, "residents_only")
            if va is not None and vr is not None:
                assert vr >= va - 1e-12

    def test_equals_string_set_reference_exactly(self):
        defined = apart = multi = 0
        for result in consistency_instances():
            # a copy without the tracker's tables computes its own
            rebuilt = clustering_from_labels(result.seq, result.labels, result.x_used)
            values = []
            for mode in ("all_members", "residents_only"):
                expected = reference_total_consistency(result, mode)
                assert total_consistency(result, mode) == expected
                assert total_consistency(rebuilt, mode) == expected
                values.append(expected)
            assert consistencies(result) == tuple(values)
            assert consistencies(rebuilt) == tuple(values)
            defined += values[0] is not None
            apart += values[0] != values[1]
            multi += any(len(set(column)) < len(column) for column in result.labels)
        # the instances score, tell the modes apart and hold DCs that span
        # several clusters of one snapshot
        assert defined > 100 and apart > 50 and multi > 10

    def test_reads_the_tables_of_the_cache_it_was_tracked_with(self, monkeypatch):
        # every pair table the kernel counts, T - 1 of them per build
        builds = []
        pair_counts = relations.pair_counts

        def counted(a, b):
            builds.append((a, b))
            return pair_counts(a, b)

        monkeypatch.setattr(relations, "pair_counts", counted)
        seq = random_sequence(random.Random(5), max_t=8)
        pairs = len(seq) - 1
        assert pairs > 0
        rels = RelationCache(seq)
        results = [track(seq, x, relations=rels) for x in range(4)]
        for result in results:
            total_consistency(result, "all_members")
            total_consistency(result, "residents_only")
            consistencies(result)
        assert len(builds) == pairs
        # a result without tables counts them once and keeps them
        rebuilt = clustering_from_labels(seq, results[2].labels, 2)
        assert consistencies(rebuilt) == consistencies(results[2])
        for mode in ("all_members", "residents_only", "all_members"):
            assert total_consistency(rebuilt, mode) == total_consistency(
                results[2], mode
            )
        assert len(builds) == 2 * pairs

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            total_consistency(single_dc([{"1"}]), "banana")

    def test_dc_on_two_clusters_with_a_departure_hand_value(self):
        # DC 0 holds {1,2} and {3,4} at t0 and {1,2,3,5} at t1; member 4
        # leaves the system and 5 comes from DC 1, which ends at t0.
        # |A∩B| = 3, |A∪B| = 5, resident union {1,2,3,5}: 3/5 and 3/4.
        result = labelled(
            [[{"1", "2"}, {"3", "4"}, {"5"}], [{"1", "2", "3", "5"}, {"6"}]],
            [[0, 0, 1], [0, 2]],
        )
        assert dc_clusters(result, 0, 0) == (0, 1) and dc_clusters(result, 0, 1) == (0,)
        assert result.sizes == [{0: 4, 1: 1}, {0: 4, 2: 1}]
        assert consistencies(result) == (3 / 5, 3 / 4)
        assert total_consistency(result, "all_members") == 3 / 5
        assert total_consistency(result, "residents_only") == 3 / 4

    def test_sums_in_dc_id_order_under_renumbered_ids(self):
        # Ids renumbered against their order of first appearance, as in
        # test_clustering_from_labels_groups_members_by_dc_in_id_order:
        # the terms are summed in ascending DC id, then time.
        order_matters = 0
        for seed in range(40):
            seq = random_sequence(random.Random(9000 + seed), max_t=8)
            tracked = track(seq, 2).labels
            ids = sorted({dc for column in tracked for dc in column})
            renamed = dict(zip(ids, reversed(ids)))
            labels = [[renamed[dc] for dc in column] for column in tracked]
            result = clustering_from_labels(seq, labels, 2)
            expected = tuple(
                reference_total_consistency(result, mode)
                for mode in ("all_members", "residents_only")
            )
            assert consistencies(result) == expected
            assert result.dcs == tuple(dc_ids(result))
            per_dc = [
                [
                    v
                    for j in range(len(presence(result, dc)) - 1)
                    if (v := autocorrelation(seq, result, dc, j)) is not None
                ]
                for dc in dc_ids(result)
            ]
            first_seen = [v for terms in reversed(per_dc) for v in terms]
            order_matters += sum(sum(per_dc, [])) != sum(first_seen)
        # some instances give other floats when the DCs are summed in
        # their order of first appearance
        assert order_matters > 0


KINDS = ("birth", "death", "growth", "shrinkage", "split", "merge")


class TestEvents:
    def test_growth_delta(self):
        seq = sequence_from_lists([[["a", "b"]], [["a", "b", "c"]]])
        result = track(seq, 1)
        events = classify_events(result, seq)
        growth = [e for e in events if e.kind == "growth"]
        assert len(growth) == 1
        assert growth[0].delta == 1 and growth[0].time == 1

    def test_shrinkage_delta(self):
        seq = sequence_from_lists([[["a", "b", "c"]], [["a", "b"]]])
        events = classify_events(track(seq, 1), seq)
        shrink = [e for e in events if e.kind == "shrinkage"]
        assert len(shrink) == 1 and shrink[0].delta == -1

    def test_death_when_members_vanish(self):
        seq = sequence_from_lists([[["a", "b"]], [["x"]]])
        events = classify_events(track(seq, 1), seq)
        deaths = [e for e in events if e.kind == "death"]
        assert len(deaths) == 1
        assert deaths[0].time == 1

    def test_birth_of_all_new_members(self):
        seq = sequence_from_lists([[["a"]], [["x", "y"]]])
        events = classify_events(track(seq, 1), seq)
        births = [e for e in events if e.kind == "birth"]
        assert [e.time for e in births] == [1]

    def test_no_birth_for_members_drawn_from_other_groups(self):
        # the new cluster's members were present at t0 in another group
        seq = sequence_from_lists(
            [[["a", "b", "c", "d"]], [["a", "b", "c"], ["d"]]]
        )
        result = track(seq, 1)
        events = classify_events(result, seq)
        split_dc = result.labels[1][1]
        assert not any(e.kind == "birth" and e.dc == split_dc for e in events)

    def test_split_into_two_groups(self):
        seq = sequence_from_lists(
            [[["a", "b", "c", "d"]], [["a", "b", "c"], ["d"]]]
        )
        result = track(seq, 1)
        events = classify_events(result, seq)
        splits = [e for e in events if e.kind == "split"]
        assert len(splits) == 1
        ev = splits[0]
        host = result.labels[0][0]
        other = result.labels[1][1]
        assert ev.dc == host and ev.related == (other,) and ev.time == 1
        # a split across two ids involves at least two ids overall
        assert len({ev.dc, *ev.related}) >= 2

    def test_merge_from_two_groups(self):
        seq = sequence_from_lists([[["a"], ["b"]], [["a", "b"]]])
        result = track(seq, 1)
        events = classify_events(result, seq)
        merges = [e for e in events if e.kind == "merge"]
        assert len(merges) == 1
        # the union founds its own group here, so all three ids show up
        assert merges[0].related == (
            result.labels[0][0],
            result.labels[0][1],
        )
        assert len({merges[0].dc, *merges[0].related}) >= 2

    def test_stable_fixture_has_no_events(self):
        seq = sequence_from_lists([[["a", "b"], ["c"]]] * 4)
        assert classify_events(track(seq, 2), seq) == []

    def test_deterministic(self):
        seq = random_sequence(random.Random(11))
        result = track(seq, 2)
        assert classify_events(result, seq) == classify_events(result, seq)

    def test_equals_string_set_reference_at_every_x(self):
        sequences = [random_sequence(random.Random(7000 + s)) for s in range(320)]
        sequences += scenario_sequences()
        sequences.append(churn_sequence(6, 300, 12, seed=3))
        kinds = Counter()
        empty = multi = 0
        for seq in sequences:
            empty += any(len(snap) == 0 for snap in seq.snapshots)
            for x in range(len(seq)):
                result = track(seq, x)
                if x == 0:
                    # every cluster founds its own DC
                    assert len(result.dcs) == sum(map(len, seq.snapshots))
                for t, column in enumerate(result.labels):
                    multi += sum(n > 1 for n in Counter(column).values())
                    assert result.sizes[t] == {
                        dc: len(dc_members(seq, result, dc, t)) for dc in column
                    }
                expected = reference_events(result, seq)
                assert classify_events(result, seq) == expected
                # the rows are the records' fields, row by row
                assert event_rows(result.labels, result.sizes, result.tables()) == [
                    (ev.time, ev.dc, ev.kind, ev.related, ev.delta) for ev in expected
                ]
                # a result without the tracker's tables computes its own
                rebuilt = clustering_from_labels(seq, result.labels, x)
                assert classify_events(rebuilt, seq) == expected
                kinds.update(ev.kind for ev in expected)
        # every kind of event occurs, and so do snapshots without clusters
        # and DCs that span several clusters of one snapshot
        assert min(kinds[k] for k in KINDS) > 500 and empty > 10 and multi > 100
        # No death of DC 0 at 1 and no birth at 2.
        gap = dc_with_a_gap()
        expected = reference_events(gap, gap.seq)
        assert classify_events(gap, gap.seq) == expected
        assert event_rows(gap.labels, gap.sizes, gap.tables()) == [
            (ev.time, ev.dc, ev.kind, ev.related, ev.delta) for ev in expected
        ] == [(1, 1, "growth", (), 1), (2, 1, "shrinkage", (), -1)]

    def test_cli_bytes_equal_the_replay_formula_at_every_x(self, tmp_path):
        sequences = [random_sequence(random.Random(7000 + s)) for s in range(320)]
        sequences += scenario_sequences()
        doc_path = tmp_path / "result.json"
        out = tmp_path / "events.json"
        kinds = set()
        for seq in sequences:
            for x in range(len(seq)):
                doc = document_to_bytes(build_document(seq, track(seq, x), __version__))
                doc_path.write_bytes(doc)
                # the subcommand's body, without building the parser each time
                assert cmd_events(Namespace(result=str(doc_path), output=str(out))) == 0
                # the document's DC ids are canonical
                loaded, labels, _x = load_document(doc)
                result = clustering_from_labels(loaded, labels, x)
                found = [
                    dict(dataclasses.asdict(ev), related=list(ev.related))
                    for ev in classify_events(result, loaded)
                ]
                kinds.update(ev["kind"] for ev in found)
                # what `perfbench/replay.py` writes
                expected = json.dumps(
                    {"schema": 1, "events": found},
                    ensure_ascii=False,
                    sort_keys=True,
                    separators=(",", ":"),
                ) + "\n"
                assert out.read_bytes() == expected.encode("utf-8")
        assert kinds == set(KINDS)

    def test_result_of_another_sequence_rejected(self):
        seq = sequence_from_lists([[["a", "b"]], [["a"], ["b"]]])
        twin = sequence_from_lists([[["a", "b"]], [["a"], ["b"]]])
        result = track(seq, 1)
        assert classify_events(result, seq)
        with pytest.raises(ValueError, match="different sequence"):
            classify_events(result, twin)
        # zip truncated a longer sequence into a document whose
        # snapshot_count disagrees with its snapshots
        longer = sequence_from_lists([[["a", "b"]], [["a"], ["b"]], [["a"]]])
        assert build_document(seq, result, "0")["snapshot_count"] == 2
        for other in (twin, longer):
            with pytest.raises(ValueError, match="different sequence"):
                build_document(other, result, "0")


class TestSummaryStats:
    def test_single_long_dc(self):
        result = single_dc([{"1", "2"}] * 5)
        stats = summary_stats(result)
        assert stats.dc_count == 1
        assert stats.mean_lifespan == 5
        assert stats.weighted_mean_lifespan == 5
        assert stats.lifespan_histogram == {5: 1}

    def test_weighted_mean_hand_value(self):
        # lifespans 1 and 3, per-snapshot sizes 10 and 1:
        # mean 2, weighted (10*1*1 + 3*1*3) / 13 = 19/13
        result = labelled(
            [[{f"m{i}" for i in range(10)}, {"z"}], [{"z"}], [{"z"}]],
            [[0, 1], [1], [1]],
        )
        stats = summary_stats(result)
        assert stats.dc_count == 2
        assert stats.mean_lifespan == 2
        assert stats.weighted_mean_lifespan == pytest.approx(
            float(Fraction(19, 13)), abs=1e-12
        )
        assert stats.lifespan_histogram == {1: 1, 3: 1}

    @pytest.mark.parametrize("lifespans", [[7, 2, 1], [1] * 10 + [3] * 3 + [9]])
    def test_mean_lifespan_is_fmean(self, lifespans):
        # DC k holds one member at snapshots 0 .. lifespans[k] - 1.
        data = [
            [{f"m{k}"} for k, span in enumerate(lifespans) if span > t]
            for t in range(max(lifespans))
        ]
        labels = [
            [k for k, span in enumerate(lifespans) if span > t]
            for t in range(max(lifespans))
        ]
        result = labelled(data, labels)
        assert [len(presence(result, dc)) for dc in dc_ids(result)] == lifespans
        assert summary_stats(result).mean_lifespan == statistics.fmean(lifespans)

    def test_equals_per_dc_reference(self):
        for result in [*consistency_instances(), dc_with_a_gap()]:
            ids = dc_ids(result)
            lifespans = [len(presence(result, dc)) for dc in ids]
            weights = [
                sum(len(dc_members(result.seq, result, dc, t)) for t in presence(result, dc))
                for dc in ids
            ]
            stats = summary_stats(result)
            assert stats.dc_count == len(ids)
            assert stats.lifespan_histogram == dict(sorted(Counter(lifespans).items()))
            assert stats.mean_lifespan == statistics.fmean(lifespans)
            assert stats.weighted_mean_lifespan == sum(
                w * ls for w, ls in zip(weights, lifespans)
            ) / sum(weights)

    def test_empty_registry(self):
        result = labelled([[]], [[]])
        stats = summary_stats(result)
        assert stats.dc_count == 0
        assert stats.lifespan_histogram == {}
        assert stats.mean_lifespan is None
        assert stats.weighted_mean_lifespan is None


class TestReplayContract:
    """What the benchmark's in-process replay (`perfbench/replay.py`) uses."""

    def test_events_convert_with_asdict(self):
        seq = sequence_from_lists(
            [[["a", "b", "c"]], [["a", "b", "c", "d"]], [["a", "b"], ["c", "d"]]]
        )
        found = classify_events(track(seq, 1), seq)
        assert {ev.kind for ev in found} == {"growth", "split"}
        for ev in found:
            assert dataclasses.asdict(ev) == {
                "kind": ev.kind, "time": ev.time, "dc": ev.dc,
                "related": ev.related, "delta": ev.delta,
            }

    def test_metrics_reexports_the_events_objects(self):
        from dynatrack.metrics import LifecycleEvent, classify_events

        assert classify_events is events.classify_events
        assert LifecycleEvent is events.LifecycleEvent
        assert metrics.classify_events is events.classify_events
        with pytest.raises(AttributeError, match="no_such_name"):
            metrics.no_such_name

    def test_result_equality_and_repr_ignore_seq_and_tables(self):
        seq = sequence_from_lists([[["a", "b"]], [["a", "b", "c"]]])
        tracked = track(seq, 1)
        rebuilt = clustering_from_labels(seq, tracked.labels, 1)
        bare = DynamicClustering(tracked.labels, tracked.sizes, 1, seq)
        assert tracked.sizes == bare.sizes == [{0: 2}, {0: 3}]
        assert tracked.dcs == rebuilt.dcs == bare.dcs == (0,)
        assert rebuilt.pair_triples is None
        assert rebuilt.tables() == [[(0, 0, 2)]]
        assert rebuilt.pair_triples == relations.count_tables(seq)
        assert tracked == rebuilt == bare
        assert tracked != DynamicClustering(tracked.labels, tracked.sizes, 2, seq)
        # the size tables and DC ids derive from the labels
        assert tracked == DynamicClustering(tracked.labels, [{}, {}], 1, seq)
        # a result always carries its sequence
        with pytest.raises(TypeError):
            DynamicClustering(tracked.labels, tracked.sizes, 1)
        assert repr(tracked) == repr(rebuilt) == repr(bare) == (
            "DynamicClustering(labels=[[0], [0]], x_used=1)"
        )

    def test_summary_stats_do_not_share_a_histogram(self):
        first, second = SummaryStats(dc_count=0), SummaryStats(dc_count=0)
        assert first == second
        assert first.lifespan_histogram is not second.lifespan_histogram
        first.lifespan_histogram[1] = 1
        assert second.lifespan_histogram == {}
        assert repr(second) == (
            "SummaryStats(dc_count=0, lifespan_histogram={}, "
            "mean_lifespan=None, weighted_mean_lifespan=None)"
        )

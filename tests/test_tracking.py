"""Core tracking: paths, matches, source sets, flows, and whole runs."""

import collections
import gc
import inspect
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from dynatrack import (
    ClusterRef,
    brute_force_track,
    PlannedEvent,
    PlantedDc,
    RelationCache,
    ScenarioSpec,
    finalize,
    generate,
    new_state,
    process_snapshot,
    sequence_from_lists,
    track,
)
from dynatrack import relations, tracking
from dynatrack.errors import SequencingError, TrackingInvariantError
from dynatrack.oracle import MAX_SNAPSHOTS, MAX_TOTAL_CLUSTERS
from dynatrack.relations import lift
from inputs import planted_spec
from helpers import (
    canonical,
    churn_sequence,
    cluster_members,
    dc_ids,
    inject_one_shot_members,
    random_sequence,
    same_partition,
    shuffled_labels,
    subsequence,
)


def majority_set(seq, ref, step):
    """The clusters `step` (-1 or 1) snapshots from ref that hold the
    largest share of its members, all ties; empty when none shares one."""
    mine = cluster_members(seq, ref)
    t = ref.time + step
    scores = {
        ClusterRef(t, a): len(mine.intersection(other))
        for a, other in enumerate(seq.snapshots[t].clusters)
    }
    best = max(scores.values(), default=0)
    return {c for c, s in scores.items() if s == best} if best else set()


def enum_path(seq, start, n, step):
    """Independent path oracle: n literal majority steps over member sets."""
    layer = set(start)
    for _ in range(n):
        layer = set().union(*(majority_set(seq, r, step) for r in layer))
    return frozenset(layer)


def enum_trace_path(seq, ref, n):
    return enum_path(seq, {ref}, n, -1)


def enum_map_path(seq, start, n):
    return enum_path(seq, start, n, 1)


def enum_is_bijective(seq, ref, n):
    """Whether ref and its n-step tracing path hold each other's majorities."""
    back = enum_trace_path(seq, ref, n)
    return bool(back) and enum_map_path(seq, back, n) == {ref}


def enum_inverse(seq, layer, t, step):
    """The clusters at t whose majority set `step` snapshots on is one
    cluster of `layer`: the mapper sets of `layer` for step 1, its tracer
    sets for step -1."""
    refs = (ClusterRef(t, a) for a in range(len(seq.snapshots[t])))
    return {
        r for r in refs
        if len(m := majority_set(seq, r, step)) == 1 and m <= layer
    }


def reference_flow(seq, target, n, source):
    """(flow, marginals) of a depth-n match from `source` to `target`,
    from member sets alone. flow[o] is the tracing path o steps back from
    the target and the mapping path n - o steps on from the source; a
    marginal o steps back is reached from the target by o mapper steps
    and from the source by n - o tracer steps, and is not on flow[o]."""
    flow = tuple(
        enum_trace_path(seq, target, o) | enum_map_path(seq, source, n - o)
        for o in range(n + 1)
    )
    t = target.time
    mappers = {0: {target}}
    for o in range(1, n):
        mappers[o] = enum_inverse(seq, mappers[o - 1], t - o, 1)
    marginals = set()
    tracer = set(source)
    for o in range(n - 1, 0, -1):
        tracer = enum_inverse(seq, tracer, t - o, -1)
        marginals |= (mappers[o] & tracer) - flow[o]
    return flow, frozenset(marginals)


def refs(time, *clusters):
    return frozenset(ClusterRef(time, c) for c in clusters)


def idx(*clusters):
    """An index set of clusters of one snapshot, as the tracker holds it."""
    return frozenset(clusters)


def named(event):
    """The flow of a TraceEvent with each index set named by ClusterRef, as
    `reference_flow` gives it."""
    t = event.target.time
    return tuple(refs(t - o, *layer) for o, layer in enumerate(event.flow))


def traced(seq, x):
    """The TraceEvent of every target of a traced run, by target."""
    events = []
    track(seq, x, trace=events)
    return {ev.target: ev for ev in events}


def search_at(seq, x, ref):
    """`reference_search_source` for ref, with every snapshot before it
    processed, and the TraceEvent of ref when its snapshot is processed."""
    rels = RelationCache(seq)
    state = new_state(seq, x, trace=True)
    t = ref.time
    for i in range(1, t):
        process_snapshot(state, seq, rels, i)
    found = reference_search_source(state, rels, t, ref.cluster)
    process_snapshot(state, seq, rels, t)
    (event,) = [ev for ev in state.trace if ev.target == ref]
    return found, event


class TestPaths:
    def test_depth_zero_is_identity(self):
        seq = sequence_from_lists([[["1"]], [["1"]]])
        g = ClusterRef(1, 0)
        assert enum_trace_path(seq, g, 0) == frozenset((g,))
        assert enum_map_path(seq, frozenset((g,)), 0) == frozenset((g,))
        (_, layers, _), event = search_at(seq, 0, g)
        assert layers == [idx(0)]
        assert event.flow == (idx(0),)

    def test_chain_of_unique_majorities(self):
        seq = sequence_from_lists([[["1", "2"]], [["1", "2"]], [["1", "2"]]])
        g = ClusterRef(2, 0)
        assert enum_trace_path(seq, g, 2) == refs(0, 0)
        assert enum_map_path(seq, refs(0, 0), 2) == refs(2, 0)
        (n, layers, forward), event = search_at(seq, 2, g)
        assert layers == [idx(0), idx(0), idx(0)]
        assert n == 2 and forward == [idx(0), idx(0)]
        assert event.flow == (idx(0), idx(0), idx(0))

    def test_splinter_layers_recombine(self):
        # C at t2 traces to both A and B; both trace to Z
        seq = sequence_from_lists(
            [[["1", "2", "3", "4"]], [["1", "2"], ["3", "4"]], [["1", "2", "3", "4"]]]
        )
        c = ClusterRef(2, 0)
        assert enum_trace_path(seq, c, 1) == refs(1, 0, 1)
        assert enum_trace_path(seq, c, 2) == refs(0, 0)
        (n, layers, _), event = search_at(seq, 2, c)
        assert layers == [idx(0), idx(0, 1), idx(0)]
        assert n == event.n_star == 2
        assert event.flow == tuple(layers)

    def test_path_dies_on_full_turnover(self):
        seq = sequence_from_lists([[["1"]], [["2"]], [["2"]]])
        g = ClusterRef(2, 0)
        assert enum_trace_path(seq, g, 2) == frozenset()
        # the search stops where the tracing path dies
        (n, layers, _), event = search_at(seq, 2, g)
        assert layers == [idx(0), idx(0)]
        assert n == event.n_star == 1


class TestBijectiveMatch:
    def test_depth_zero_always_true(self):
        seq = sequence_from_lists([[["1"], ["2"]], [["1", "2"]]])
        for g in (ClusterRef(0, 0), ClusterRef(0, 1), ClusterRef(1, 0)):
            assert enum_is_bijective(seq, g, 0)
        # at history 0 every target is its own depth-0 match
        event = traced(seq, 0)[ClusterRef(1, 0)]
        assert event.n_star == 0 and event.source_set == idx(0)

    def test_period_two_swap(self):
        # two clusters swapping their member sets every step
        seq = sequence_from_lists(
            [
                [["1", "2", "3"], ["4", "5", "6"]],
                [["4", "5", "6"], ["1", "2", "3"]],
                [["1", "2", "3"], ["4", "5", "6"]],
            ]
        )
        g = ClusterRef(2, 0)
        assert enum_is_bijective(seq, g, 1)
        assert enum_is_bijective(seq, g, 2)
        # the tracker takes the deepest match within the horizon
        for x, source in ((1, idx(1)), (2, idx(0))):
            (n, layers, _), event = search_at(seq, x, g)
            assert n == event.n_star == x
            assert layers[x] == event.source_set == source

    def test_empty_tracing_set_is_no_match(self):
        seq = sequence_from_lists([[["1"]], [["2"]]])
        g = ClusterRef(1, 0)
        assert not enum_is_bijective(seq, g, 1)
        (n, layers, _), event = search_at(seq, 1, g)
        assert layers == [idx(0)]
        assert n == event.n_star == 0


def fig_style_fixture():
    """Single-cluster source two steps back, 1-step splinter in between.

    t0: two separate ancestors (distinct groups), t1: their union P,
    t2: P splits into A (majority) and B, t3: reunion g.
    """
    return sequence_from_lists(
        [
            [["1", "2", "3"], ["4", "5", "6"]],
            [["1", "2", "3", "4", "5", "6"]],
            [["1", "2", "3", "4"], ["5", "6"]],
            [["1", "2", "3", "4", "5", "6"]],
        ]
    )


class TestFindSourceSet:
    def test_fresh_when_nothing_before(self):
        seq = sequence_from_lists([[["1"]], [["2", "3"]]])
        (n, _, _), event = search_at(seq, 3, ClusterRef(1, 0))
        assert n == event.n_star == 0
        assert event.source_set == idx(0)

    def test_single_cluster_source_two_steps_back(self):
        seq = fig_style_fixture()
        g = ClusterRef(3, 0)
        # depth 3 has a bijective match too, but its clusters carry two
        # different ids, so the scan falls back to depth 2
        assert enum_is_bijective(seq, g, 3)
        assert enum_trace_path(seq, g, 3) == refs(0, 0, 1)
        (n, layers, _), event = search_at(seq, 3, g)
        assert n == event.n_star == 2
        assert layers[2] == event.source_set == idx(0)

    def test_two_group_ancestry_blocks_depth_one(self):
        seq = fig_style_fixture()
        (n, _, _), event = search_at(seq, 3, ClusterRef(1, 0))
        assert n == event.n_star == 0  # tie layer at t0 spans two fresh groups

    def test_fallback_to_shallower_single_group_depth(self):
        # t0: two groups; t1: union (fresh group); t2: target.
        # depth 2 spans two ids, depth 1 is single: expect depth 1.
        seq = sequence_from_lists(
            [
                [["1", "2", "3"], ["4", "5", "6"]],
                [["1", "2", "3", "4", "5", "6"]],
                [["1", "2", "3", "4", "5", "6"]],
            ]
        )
        (n, layers, _), event = search_at(seq, 5, ClusterRef(2, 0))
        assert n == event.n_star == 1
        assert layers[1] == event.source_set == idx(0)

    def test_history_zero_never_matches(self):
        seq = sequence_from_lists([[["1", "2"]], [["1", "2"]]])
        (n, _, _), event = search_at(seq, 0, ClusterRef(1, 0))
        assert n == event.n_star == 0

    def test_unreachable_deep_match_is_not_used(self):
        # a reciprocal-majority match at depth 2 exists in isolation, but
        # the target's one-step ancestor sends its majority elsewhere, so
        # the backward walk cannot extend past it and the deep match is
        # out of reach; the target founds a new group instead
        seq = sequence_from_lists(
            [
                [["1", "8", "9", "12"]],
                [["1", "2", "3", "4", "5", "6", "7"], ["8", "9", "12"]],
                [["1", "2", "3", "8", "9"], ["4", "5", "6", "7", "12"]],
            ]
        )
        g = ClusterRef(2, 0)
        assert not enum_is_bijective(seq, g, 1)
        assert enum_is_bijective(seq, g, 2)
        (n, _, _), event = search_at(seq, 4, g)
        assert n == event.n_star == 0
        assert event.source_set == idx(g.cluster)


class TestIdentityFlow:
    def test_degenerate_flow(self):
        seq = sequence_from_lists([[["1"]], [["1"]]])
        g = ClusterRef(1, 0)
        flow, marginals = reference_flow(seq, g, 0, frozenset((g,)))
        assert flow == (frozenset((g,)),)
        assert marginals == frozenset()
        event = traced(seq, 0)[g]
        assert (named(event), event.marginals) == (flow, marginals)

    def test_one_step_splinter_is_marginal(self):
        seq = fig_style_fixture()
        g = ClusterRef(3, 0)
        res = traced(seq, 3)[g]
        assert (res.n_star, res.source_set) == (2, idx(0))
        assert res.flow[0] == idx(0)
        assert res.flow[1] == idx(0)  # majority line only
        assert res.flow[2] is res.source_set
        assert res.marginals == refs(2, 1)  # the splinter cluster
        assert (named(res), res.marginals) == reference_flow(seq, g, 2, refs(1, 0))
        # marginals sit strictly between source and target times
        assert all(1 < r.time < 3 for r in res.marginals)
        # and never overlap the flow
        assert not res.marginals & frozenset().union(*named(res))


class TestProcessSnapshot:
    def test_identical_snapshot_inherits(self):
        seq = sequence_from_lists([[["1", "2"], ["3"]], [["1", "2"], ["3"]]])
        rels = RelationCache(seq)
        state = new_state(seq, 1)
        process_snapshot(state, seq, rels, 1)
        assert state.labels[1][0] == state.labels[0][0]
        assert state.labels[1][1] == state.labels[0][1]
        assert state.next_dc_id == 2

    def test_full_turnover_founds_new_groups(self):
        seq = sequence_from_lists([[["1", "2"]], [["8"], ["9"]]])
        rels = RelationCache(seq)
        state = new_state(seq, 3)
        process_snapshot(state, seq, rels, 1)
        ids = {state.labels[1][0], state.labels[1][1]}
        assert state.labels[0][0] not in ids
        assert len(ids) == 2

    def test_retroactive_splinter_absorption(self):
        # the splinter B gets its own id at t2, then is folded into the
        # main group when the reunion at t3 is processed; its id vanishes
        seq = fig_style_fixture()
        rels = RelationCache(seq)
        state = new_state(seq, 3)
        process_snapshot(state, seq, rels, 1)
        process_snapshot(state, seq, rels, 2)
        splinter_id = state.labels[2][1]
        main_id = state.labels[2][0]
        assert splinter_id != main_id
        process_snapshot(state, seq, rels, 3)
        assert state.labels[2][1] == main_id
        assert state.labels[3][0] == main_id
        assert all(splinter_id not in column for column in state.labels)

    def test_out_of_order_raises(self):
        seq = sequence_from_lists([[["1"]], [["1"]], [["1"]]])
        rels = RelationCache(seq)
        state = new_state(seq, 1)
        with pytest.raises(SequencingError):
            process_snapshot(state, seq, rels, 2)

    def test_no_processing_order_parameter(self):
        # Clusters are processed in ascending order; invariance under other
        # orders is tested by shuffling the input (`shuffled_labels`).
        for func in (track, process_snapshot):
            params = inspect.signature(func).parameters
            assert not {"order", "orders"} & set(params), func.__name__

    def test_frontier_injectivity_checked_under_optimisation(self, tmp_path):
        # Every new cluster is forced into DC 0, so the frontier check must
        # fire; -O strips assert statements, not this check.
        script = tmp_path / "broken.py"
        script.write_text(
            "from dynatrack import sequence_from_lists, track\n"
            "from dynatrack.errors import TrackingInvariantError\n"
            "from dynatrack.tracking import TrackingState\n"
            "TrackingState._new_dc = lambda self, t, a: "
            "self.labels[t].__setitem__(a, 0) or 0\n"
            "seq = sequence_from_lists([[['1']], [['8'], ['9']]])\n"
            "try:\n"
            "    track(seq, 1)\n"
            "except TrackingInvariantError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = Path(tracking.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-O", str(script)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: frontier labels not injective")


class TestTrack:
    def test_single_snapshot(self):
        seq = sequence_from_lists([[["1"], ["2"], ["3"]]])
        result = track(seq, 2)
        assert len(result.dcs) == 3

    def test_history_zero_gives_one_group_per_cluster(self):
        seq = sequence_from_lists([[["1", "2"]], [["1", "2"]], [["1", "2"]]])
        result = track(seq, 0)
        assert len(result.dcs) == 3

    def test_determinism(self):
        seq = random_sequence(random.Random(7))
        a = track(seq, 3)
        b = track(seq, 3)
        assert a.labels == b.labels

    def test_registry_is_inverse_of_labels(self):
        for seed in range(20):
            seq = random_sequence(random.Random(seed))
            result = track(seq, 3)
            assert result.dcs == tuple(dc_ids(result))
            for t, snap in enumerate(seq.snapshots):
                sizes: dict[int, int] = {}
                for dc, members in zip(result.labels[t], snap.clusters):
                    sizes[dc] = sizes.get(dc, 0) + len(members)
                assert result.sizes[t] == sizes

    def test_order_invariance(self):
        for seed in range(40):
            rng = random.Random(seed)
            seq = random_sequence(rng)
            x = rng.randint(0, 4)
            base = canonical(seq, track(seq, x).labels)
            permuted = canonical(seq, shuffled_labels(seq, x, rng))
            assert permuted == base

    def test_turnover_robustness(self):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            seq = random_sequence(rng)
            x = rng.randint(0, 4)
            noisy = inject_one_shot_members(seq, rng)
            assert same_partition(
                seq, track(seq, x).labels, track(noisy, x).labels
            )

    def test_prefix_agreement_outside_horizon(self):
        for seed in range(30):
            rng = random.Random(2000 + seed)
            seq = random_sequence(rng, max_t=6)
            if len(seq) < 3:
                continue
            x = rng.randint(0, 3)
            full = track(seq, x)
            k = len(seq) - 1
            pre = track(subsequence(seq, k), x)
            upto = (k - 1) - x
            if upto < 0:
                continue
            assert canonical(seq, full.labels, upto) == canonical(
                seq, pre.labels, upto
            )

    def test_flow_and_marginal_spans_bounded_by_history(self):
        for seed in range(30):
            rng = random.Random(3000 + seed)
            seq = random_sequence(rng)
            x = rng.randint(1, 4)
            events = []
            track(seq, x, trace=events)
            for ev in events:
                assert ev.n_star <= x  # flow spans <= x+1 snapshots
                flow = named(ev)
                assert ev.source_set is ev.flow[-1]
                assert (flow, ev.marginals) == reference_flow(
                    seq, ev.target, ev.n_star, flow[-1]
                )
                if ev.marginals:
                    times = sorted(r.time for r in ev.marginals)
                    assert times[-1] - times[0] + 1 <= x - 1
                    assert all(
                        ev.target.time - ev.n_star < t < ev.target.time
                        for t in times
                    )

    def test_negative_history_rejected(self):
        seq = sequence_from_lists([[["1"]]])
        with pytest.raises(ValueError):
            track(seq, -1)

    def test_shared_relations_give_the_same_result(self):
        for seed in range(30):
            rng = random.Random(4000 + seed)
            seq = random_sequence(rng, max_t=7)
            rels = RelationCache(seq)
            for x in range(len(seq)):
                shared = track(seq, x, relations=rels)
                fresh = track(seq, x)
                assert shared.labels == fresh.labels
                assert shared.dcs == fresh.dcs
                assert shared.sizes == fresh.sizes

    def test_history_beyond_the_last_snapshot_changes_nothing(self):
        # the search depth of a target at time t is min(t, x) <= T - 1
        for seed in range(20):
            seq = random_sequence(random.Random(5000 + seed))
            rels = RelationCache(seq)
            last = track(seq, len(seq) - 1, relations=rels)
            for x in range(len(seq), len(seq) + 3):
                assert track(seq, x, relations=rels).labels == last.labels

    def test_relations_of_another_sequence_rejected(self):
        cases = [
            ([[["1"]], [["1"]]], [[["1"]], [["1"]]]),
            # the same shape: the other cache's tables would give other labels
            (
                [[["1", "2"], ["3"]], [["1", "2"], ["3"]]],
                [[["1", "2"], ["3"]], [["3"], ["1", "2"]]],
            ),
            # another shape: the other cache's tables would not fit
            ([[["1", "2"], ["3"]], [["1", "2"], ["3"]]], [[["1"]], [["1"]]]),
        ]
        for data, other in cases:
            seq = sequence_from_lists(data)
            rels = RelationCache(sequence_from_lists(other))
            with pytest.raises(ValueError, match="different sequence"):
                track(seq, 1, relations=rels)
            with pytest.raises(ValueError, match="different sequence"):
                process_snapshot(new_state(seq, 1), seq, rels, 1)

    def test_one_cache_per_run(self):
        seq = sequence_from_lists([[["1", "2"]], [["1"], ["2"]], [["1", "2"]]])
        state = new_state(seq, 2)
        process_snapshot(state, seq, RelationCache(seq), 1)
        with pytest.raises(ValueError, match="another cache"):
            process_snapshot(state, seq, RelationCache(seq), 2)
        twin = sequence_from_lists([[["1", "2"]], [["1"], ["2"]], [["1", "2"]]])
        with pytest.raises(ValueError, match="different sequence"):
            finalize(state, twin)

    def test_result_shares_the_count_tables_not_the_cache(self):
        seq = sequence_from_lists(
            [[["1", "2", "3"], ["4"]], [["1", "2"], ["3", "4"]], [["1", "2", "3", "4"]]]
        )
        rels = RelationCache(seq)
        result = track(seq, 2, relations=rels)
        assert all(
            got is rels.pair(i).triples for i, got in enumerate(result.pair_triples)
        )
        # x = 0 builds no table, and the result has none to share
        assert track(seq, 0).pair_triples is None
        cache = weakref.ref(rels)
        del rels
        gc.collect()
        assert cache() is None and result.seq is seq


def reference_search_source(state, rels, t, a):
    """The literal O(x^2) source search for target a at time t: every
    depth walks forward from scratch. The tracker's memoised search must
    return the same."""
    layers = [frozenset((a,))]
    full_matches = []
    for k in range(1, min(t, state.history) + 1):
        candidate = lift(rels.pair(t - k).tracing, layers[k - 1])
        if not candidate:
            break
        admitted = False
        path = candidate
        forward = []
        for j in range(1, k + 1):
            path = lift(rels.pair(t - k + j - 1).mapping, path)
            if not path:
                break
            forward.append(path)
            if path <= layers[k - j]:
                admitted = True
        if not admitted:
            break
        layers.append(candidate)
        if len(forward) == k and forward[-1] == layers[0]:
            full_matches.append((k, forward))
    for k, forward in reversed(full_matches):
        source = layers[k]
        dcs = {state.labels[t - k][c] for c in source}
        if len(dcs) == 1:
            return k, layers, forward
    return 0, layers, None


def search_instances():
    for seed in range(60):
        rng = random.Random(7000 + seed)
        yield random_sequence(rng, max_t=9, max_members=16, max_clusters=4)
    for seed in range(6):
        spec = ScenarioSpec(
            snapshots=12,
            dcs=(PlantedDc(12, 0, 11), PlantedDc(9, 0, 8), PlantedDc(6, 3, 11)),
            events=(
                PlannedEvent("splinter", 0, start=2, duration=3, fraction=1 / 3),
                PlannedEvent("transition", 1, start=4, duration=2, fraction=0.5),
                PlannedEvent("split", 2, start=6, fraction=0.5),
                PlannedEvent("merge", 1, start=8, into=0),
            ),
            turnover=0.1 * (seed % 3),
            seed=seed,
        )
        yield generate(spec)[0]


def record_search(state, rels, chain):
    """(depth, layers, flow) of a search record under the current labels,
    as `reference_record` gives them."""
    t = chain.top
    assert sorted(chain.layer) == list(range(chain.bottom, t + 1))
    layers = [chain.layer[t - k] for k in range(t - chain.bottom + 1)]
    s = tracking._source(state, chain)
    if s < 0:
        return 0, layers, None
    return t - s, layers, tracking._chain_flow(rels, chain, s)


def reference_record(state, rels, t, a):
    """`reference_search_source` with its forward walk turned into the
    flow: o steps back, the tracing layer there and the walk from the
    source at that step."""
    n, layers, forward = reference_search_source(state, rels, t, a)
    if forward is None:
        return n, layers, None
    flow = [layers[o] | forward[n - o - 1] for o in range(n)] + [layers[n]]
    return n, layers, flow


def test_memoised_search_equals_reference(monkeypatch):
    memoised = tracking._search_source
    depths = []

    def checked(state, rels, t, a):
        got = memoised(state, rels, t, a)
        assert got.top == t
        assert record_search(state, rels, got) == reference_record(
            state, rels, t, a
        ), (t, a)
        depths.append(got.top - got.bottom)
        return got

    monkeypatch.setattr(tracking, "_search_source", checked)
    for seq in search_instances():
        rels = RelationCache(seq)
        for x in range(len(seq) + 1):
            track(seq, x, relations=rels)
    # the instances reach deep tracing flows, where the memo is used
    assert max(depths) >= 8


def relabel_instances():
    for seed in range(40):
        rng = random.Random(9000 + seed)
        yield random_sequence(rng, max_t=8, max_members=16, max_clusters=5)
    for seed in range(8):
        spec = ScenarioSpec(
            snapshots=8,
            dcs=(PlantedDc(10, 0, 7), PlantedDc(8, 0, 7), PlantedDc(6, 1, 7)),
            events=(
                PlannedEvent("splinter", 0, start=2, duration=1 + seed % 3,
                             fraction=0.3),
                PlannedEvent("transition", 1, start=3, duration=2 + seed % 2,
                             fraction=0.5),
                PlannedEvent("splinter", 2, start=4, duration=2, fraction=0.4),
            ),
            turnover=0.05 * (seed % 4),
            seed=seed,
        )
        yield generate(spec)[0]


def test_relabel_from_the_search_walk_matches_traced_runs_and_the_oracle():
    # Untraced and traced runs relabel along one path; both must give the
    # oracle's labels, which it finds from member sets alone. The instances
    # must reach flows whose tracer walk finds marginals.
    marginals = 0
    oracle_checks = 0
    for seq in relabel_instances():
        small = (
            len(seq) <= MAX_SNAPSHOTS
            and sum(len(s) for s in seq.snapshots) <= MAX_TOTAL_CLUSTERS
        )
        rels = RelationCache(seq)
        for x in range(len(seq) + 1):
            events = []
            plain = track(seq, x, relations=rels)
            traced = track(seq, x, trace=events)
            assert plain.labels == traced.labels
            marginals += sum(len(ev.marginals) for ev in events)
            if small:
                reference = brute_force_track(seq, x)
                assert same_partition(seq, plain.labels, reference.labels), x
                oracle_checks += 1
    assert marginals > 0
    assert oracle_checks > 300


# Hand-made instances on which one fallback of the carried search fires,
# with the smallest history at which it does.
FALLBACK_FIXTURES = {
    # The target takes half its members from each of two clusters.
    "tracing set is not one cluster": (
        1, [[["1", "2"], ["3", "4"]], [["1", "2", "3", "4"]]],
    ),
    # The predecessor's majority goes to the other part of a split.
    "mapping set of the predecessor holds another cluster": (
        1, [[["1", "2", "3", "4", "5"]], [["1", "2", "3"], ["4", "5"]]],
    ),
    # A second cluster goes wholly into the target.
    "mapper set holds another cluster": (
        1, [[["1", "2", "3"], ["4"]], [["1", "2", "3", "4"]]],
    ),
    # The predecessor's search stops at Z: Z's walk splits into Y and D,
    # then reaches {c, E}, not inside {c}. E's members leave, so for the
    # target the walk steps on to exactly {target} and admits Z.
    "the walk that stopped the predecessor's search reaches ref": (
        3,
        [
            [["1", "2", "3", "4"]],
            [["1", "2", "5", "6", "7"], ["3", "4"]],
            [["1", "2", "5", "6", "7"], ["3", "4"]],
            [["1", "2", "5", "6", "7"]],
        ],
    ),
}


# At x = 2 the last target's deepest full match is the tie layer {A, B}
# at t1, which took the DC of P at t0 (past the horizon).
TIE_LAYER = [
    [["1", "2", "3", "4"]],
    [["1", "2"], ["3", "4"]],
    [["1", "2", "3", "4"]],
    [["1", "2", "3", "4"]],
]

# The target at t1 takes half its members from each of two clusters, so
# the chain after it has that tie layer, with two DCs, as its deepest
# full match at every horizon past 1.
TIE_BORN_CHAIN = [[["1", "2"], ["3", "4"]]] + [[["1", "2", "3", "4"]]] * 11


def carry_instances():
    for _x, data in FALLBACK_FIXTURES.values():
        yield sequence_from_lists(data)
    yield sequence_from_lists(TIE_LAYER)
    yield sequence_from_lists(TIE_BORN_CHAIN)
    for seed in range(50):
        rng = random.Random(11000 + seed)
        yield random_sequence(
            rng, max_t=10, max_members=14, max_clusters=4, presence=0.9
        )
    for seed in range(12):
        spec = ScenarioSpec(
            snapshots=14,
            dcs=(
                PlantedDc(12, 0, 13),
                PlantedDc(9, 0, 12),
                PlantedDc(8, 2, 13),
                PlantedDc(6, 1, 9),
            ),
            events=(
                PlannedEvent("splinter", 0, start=2, duration=1 + seed % 3,
                             fraction=0.3),
                PlannedEvent("transition", 1, start=4, duration=2, fraction=0.5),
                PlannedEvent("split", 2, start=6, fraction=0.4),
                PlannedEvent("merge", 3, start=8, into=0),
            ),
            turnover=0.1 + 0.1 * (seed % 4),
            seed=seed,
        )
        yield generate(spec)[0]


def checked_advance(outcomes):
    """`tracking._advance` comparing every carried record with the full
    search at the same labels, and counting each outcome."""
    advance = tracking._advance

    def checked(state, rels, t, a):
        got = advance(state, rels, t, a)
        if isinstance(got, str):
            outcomes[got] += 1
            return got
        outcomes["carried"] += 1
        full = tracking._search_source(state, rels, t, a)
        assert got.top == full.top and got.layer == full.layer
        assert list(got.full) == list(full.full) and got.stop == full.stop
        # A carried record keeps a bent time that fell below its bottom.
        assert (got.bent if got.bent >= got.bottom else -1) == full.bent
        for s in full.full:
            flow = tracking._chain_flow(rels, got, s)
            assert flow == tracking._chain_flow(rels, full, s)
        s = tracking._source(state, got)
        assert s >= 0
        assert (got.leave > s) == (full.leave > s)
        if got.leave <= s:
            flow = tracking._chain_flow(rels, got, s)
            assert tracking._marginals(rels, t, flow) == {}
        return got

    return checked


def checked_search(searches):
    """`tracking._search_source` checking that every admitted walk ends at
    exactly the target or dies, which the carried full matches rely on,
    and that the full matches are the walks that end at the target."""
    search = tracking._search_source

    def checked(state, rels, t, a):
        got = search(state, rels, t, a)
        target = got.layer[t]
        ends = []
        for s in range(got.bottom, t):
            path = got.layer[s]
            for u in range(s, t):
                path = lift(rels.pair(u).mapping, path)
            assert path in (frozenset(), target), (t, a, s)
            if path:
                ends.append(s)
        assert list(got.full) == ends, (t, a)
        searches.append((t, a))
        return got

    return checked


def test_carried_search_equals_the_full_search(monkeypatch):
    outcomes = collections.Counter()
    searches = []
    oracle_checks = 0
    for seq in carry_instances():
        small = (
            len(seq) <= MAX_SNAPSHOTS
            and sum(len(s) for s in seq.snapshots) <= MAX_TOTAL_CLUSTERS
        )
        rels = RelationCache(seq)
        for x in range(len(seq) + 1):
            with monkeypatch.context() as m:
                m.setattr(tracking, "_advance", checked_advance(outcomes))
                m.setattr(tracking, "_search_source", checked_search(searches))
                carried = track(seq, x, relations=rels)
            with monkeypatch.context() as m:
                m.setattr(tracking, "_advance", lambda *args: "off")
                full = track(seq, x, relations=rels)
            assert carried.labels == full.labels, x
            assert carried.dcs == full.dcs
            assert carried.sizes == full.sizes
            if small:
                reference = brute_force_track(seq, x)
                assert same_partition(seq, carried.labels, reference.labels), x
                oracle_checks += 1
    assert set(outcomes) == {"carried", *FALLBACK_FIXTURES}, outcomes
    assert outcomes["carried"] > 2000
    assert len(searches) > 2000 and oracle_checks > 200


@pytest.mark.parametrize("reason", sorted(FALLBACK_FIXTURES))
def test_each_fallback_fires_on_its_fixture(monkeypatch, reason):
    x, data = FALLBACK_FIXTURES[reason]
    seq = sequence_from_lists(data)
    outcomes = collections.Counter()
    monkeypatch.setattr(tracking, "_advance", checked_advance(outcomes))
    carried = track(seq, x)
    assert outcomes[reason] >= 1, outcomes
    monkeypatch.setattr(tracking, "_advance", lambda *args: "off")
    assert track(seq, x).labels == carried.labels
    assert same_partition(seq, carried.labels, brute_force_track(seq, x).labels)


def test_a_tie_layer_source_is_carried(monkeypatch):
    # Both clusters of the tie layer carry P's DC, so the carried record
    # gives the source that the full search reads off the layer.
    seq = sequence_from_lists(TIE_LAYER)
    outcomes = collections.Counter()
    monkeypatch.setattr(tracking, "_advance", checked_advance(outcomes))
    carried = track(seq, 2)
    assert outcomes["carried"] == 1, outcomes
    monkeypatch.setattr(tracking, "_advance", lambda *args: "off")
    assert track(seq, 2).labels == carried.labels
    assert same_partition(seq, carried.labels, brute_force_track(seq, 2).labels)


def test_a_chain_born_from_a_tie_is_searched_once_at_any_horizon(monkeypatch):
    # Every target after t1 has the tie layer at t0, with two DCs, as its
    # deepest full match once x > 1; the carried record skips it and takes
    # the next one, so only the target at t1 runs the full search.
    seq = sequence_from_lists(TIE_BORN_CHAIN)
    calls = collections.Counter()
    search = tracking._search_source

    def counting(state, rels, t, a):
        calls[state.history] += 1
        return search(state, rels, t, a)

    monkeypatch.setattr(tracking, "_search_source", counting)
    labels = {x: track(seq, x).labels for x in (1, 11)}
    assert calls[11] == calls[1] == 1, calls
    assert labels[11] == labels[1]


def test_a_changed_label_makes_the_successor_rewrite_its_flow(monkeypatch):
    # One persistent cluster: every target carries source (0, 0) and its
    # flow. A label on that flow changed after (2, 0) took its DC (as a
    # relabel of another target would) must be rewritten by (3, 0).
    seq = sequence_from_lists([[["1", "2"]]] * 4)
    runs = []
    for carry in (True, False):
        with monkeypatch.context() as m:
            if not carry:
                m.setattr(tracking, "_advance", lambda *args: "off")
            rels = RelationCache(seq)
            state = new_state(seq, 3)
            process_snapshot(state, seq, rels, 1)
            process_snapshot(state, seq, rels, 2)
            tracking._relabel(state, 7, [(1, frozenset((0,)))])
            assert state._changes == 1
            process_snapshot(state, seq, rels, 3)
            runs.append(state.labels)
    assert runs[0] == runs[1] == [[0]] * 4


def test_traced_runs_carry_the_same_events(monkeypatch):
    for seq in list(carry_instances())[:30]:
        for x in range(len(seq) + 1):
            carried, full = [], []
            track(seq, x, trace=carried)
            with monkeypatch.context() as m:
                m.setattr(tracking, "_advance", lambda *args: "off")
                track(seq, x, trace=full)
            assert carried == full


def test_search_work_does_not_grow_with_the_horizon(monkeypatch):
    # Persistent five-member clusters with 2% churn: almost every target
    # is one-step bijective. Work is counted as set lifts plus carried-
    # record derivations (each O(1) and lift-free but for one walk step);
    # the full search alone takes about x times as many lifts.
    seq = churn_sequence(40, 500, 100, seed=0)
    rels = RelationCache(seq)
    work = collections.Counter()
    advance = tracking._advance

    def counting_lift(table, clusters):
        work[x] += 1
        return lift(table, clusters)

    def counting_advance(state, rels, t, a):
        work[x] += 1
        return advance(state, rels, t, a)

    monkeypatch.setattr(tracking, "lift", counting_lift)
    monkeypatch.setattr(tracking, "_advance", counting_advance)
    for x in (1, 39):
        track(seq, x, relations=rels)
    assert work[39] <= 2 * work[1], work


def test_an_untraced_run_builds_no_cluster_ref(monkeypatch):
    # Relation sets and search records hold cluster indices; only a traced
    # run names clusters by ClusterRef.
    def refuse(*args):
        raise AssertionError("an untraced run built a ClusterRef")

    for module in (relations, tracking):
        monkeypatch.setattr(module, "ClusterRef", refuse, raising=False)
    for seq in list(search_instances())[-6:]:
        rels = RelationCache(seq)
        for x in (0, 1, 5):
            labels = track(seq, x).labels
            assert track(seq, x, relations=rels).labels == labels
            state = new_state(seq, x)
            for i in range(1, len(seq)):
                process_snapshot(state, seq, rels, i)
            assert finalize(state, seq).labels == labels


def test_a_traced_run_shares_the_trackers_index_sets():
    # Persistent five-member clusters: their layers recur in the events of
    # every later target within the horizon. The events hold the tracker's
    # own index sets, so no (time, index set) value has two objects.
    seq = churn_sequence(40, 500, 100, seed=0)
    events = []
    track(seq, 12, trace=events)
    sets = [s for ev in events for s in (ev.source_set, *ev.flow)]
    values = {(ev.target.time - o, s) for ev in events for o, s in enumerate(ev.flow)}
    uses = collections.Counter(map(id, sets))
    assert len(uses) <= len(values)
    assert min(uses.values()) > 5


def test_a_traced_run_names_only_its_targets_and_marginals(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return ClusterRef(*args)

    monkeypatch.setattr(tracking, "ClusterRef", counting)
    marginals = 0
    for seq in (churn_sequence(40, 500, 100, seed=0), *list(search_instances())[-6:]):
        for x in (1, 5, 12):
            built.clear()
            events = []
            track(seq, x, trace=events)
            enclosed = sum(len(ev.marginals) for ev in events)
            assert len(built) == len(events) + enclosed
            marginals += enclosed
    assert marginals > 0


def planted_input():
    """The benchmark's planted-sweep input: 30 planted groups of 30-119
    members over 40 snapshots, one disturbance each, 5% turnover."""
    return generate(planted_spec(0, 30, 40, (30, 119), 0.05))[0]


def test_untraced_runs_walk_flows_only_where_labels_can_change(monkeypatch):
    # An untraced run walks a match's flow only when the carried record
    # cannot stand for it, and looks for marginals only below the time the
    # mapper walk leaves the layers. Neither skip changes the labels, so
    # only these counts show them.
    calls = collections.Counter()
    for name in ("_chain_flow", "_marginals"):
        func = getattr(tracking, name)

        def counting(*args, func=func, name=name):
            calls[name] += 1
            return func(*args)

        monkeypatch.setattr(tracking, name, counting)
    cases = [
        (churn_sequence(40, 500, 100, seed=0), 12, (122, 11)),
        (planted_input(), 5, (383, 70)),
    ]
    for seq, x, expected in cases:
        calls.clear()
        track(seq, x)
        assert (calls["_chain_flow"], calls["_marginals"]) == expected


def test_labels_are_final_once_x_snapshots_behind_the_frontier():
    # Processing snapshot t reads labels at times >= t - x and writes
    # them only at times > t - x, so no column <= t - x changes after
    # snapshot t is processed. Processing t does write column t - x + 1,
    # so the bound is tight.
    checks = violations = edge = 0
    sequences = [*search_instances(), churn_sequence(40, 500, 100, seed=0)]
    sequences.append(planted_input())
    for seq in sequences:
        rels = RelationCache(seq)
        for x in (1, 2, 3, 5, 12):
            state = new_state(seq, x)
            for t in range(1, len(seq)):
                before = [column[:] for column in state.labels]
                process_snapshot(state, seq, rels, t)
                # snapshot t - 1 was processed: columns <= t - 1 - x are final
                for s in range(t - x):
                    checks += 1
                    violations += before[s] != state.labels[s]
                if 0 <= t - x + 1 < t:
                    edge += before[t - x + 1] != state.labels[t - x + 1]
    assert (checks, violations) == (8335, 0)
    assert edge > 0

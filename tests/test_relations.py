"""The four majority-relation sets and their lift to cluster sets."""

import random

import pytest

from dynatrack import RelationCache, sequence_from_lists
from dynatrack.relations import count_tables, lift
from helpers import random_sequence


class TestMajoritySets:
    def test_mapping_majority(self):
        # A={1,2,3} -> C={1,2,4} (2 shared) beats D={3,5} (1 shared)
        seq = sequence_from_lists(
            [[["1", "2", "3"]], [["1", "2", "4"], ["3", "5"]]]
        )
        rels = RelationCache(seq)
        assert rels.pair(0).mapping[0] == frozenset({0})

    def test_mapping_tie_yields_both(self):
        seq = sequence_from_lists([[["1", "2"]], [["1"], ["2"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).mapping[0] == frozenset({0, 1})

    def test_mapping_no_residents_empty(self):
        seq = sequence_from_lists([[["1", "2"]], [["3", "4"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).mapping[0] == frozenset()

    def test_tracing_mirrors_mapping(self):
        seq = sequence_from_lists(
            [[["1", "2", "4"], ["3", "5"]], [["1", "2", "3"]]]
        )
        rels = RelationCache(seq)
        assert rels.pair(0).tracing[0] == frozenset({0})

    def test_tracing_new_members_empty(self):
        seq = sequence_from_lists([[["1"]], [["9", "8"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).tracing[0] == frozenset()

    def test_tracing_tie(self):
        seq = sequence_from_lists([[["1"], ["2"]], [["1", "2"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).tracing[0] == frozenset({0, 1})

    def test_tracer_collects_unique_tracers(self):
        # A={1,2,3} at t0; C={1,2}, D={3} both trace uniquely to A
        seq = sequence_from_lists([[["1", "2", "3"]], [["1", "2"], ["3"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).tracer[0] == frozenset({0, 1})

    def test_tied_tracing_disqualifies_tracer(self):
        # h={1,2} traces to both A={1} and B={2}: not in tracer set of A
        seq = sequence_from_lists([[["1"], ["2"]], [["1", "2"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).tracer[0] == frozenset()
        assert rels.pair(0).tracer[1] == frozenset()

    def test_tracer_empty_when_nothing_traces(self):
        seq = sequence_from_lists([[["1"]], [["2"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).tracer[0] == frozenset()

    def test_mapper_duals(self):
        # time-reversed tracer cases
        seq = sequence_from_lists([[["1", "2"], ["3"]], [["1", "2", "3"]]])
        rels = RelationCache(seq)
        assert rels.pair(0).mapper[0] == frozenset({0, 1})
        tie = sequence_from_lists([[["1", "2"]], [["1"], ["2"]]])
        rels2 = RelationCache(tie)
        assert rels2.pair(0).mapper[0] == frozenset()

    def test_range_errors(self):
        seq = sequence_from_lists([[["1"]], [["1"]]])
        rels = RelationCache(seq)
        with pytest.raises(IndexError):
            rels.pair(1).mapping[0]
        with pytest.raises(IndexError):
            rels.pair(-1).tracing[0]
        with pytest.raises(IndexError):
            rels.pair(0).mapping[5]


class TestLift:
    def test_singleton_equals_base(self):
        seq = sequence_from_lists([[["1", "2", "3"]], [["1", "2", "4"], ["3", "5"]]])
        rels = RelationCache(seq)
        table = rels.pair(0).mapping
        assert lift(table, [0]) == table[0]

    def test_union_of_images(self):
        # ms(A)={C}, ms(B)={C,D} -> lift({A,B}) = {C,D}
        seq = sequence_from_lists(
            [[["1", "2"], ["3", "4"]], [["1", "2", "3"], ["4"]]]
        )
        rels = RelationCache(seq)
        lifted = lift(rels.pair(0).mapping, frozenset({0, 1}))
        assert lifted == frozenset({0, 1})

    def test_backward_step_reads_the_earlier_pair(self):
        # ts(C)={A,B} at t0, lifted over {C} at t1 through pair 0
        seq = sequence_from_lists([[["1"], ["2"]], [["1", "2"]]])
        rels = RelationCache(seq)
        assert lift(rels.pair(0).tracing, frozenset({0})) == frozenset({0, 1})

    def test_empty_set(self):
        seq = sequence_from_lists([[["1"]], [["1"]]])
        rels = RelationCache(seq)
        assert lift(rels.pair(0).mapping, frozenset()) == frozenset()


def relation_tables(seq):
    rels = RelationCache(seq)
    tables = []
    for i in range(len(seq) - 1):
        pair = rels.pair(i)
        tables.append(
            (pair.mapping, pair.tracing, pair.tracer, pair.mapper)
        )
    return tables


def test_relations_invariant_under_one_shot_members():
    for seed in range(30):
        rng = random.Random(seed)
        seq = random_sequence(rng)
        data = []
        for t, snap in enumerate(seq.snapshots):
            row = [list(c) for c in snap.clusters]
            if row:
                for j in range(rng.randint(0, 4)):
                    row[rng.randrange(len(row))].append(f"oneshot{t}_{j}")
            data.append(row)
        injected = sequence_from_lists(data)
        assert relation_tables(seq) == relation_tables(injected)


def test_tracer_iff_singleton_tracing():
    for seed in range(20):
        seq = random_sequence(random.Random(seed))
        rels = RelationCache(seq)
        for i in range(len(seq) - 1):
            for a in range(len(seq.snapshots[i])):
                pair = rels.pair(i)
                tr = pair.tracer[a]
                for b in range(len(seq.snapshots[i + 1])):
                    expected = pair.tracing[b] == frozenset((a,))
                    assert (b in tr) == expected


def test_mapper_iff_singleton_mapping():
    # mapping and tracer are indexed by the clusters of snapshot i, tracing
    # and mapper by those of snapshot i + 1; the fixed pair has 2 and 4
    split = sequence_from_lists(
        [[["1", "2"], ["3", "4"]], [["1"], ["2"], ["3"], ["4"]]]
    )
    seqs = [split] + [random_sequence(random.Random(seed)) for seed in range(20)]
    for seq in seqs:
        rels = RelationCache(seq)
        for i in range(len(seq) - 1):
            pair = rels.pair(i)
            m_a, m_b = len(seq.snapshots[i]), len(seq.snapshots[i + 1])
            assert (len(pair.mapping), len(pair.tracer)) == (m_a, m_a)
            assert (len(pair.tracing), len(pair.mapper)) == (m_b, m_b)
            for b in range(m_b):
                for a in range(m_a):
                    expected = pair.mapping[a] == frozenset((b,))
                    assert (a in pair.mapper[b]) == expected


def test_count_tables_equal_the_cache_and_share_only_when_complete():
    for seed in range(20):
        seq = random_sequence(random.Random(300 + seed), max_t=6)
        rels = RelationCache(seq)
        pairs = len(seq) - 1
        for i in range(pairs - 1):
            rels.pair(i)
            # a partly built cache hands on no tables
            assert rels.pair_triples() is None
        tables = count_tables(seq)
        assert len(tables) == pairs
        assert tables == [rels.pair(i).triples for i in range(pairs)]
        assert rels.pair_triples() == tables


def test_pair_index_out_of_range():
    # T snapshots have T - 1 pairs, 0 .. T - 2; a negative index would wrap
    seq = sequence_from_lists([[["1"]], [["1"]], [["1"]]])
    rels = RelationCache(seq)
    assert rels.pair(1).mapping == (frozenset({0}),)
    for i in (2, -1):
        message = rf"^pair index out of range \(T=3, got {i}\)$"
        with pytest.raises(IndexError, match=message):
            rels.pair(i)

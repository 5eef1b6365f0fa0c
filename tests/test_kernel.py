"""Correctness of the overlap kernel against literal set intersections."""

import random

import pytest

from dynatrack import sequence_from_lists
from dynatrack.kernel import FEW_PARTNERS
from dynatrack.relations import pair_counts


def brute_counts(seq):
    """Independent reference: literal set intersections per cluster pair."""
    out = []
    for i in range(len(seq) - 1):
        a, b = seq.snapshots[i], seq.snapshots[i + 1]
        triples = []
        for ca, ma in enumerate(a.clusters):
            for cb, mb in enumerate(b.clusters):
                n = len(set(ma) & set(mb))
                if n:
                    triples.append((ca, cb, n))
        out.append(sorted(triples))
    return out


def random_instance(rng):
    t_total = rng.randint(2, 5)
    pool = [f"m{i}" for i in range(rng.randint(1, 30))]
    data = []
    for t in range(t_total):
        present = [m for m in pool if rng.random() < 0.7]
        # members that no other snapshot holds
        present += [f"t{t}-{j}" for j in range(rng.randint(0, 5))]
        rng.shuffle(present)
        k = rng.randint(1, 5)
        clusters = [present[j::k] for j in range(k)]
        data.append([c for c in clusters if c])
    return sequence_from_lists(data)


def kernel_counts(seq):
    snaps = seq.snapshots
    return [pair_counts(a, b) for a, b in zip(snaps, snaps[1:])]


def test_pair_counts_match_brute_force():
    for seed in range(50):
        seq = random_instance(random.Random(seed))
        assert kernel_counts(seq) == brute_counts(seq)


def test_empty_snapshot_pairs():
    seq = sequence_from_lists([[], [["a", "b"]], [], []])
    assert kernel_counts(seq) == [[], [], []]


def test_disjoint_snapshots_have_no_counts():
    seq = sequence_from_lists([[["a"], ["b"]], [["x"], ["y"]]])
    assert kernel_counts(seq) == [[]]


# Each case exercises one path of the count by cluster run: cluster 0 of
# the first snapshot is the run under test.
RUN_CASES = {
    "stays whole": [[["a", "b", "c"], ["d"]], [["d"], ["a", "b", "c", "x"]]],
    "leaves entirely": [[["a", "b", "c"], ["d"]], [["d", "x"]]],
    "first member leaves, rest stay": [
        [["a", "b", "c"], ["d"]],
        [["b", "c"], ["d"], ["x"]],
    ],
    "first member leaves, rest spread": [
        [["a", "b", "c", "d"]],
        [["x"], ["d"], ["b", "c"]],
    ],
    "spread over many partners": [
        [[f"m{i}" for i in range(40)]],
        [[f"m{i}" for i in range(j, 40, 7)] for j in range(7)],
    ],
    # the widest run counted partner by partner
    "spread over as many partners as counted one by one": [
        [[f"m{i}" for i in range(40)]],
        [[f"m{i}" for i in range(j, 40, FEW_PARTNERS)] for j in range(FEW_PARTNERS)],
    ],
    # the narrowest run counted with a Counter, m0 leaving
    "one member leaves, the rest spread over one partner more": [
        [[f"m{i}" for i in range(40)]],
        [[f"m{i}" for i in range(j, 40, FEW_PARTNERS + 1) if i]
         for j in range(FEW_PARTNERS + 1)],
    ],
}


@pytest.mark.parametrize("data", RUN_CASES.values(), ids=RUN_CASES)
def test_each_run_path_matches_brute_force(data):
    seq = sequence_from_lists(data)
    assert kernel_counts(seq) == brute_counts(seq)


def test_run_paths_give_the_expected_triples():
    counts = {
        name: kernel_counts(sequence_from_lists(data))[0]
        for name, data in RUN_CASES.items()
    }
    assert counts["stays whole"] == [(0, 1, 3), (1, 0, 1)]
    assert counts["leaves entirely"] == [(1, 0, 1)]
    assert counts["first member leaves, rest stay"] == [(0, 0, 2), (1, 1, 1)]
    assert counts["first member leaves, rest spread"] == [(0, 1, 1), (0, 2, 2)]
    assert counts["spread over many partners"] == [
        (0, j, len(range(j, 40, 7))) for j in range(7)
    ]
    assert counts["spread over as many partners as counted one by one"] == [
        (0, j, len(range(j, 40, FEW_PARTNERS))) for j in range(FEW_PARTNERS)
    ]
    assert counts["one member leaves, the rest spread over one partner more"] == [
        (0, j, len(range(j, 40, FEW_PARTNERS + 1)) - (j == 0))
        for j in range(FEW_PARTNERS + 1)
    ]

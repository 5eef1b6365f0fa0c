"""Backend equivalence and correctness of the overlap kernel."""

import random

import pytest

from dynatrack import kernel
from dynatrack import _paircounts_py
from dynatrack.kernel import IndexedSnapshot
from dynatrack.relations import index_sequence
from dynatrack import sequence_from_lists

try:
    from dynatrack import _paircounts as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled kernel not built"
)
BACKENDS = [_paircounts_py.pair_counts] + (
    [compiled.pair_counts] if compiled is not None else []
)


def brute_counts(seq):
    """Independent reference: literal set intersections per cluster pair."""
    out = []
    for i in range(len(seq) - 1):
        a, b = seq.snapshots[i], seq.snapshots[i + 1]
        triples = []
        for ca, ma in enumerate(a.clusters):
            for cb, mb in enumerate(b.clusters):
                n = len(ma & mb)
                if n:
                    triples.append((ca, cb, n))
        out.append(sorted(triples))
    return out


def random_instance(rng):
    t_total = rng.randint(2, 5)
    pool = [f"m{i}" for i in range(rng.randint(1, 30))]
    data = []
    for _ in range(t_total):
        present = [m for m in pool if rng.random() < 0.7]
        rng.shuffle(present)
        k = rng.randint(1, 5)
        clusters = [present[j::k] for j in range(k)]
        data.append([c for c in clusters if c])
    return sequence_from_lists(data)


def run_backend(fn, seq):
    idx = index_sequence(seq)
    out = []
    for i in range(len(seq) - 1):
        a, b = idx[i], idx[i + 1]
        if fn is _paircounts_py.pair_counts:
            out.append(fn(a.ids, a.clusters, b.ids, b.clusters, a.n_clusters, b.n_clusters))
        else:
            ai, ac = a.buffers()
            bi, bc = b.buffers()
            out.append(
                [tuple(t) for t in fn(ai, ac, bi, bc, a.n_clusters, b.n_clusters)]
            )
    return out


def test_python_backend_matches_brute_force():
    for seed in range(50):
        rng = random.Random(seed)
        seq = random_instance(rng)
        assert run_backend(_paircounts_py.pair_counts, seq) == brute_counts(seq)


@needs_compiled
def test_backends_agree_and_match_brute_force():
    for seed in range(50):
        rng = random.Random(seed)
        seq = random_instance(rng)
        expected = brute_counts(seq)
        assert run_backend(_paircounts_py.pair_counts, seq) == expected
        assert run_backend(compiled.pair_counts, seq) == expected


def test_empty_snapshot_pairs():
    seq = sequence_from_lists([[], [["a", "b"]], []])
    for fn in BACKENDS:
        assert run_backend(fn, seq) == [[], []]


def test_disjoint_snapshots_have_no_counts():
    seq = sequence_from_lists([[["a"], ["b"]], [["x"], ["y"]]])
    for fn in BACKENDS:
        assert run_backend(fn, seq) == [[]]


def test_kernel_facade_reports_backend():
    assert kernel.BACKEND in ("cython", "python")
    a = IndexedSnapshot(n_clusters=1, ids=[0, 1], clusters=[0, 0])
    b = IndexedSnapshot(n_clusters=2, ids=[1, 2], clusters=[0, 1])
    assert kernel.pair_counts(a, b) == [(0, 0, 1)]


def test_oversized_cluster_grids_take_sparse_path(monkeypatch):
    # grids above the dense-cell limit must not allocate the dense matrix
    monkeypatch.setattr(kernel, "DENSE_CELL_LIMIT", 1)
    a = IndexedSnapshot(n_clusters=2, ids=[0, 1], clusters=[0, 1])
    b = IndexedSnapshot(n_clusters=2, ids=[0, 1], clusters=[1, 0])
    assert kernel.pair_counts(a, b) == [(0, 1, 1), (1, 0, 1)]

"""Seeded churn sequences for timing experiments.

`synthetic_sequence(T, N, G, seed)` starts N members round-robin in G
clusters; at every step each member moves to a uniformly drawn cluster
with probability 0.02. The benchmark in ``perfbench/`` builds its
churn-wide input the same way and checks that both agree.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynatrack import sequence_from_lists  # noqa: E402


def synthetic_sequence(t_total, n_members, n_clusters, seed=0):
    rng = random.Random(seed)
    assign = [m % n_clusters for m in range(n_members)]
    data = []
    for _ in range(t_total):
        for m in range(n_members):
            if rng.random() < 0.02:
                assign[m] = rng.randrange(n_clusters)
        clusters = [[] for _ in range(n_clusters)]
        for m, c in enumerate(assign):
            clusters[c].append(f"m{m}")
        data.append([c for c in clusters if c])
    return sequence_from_lists(data)

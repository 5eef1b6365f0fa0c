"""Brute-force reference for dynamic-cluster detection (small inputs only).

Replays the same snapshot-by-snapshot procedure as ``tracking`` but with
naive evaluation straight from the member sets: majority sets are
recomputed by scanning all clusters at every query, one walker serving
both directions of each relation, multi-step paths step by step from
scratch, and the enclosed-cluster walks by scanning as well. No
relation cache or incremental structure from the main implementation is
used, so agreement between the two is meaningful evidence.

After labelling, the result is audited: every dynamic cluster must be
connected through the association events that built it, otherwise it
would decompose into independent groups and the grouping would not be
minimal. A violation raises OracleInvariantError.
"""

from __future__ import annotations

from .errors import OracleInvariantError, OracleSizeError
from .model import ClusterRef, ClusteringSequence
from .result import DynamicClustering, clustering_from_labels

__all__ = ["brute_force_track", "MAX_SNAPSHOTS", "MAX_TOTAL_CLUSTERS"]

MAX_SNAPSHOTS = 8
MAX_TOTAL_CLUSTERS = 40


def brute_force_track(seq: ClusteringSequence, x: int) -> DynamicClustering:
    """Reference dynamic clustering for desk-scale instances.

    Refuses sequences of more than MAX_SNAPSHOTS snapshots or
    MAX_TOTAL_CLUSTERS clusters in all (read on each call), which suit the
    exhaustive recursion; raise them knowingly for bigger fixtures.
    """
    if x < 0:
        raise ValueError(f"history must be non-negative, got {x}")
    t_total = len(seq)
    total_clusters = sum(len(s) for s in seq.snapshots)
    if t_total > MAX_SNAPSHOTS or total_clusters > MAX_TOTAL_CLUSTERS:
        raise OracleSizeError(
            f"instance too large for the brute-force reference "
            f"(T={t_total}, clusters={total_clusters})"
        )

    members = [
        [set(c) for c in snap.clusters] for snap in seq.snapshots
    ]

    def clusters_at(t: int) -> list[ClusterRef]:
        return [ClusterRef(t, a) for a in range(len(members[t]))]

    def majority(ref: ClusterRef, step: int) -> set[ClusterRef]:
        # the clusters one step back (-1, tracing) or forward (+1,
        # mapping) that share the most members with ref; none if none do
        t = ref.time + step
        if not 0 <= t < t_total:
            return set()
        mine = members[ref.time][ref.cluster]
        scores = {
            other: len(mine & members[t][other.cluster])
            for other in clusters_at(t)
        }
        best = max(scores.values(), default=0)
        if best == 0:
            return set()
        return {o for o, s in scores.items() if s == best}

    def path(refs: set[ClusterRef], n: int, step: int) -> set[ClusterRef]:
        for _ in range(n):
            refs = set().union(*(majority(r, step) for r in refs))
        return set(refs)

    def inverse(refs: set[ClusterRef], t: int, step: int) -> set[ClusterRef]:
        # the clusters at t + step whose majority set back towards t is
        # one cluster of refs: the mapper (step -1) or tracer (step +1)
        out = set()
        for cand in clusters_at(t + step):
            back = majority(cand, -step)
            if len(back) == 1 and back <= refs:
                out.add(cand)
        return out

    labels: dict[ClusterRef, int] = {}
    next_id = 0
    event_groups: list[set[ClusterRef]] = []

    for i in range(t_total):
        for alpha in range(len(members[i])):
            target = ClusterRef(i, alpha)
            # walk the tracing flow backwards, admitting a layer only while
            # its forward mapping path re-enters the flow built so far; at
            # snapshot 0 there is nothing to walk and every cluster founds
            full_depths: list[int] = []
            for k in range(1, min(i, x) + 1):
                candidate = path({target}, k, -1)
                if not candidate:
                    break
                admitted = False
                full = False
                for j in range(1, k + 1):
                    forward = path(candidate, j, +1)
                    if not forward:
                        break
                    if forward <= path({target}, k - j, -1):
                        admitted = True
                    if j == k and forward == {target}:
                        full = True
                if not admitted:
                    break
                if full:
                    full_depths.append(k)
            chosen = None
            for k in reversed(full_depths):
                source = path({target}, k, -1)
                if len({labels[r] for r in source}) == 1:
                    chosen = (k, source)
                    break
            if chosen is None:
                labels[target] = next_id
                event_groups.append({target})
                next_id += 1
                continue
            n_star, source = chosen
            dc = labels[next(iter(source))]
            group: set[ClusterRef] = set()
            for k in range(n_star + 1):
                group |= path({target}, k, -1)
                group |= path(source, k, +1)
            flow = set(group)
            mapper_layer = {target}
            mapper_layers: dict[int, set[ClusterRef]] = {}
            for o in range(1, n_star):
                mapper_layer = inverse(mapper_layer, i - o + 1, -1)
                mapper_layers[o] = mapper_layer
            tracer_layer = set(source)
            for s in range(1, n_star):
                tracer_layer = inverse(tracer_layer, i - n_star + s - 1, +1)
                o = n_star - s
                both = mapper_layers.get(o, set()) & tracer_layer
                group |= both - flow
            for r in group:
                labels[r] = dc
            event_groups.append(group)

    columns = [[labels[r] for r in clusters_at(t)] for t in range(t_total)]
    result = clustering_from_labels(seq, columns, x)
    _audit_minimality(columns, event_groups)
    return result


def _audit_minimality(columns, event_groups) -> None:
    """Each DC must stay connected through the events that built it."""
    by_dc: dict[int, set[ClusterRef]] = {}
    for t, column in enumerate(columns):
        for a, dc in enumerate(column):
            by_dc.setdefault(dc, set()).add(ClusterRef(t, a))
    for dc_id, refs in sorted(by_dc.items()):
        if len(refs) <= 1:
            continue
        parent = {r: r for r in refs}

        def find(r):
            while parent[r] != r:
                parent[r] = parent[parent[r]]
                r = parent[r]
            return r

        for group in event_groups:
            inside = sorted(group & refs)
            for a, b in zip(inside, inside[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        roots = {find(r) for r in refs}
        if len(roots) > 1:
            raise OracleInvariantError(
                f"dynamic cluster {dc_id} decomposes into {len(roots)} "
                f"independent groups; grouping is not minimal"
            )


def cmd_oracle(args) -> int:
    """The `oracle` command: the result document of `brute_force_track` on
    the input."""
    from .docwriter import _write_labelling

    return _write_labelling(args, brute_force_track)

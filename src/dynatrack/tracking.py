"""Progressive dynamic-cluster detection.

Snapshots are processed in order. For every cluster of the newest snapshot
the algorithm searches, within the history horizon, for the earliest set
of already-labelled clusters that reciprocally holds the cluster's
majority (a bijective majority match across possibly several steps). The
cluster, every cluster on the connecting identity flow, and every cluster
marginalised by that flow inherit the dynamic-cluster id of that source
set; without a match the cluster founds a new dynamic cluster.

The search walks a tracing flow backwards layer by layer. A deeper layer
is admitted only while its forward mapping path re-enters the flow built
so far; the flow also ends where no tracing set exists, at the history
limit, or at snapshot 0. Candidate depths are the admitted layers whose
full mapping path returns exactly to the target cluster, scanned deepest
first; a candidate qualifies when its clusters all carry one dynamic
cluster id under the labels current at processing time.

The identity flow of a match is read off the search's own walks: its
layer o steps back is the tracing layer there plus the forward mapping
walk from the source at that step. Marginalised clusters are found in one
pass per target instead of iterating embedded flows: walk the mapper sets
back from the target and the tracer sets forward from the source set;
whatever lies in both walks but not on the identity flow is re-assigned
to the embedding DC. The tracer walk is taken only when the mapper walk
leaves the flow, since nothing else can be marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import SequencingError, TrackingInvariantError
from .metrics import DynamicClustering, clustering_from_labels
from .model import ClusterRef, ClusteringSequence
from .relations import MajorityRelations, RelationCache, lift

__all__ = [
    "tracing_path",
    "mapping_path",
    "is_bijective_match",
    "TrackingState",
    "TraceEvent",
    "new_state",
    "find_source_set",
    "IdentityFlowResult",
    "identity_flow",
    "process_snapshot",
    "track",
    "finalize",
]


def tracing_path(
    rels: RelationCache, ref: ClusterRef, n: int
) -> frozenset[ClusterRef]:
    """n-fold set-lifted tracing set of a cluster; {ref} for n=0."""
    _check_at(rels, (ref,), ref.time)
    if n < 0 or n > ref.time:
        raise IndexError(f"depth {n} out of range for cluster at time {ref.time}")
    layer = frozenset((ref,))
    for k in range(1, n + 1):
        layer = lift(rels.pair(ref.time - k).tracing_refs, layer)
        if not layer:
            return layer
    return layer


def mapping_path(
    rels: RelationCache, refs: Iterable[ClusterRef], n: int
) -> frozenset[ClusterRef]:
    """n-fold set-lifted mapping set of a cluster set; the set itself for n=0.

    The clusters must all sit at one snapshot.
    """
    layer = frozenset(refs)
    if n < 0:
        raise IndexError(f"negative depth {n}")
    if not layer:
        return layer
    t = max(r.time for r in layer)
    _check_at(rels, layer, t)
    if t + n >= len(rels.seq):
        raise IndexError(
            f"depth {n} out of range for clusters at time {t} (T={len(rels.seq)})"
        )
    for k in range(n):
        layer = lift(rels.pair(t + k).mapping_refs, layer)
        if not layer:
            return layer
    return layer


def _check_at(
    rels: RelationCache, refs: Iterable[ClusterRef], t: int
) -> None:
    """Raise IndexError unless every ref is a cluster of snapshot t."""
    m = len(rels.refs[t]) if 0 <= t < rels.t_total else 0
    for r in refs:
        if r.time != t or not 0 <= r.cluster < m:
            raise IndexError(f"{r} is not a cluster of snapshot {t}")


def is_bijective_match(rels: RelationCache, ref: ClusterRef, n: int) -> bool:
    """Whether the cluster and its depth-n tracing path reciprocally hold
    each other's majorities (true for every cluster at n=0)."""
    back = tracing_path(rels, ref, n)
    if not back:
        return False
    return mapping_path(rels, back, n) == frozenset((ref,))


@dataclass(frozen=True)
class TraceEvent:
    """Audit record of one target-cluster association."""

    target: ClusterRef
    n_star: int
    dc: int
    source_set: frozenset[ClusterRef]
    flow: tuple[frozenset[ClusterRef], ...]
    marginals: frozenset[ClusterRef]


@dataclass
class TrackingState:
    """Mutable per-run state: labels, id counter, frontier.

    labels maps every cluster of processed snapshots to its DC id; a DC
    whose clusters have all been relabelled no longer appears in it, and
    `finalize` drops it. relations is the cache every snapshot was
    processed with. Mutated strictly sequentially, one snapshot and one
    target at a time.
    """

    history: int
    labels: dict[ClusterRef, int] = field(default_factory=dict)
    next_dc_id: int = 0
    frontier: int = -1
    trace: list[TraceEvent] | None = None
    relations: RelationCache | None = field(default=None, repr=False)

    def _new_dc(self, ref: ClusterRef) -> int:
        dc = self.next_dc_id
        self.next_dc_id += 1
        self.labels[ref] = dc
        return dc


def new_state(
    seq: ClusteringSequence, x: int, trace: bool = False
) -> TrackingState:
    """Initial state: every cluster of snapshot 0 founds its own DC."""
    if x < 0:
        raise ValueError(f"history must be non-negative, got {x}")
    state = TrackingState(history=x, trace=[] if trace else None)
    for alpha in range(len(seq.snapshots[0])):
        state._new_dc(ClusterRef(0, alpha))
    state.frontier = 0
    return state


def _search_source(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> tuple[
    int,
    list[frozenset[ClusterRef]],
    list[frozenset[ClusterRef]] | None,
    list[MajorityRelations | None],
]:
    """Shared engine behind find_source_set and the snapshot pass.

    Returns (depth, tracing-flow layers, forward mapping walk of the
    chosen source, pair tables); depth 0 means the target founds a new DC
    and the walk is None. tables[k] holds the relations between the
    snapshots k and k - 1 steps before the target, for every k the search
    stepped back to.
    """
    t = ref.time
    pair = rels.pair
    tables: list[MajorityRelations | None] = [None]
    layers: list[frozenset[ClusterRef]] = [rels.units[t][ref.cluster]]
    # walks[m] is the forward mapping walk from the admitted layers[m].
    walks: list[list[frozenset[ClusterRef]]] = [[]]
    full_matches: list[int] = []
    for k in range(1, min(t, state.history) + 1):
        table = pair(t - k)
        tables.append(table)
        candidate = lift(table.tracing_refs, layers[k - 1])
        if not candidate:
            break
        admitted = False
        path = candidate
        forward: list[frozenset[ClusterRef]] = []
        for j in range(k, 0, -1):
            # Step from k - j to k - j + 1 snapshots after the candidate.
            path = lift(tables[j].mapping_refs, path)
            if not path:
                break
            forward.append(path)
            if path <= layers[j - 1]:
                admitted = True
                if path == layers[j - 1]:
                    # The rest of the walk is the one already taken from
                    # that layer, and the layer is admitted, so stopping
                    # here changes neither admission nor the full match.
                    forward.extend(walks[j - 1])
                    break
        if not admitted:
            break
        layers.append(candidate)
        walks.append(forward)
        if len(forward) == k and forward[-1] == layers[0]:
            full_matches.append(k)
    dc_of = state.labels.__getitem__
    for k in reversed(full_matches):
        if len(set(map(dc_of, layers[k]))) == 1:
            return k, layers, walks[k], tables
    return 0, layers, None, tables


def find_source_set(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> tuple[int, frozenset[ClusterRef]]:
    """Earliest single-DC source set of a target cluster within the horizon.

    Returns (depth, source set); depth 0 with {ref} itself means no
    qualifying earlier set exists and the target founds a new DC.
    """
    n_star, layers, _forward, _tables = _search_source(state, rels, ref)
    return n_star, layers[n_star]


@dataclass(frozen=True)
class IdentityFlowResult:
    """Clusters along which a DC identity propagates to a target.

    flow[o] holds the flow clusters o steps before the target (union of
    the tracing-path layer and the matching mapping-path layer), so
    flow[0] == {target} and source_set <= flow[n_star]. marginals are the
    clusters enclosed by the flow (reachable backwards from the target via
    mapper sets and forwards from the source set via tracer sets) that are
    not part of it; they lie strictly between source and target times.
    """

    n_star: int
    source_set: frozenset[ClusterRef]
    flow: tuple[frozenset[ClusterRef], ...]
    marginals: frozenset[ClusterRef]

    def all_flow(self) -> frozenset[ClusterRef]:
        out: set[ClusterRef] = set()
        for layer in self.flow:
            out.update(layer)
        return frozenset(out)


def identity_flow(
    rels: RelationCache,
    ref: ClusterRef,
    n_star: int,
    source_set: frozenset[ClusterRef],
) -> IdentityFlowResult:
    """Assemble the identity flow and the marginalised clusters."""
    t = ref.time
    tables = [None] + [rels.pair(t - o) for o in range(1, n_star + 1)]
    layers = [frozenset((ref,))]
    for o in range(1, n_star + 1):
        layers.append(lift(tables[o].tracing_refs, layers[-1]))
    forward = []
    layer = source_set
    for o in range(n_star, 0, -1):
        layer = lift(tables[o].mapping_refs, layer)
        forward.append(layer)
    return IdentityFlowResult(
        n_star=n_star,
        source_set=source_set,
        flow=_flow(layers, forward, source_set),
        marginals=_marginals(tables, layers, forward, source_set),
    )


def _flow(
    layers: Sequence[frozenset[ClusterRef]],
    forward: Sequence[frozenset[ClusterRef]],
    source: frozenset[ClusterRef],
) -> tuple[frozenset[ClusterRef], ...]:
    """flow[o] of a depth-n flow, from the tracing layers o steps back from
    the target (layers[0..n]) and the forward mapping walk from the source
    (forward[0..n-1]; forward[j] lies n - j - 1 steps back)."""
    n = len(forward)
    return tuple(layers[o] | forward[n - o - 1] for o in range(n)) + (
        layers[n] | source,
    )


def _marginals(
    tables: Sequence[MajorityRelations | None],
    layers: Sequence[frozenset[ClusterRef]],
    forward: Sequence[frozenset[ClusterRef]],
    source: frozenset[ClusterRef],
) -> frozenset[ClusterRef]:
    """Clusters enclosed by a depth-n flow that are not on it.

    Arguments as for `_flow`; tables[o] holds the relations of the pair o
    steps back from the target, for o = 1..n. A marginal o steps back
    lies in the target's o-step mapper walk and outside flow[o]; only when
    some mapper layer leaves the flow is the tracer walk from the source
    taken, to keep those clusters that it reaches too.
    """
    n = len(forward)
    outside: dict[int, frozenset[ClusterRef]] = {}
    layer = layers[0]
    for o in range(1, n):
        layer = lift(tables[o].mapper_refs, layer)
        if not layer:
            break
        if not layer <= layers[o]:
            rest = layer - layers[o] - forward[n - o - 1]
            if rest:
                outside[o] = rest
    if not outside:
        return frozenset()
    marginals: set[ClusterRef] = set()
    layer = source
    for o in range(n - 1, min(outside) - 1, -1):
        layer = lift(tables[o + 1].tracer_refs, layer)
        if not layer:
            break
        if o in outside:
            marginals.update(outside[o] & layer)
    return frozenset(marginals)


def process_snapshot(
    state: TrackingState,
    seq: ClusteringSequence,
    rels: RelationCache,
    i: int,
    order: Sequence[int] | None = None,
) -> TrackingState:
    """Label every cluster of snapshot i, correcting earlier associations.

    `order` overrides the canonical ascending processing order of the
    snapshot's clusters; the output is invariant under permutations (a
    property the test suite checks), so this exists for those tests.
    Every snapshot of a run is processed with the same relation cache,
    which `finalize` takes its count tables from; another cache raises
    ValueError.
    """
    if state.frontier != i - 1:
        raise SequencingError(
            f"cannot process snapshot {i} at frontier {state.frontier}"
        )
    m = len(seq.snapshots[i])
    if order is None:
        order = range(m)
    elif sorted(order) != list(range(m)):
        raise ValueError(f"order must be a permutation of range({m})")
    if state.relations is None:
        state.relations = rels
    elif state.relations is not rels:
        raise ValueError("earlier snapshots were processed with another cache")
    refs = rels.refs[i]
    labels = state.labels
    for alpha in order:
        ref = refs[alpha]
        n_star, layers, forward, tables = _search_source(state, rels, ref)
        source = layers[n_star]
        if n_star == 0:
            dc = state._new_dc(ref)
            if state.trace is not None:
                state.trace.append(
                    TraceEvent(ref, 0, dc, source, (source,), frozenset())
                )
            continue
        # The source carries dc, and a full match walks forward back to
        # exactly the target, so flow[0] is {ref} and flow[n_star] the
        # source; the layers between take dc, and so do the marginals.
        dc = labels[next(iter(source))]
        labels[ref] = dc
        for o in range(1, n_star):
            for r in layers[o]:
                labels[r] = dc
            for r in forward[n_star - o - 1]:
                labels[r] = dc
        marginals = _marginals(tables, layers, forward, source)
        for r in marginals:
            labels[r] = dc
        if state.trace is not None:
            state.trace.append(
                TraceEvent(
                    ref, n_star, dc, source,
                    _flow(layers, forward, source), marginals,
                )
            )
    state.frontier = i
    frontier_dcs = [labels[ref] for ref in refs]
    if len(set(frontier_dcs)) != m:
        raise TrackingInvariantError(
            f"frontier labels not injective at snapshot {i}: {frontier_dcs}"
        )
    return state


def track(
    seq: ClusteringSequence,
    x: int,
    *,
    orders: dict[int, Sequence[int]] | None = None,
    trace: list[TraceEvent] | None = None,
    relations: RelationCache | None = None,
) -> DynamicClustering:
    """Dynamic clusters of a whole sequence with an x-step history.

    `orders` (per-snapshot processing permutations) and `trace` (audit
    event sink) are test hooks; defaults give the canonical run.
    `relations` is a prebuilt cache of `seq`, so that runs over several
    horizons build the relation tables once; by default a fresh one is
    built. A cache of another sequence raises ValueError.
    """
    rels = RelationCache(seq) if relations is None else relations
    if rels.seq is not seq:
        raise ValueError("relations were built for a different sequence")
    state = new_state(seq, x, trace=trace is not None)
    for i in range(1, len(seq)):
        process_snapshot(
            state, seq, rels, i, order=orders.get(i) if orders else None
        )
    if trace is not None and state.trace is not None:
        trace.extend(state.trace)
    return finalize(state, seq)


def finalize(state: TrackingState, seq: ClusteringSequence) -> DynamicClustering:
    """Freeze a tracking state into an immutable result.

    The result shares the count tables of the state's relation cache,
    not the cache itself. A cache of another sequence raises ValueError.
    """
    rels = state.relations
    if rels is not None and rels.seq is not seq:
        raise ValueError("relations were built for a different sequence")
    return clustering_from_labels(
        seq,
        state.labels,
        state.history,
        None if rels is None else rels.pair_triples(),
    )

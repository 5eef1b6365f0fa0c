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

Along one-step-bijective chains the search is carried rather than
repeated. A target is one-step bijective when its tracing set is one
cluster c whose mapping set is the target alone; most targets of
persistent clusters are. Each cluster keeps a record of its search, keyed
by source time, until the next snapshot is processed; a one-step-bijective
target derives its own record from c's in O(1) (`_advance`): the same
layers with the target on top, the same admitted layers, c's full matches
plus c itself, and every walk one step longer. It then skips the relabel
writes when no label has changed since c took the same DC, and the
marginal search when the mapper walk stays on the layers above the
source. Whenever a precondition of that derivation fails, the target
falls back to the full search, so the labels are those of the full search
at every history; the cost per target no longer grows with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
    # The search record of every frontier cluster, by cluster index (None
    # before snapshot 1 is processed), and how many relabel writes have
    # changed an existing label so far.
    _chains: list[_Chain] | None = field(default=None, init=False, repr=False)
    _changes: int = field(default=0, init=False, repr=False)

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
    tuple,
]:
    """Shared engine behind find_source_set and the snapshot pass.

    Returns (depth, tracing-flow layers, forward mapping walk of the
    chosen source, pair tables, walks); depth 0 means the target founds a
    new DC and the walk is None. tables[k] holds the relations between
    the snapshots k and k - 1 steps before the target, for every k the
    search stepped back to. walks is (steps, full matches, stop) for
    `_chain_of`: steps[k] = (own, meet) says that the forward walk from
    the admitted layers[k] passes the sets `own` and then equals
    layers[meet], whose walk it follows from there (meet = -1: it never
    equals a layer); the full matches are the depths whose walk ends at
    exactly the target, ascending; stop is where the walk of a layer that
    was not admitted ended at the target's snapshot, or None.
    """
    t = ref.time
    pair = rels.pair
    tables: list[MajorityRelations | None] = [None]
    layers: list[frozenset[ClusterRef]] = [rels.units[t][ref.cluster]]
    steps: list[tuple[list[frozenset[ClusterRef]], int]] = [([], -1)]
    # full[m]: the walk from layers[m] ends at exactly the target.
    full = [True]
    full_matches: list[int] = []
    stop = None
    for k in range(1, min(t, state.history) + 1):
        table = pair(t - k)
        tables.append(table)
        candidate = lift(table.tracing_refs, layers[k - 1])
        if not candidate:
            break
        admitted = False
        meet = -1
        path = candidate
        own: list[frozenset[ClusterRef]] = []
        for j in range(k, 0, -1):
            # Step from k - j to k - j + 1 snapshots after the candidate.
            path = lift(tables[j].mapping_refs, path)
            if not path:
                break
            if path <= layers[j - 1]:
                admitted = True
                if path == layers[j - 1]:
                    # The rest of the walk is the one already taken from
                    # that layer, and the layer is admitted, so stopping
                    # here changes neither admission nor the full match.
                    meet = j - 1
                    break
            own.append(path)
        if not admitted:
            if path:
                stop = path
            break
        layers.append(candidate)
        steps.append((own, meet))
        full.append(meet >= 0 and full[meet])
        if full[k]:
            full_matches.append(k)
    dc_of = state.labels.__getitem__
    n_star = 0
    for k in reversed(full_matches):
        if len(set(map(dc_of, layers[k]))) == 1:
            n_star = k
            break
    forward = _walk(layers, steps, n_star) if n_star else None
    return n_star, layers, forward, tables, (steps, full_matches, stop)


def _walk(
    layers: Sequence[frozenset[ClusterRef]],
    steps: Sequence[tuple[Sequence[frozenset[ClusterRef]], int]],
    k: int,
) -> list[frozenset[ClusterRef]]:
    """The forward walk from layers[k] of a full match, one set per step."""
    out: list[frozenset[ClusterRef]] = []
    while k:
        own, k = steps[k]
        out.extend(own)
        out.append(layers[k])
    return out


def find_source_set(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> tuple[int, frozenset[ClusterRef]]:
    """Earliest single-DC source set of a target cluster within the horizon.

    Returns (depth, source set); depth 0 with {ref} itself means no
    qualifying earlier set exists and the target founds a new DC.
    """
    n_star, layers, _forward, _tables, _walks = _search_source(state, rels, ref)
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


class _Chain:
    """Search record of the newest cluster on a one-step-bijective chain.

    Everything is keyed by source *time*, so the record of a cluster's
    one-step-bijective successor is the same record with one layer added
    on top and at most one cut off at the bottom (`_advance`):

    * layer[s] is the admitted tracing layer at time s, for s in
      [bottom, top]; layer[top] is {target};
    * full holds, ascending, the times whose forward walk ends at exactly
      the target (full matches); walk[s] = (own, m) says that the walk
      from layer[s] passes the sets `own` and then equals layer[m], and a
      full-match time without an entry steps to layer[s + 1] directly;
      bent is the highest time with an entry, -1 if there is none;
    * leave is the highest time below top at which the mapper walk from
      the target is not inside the layer there, -1 if there is none; every
      marginal of a match lies at or below it;
    * stop is where the walk from the layer that ended the search (one
      below bottom, not admitted) reached top's snapshot, None if it did
      not;
    * source is the time of the source the target took its DC from (-1
      for a new DC) and changes the state's change count after it did.
    """

    __slots__ = (
        "top", "bottom", "layer", "walk", "bent", "full", "leave", "stop",
        "source", "changes",
    )

    def __init__(self, top, bottom, layer, walk, full, leave, stop):
        self.top = top
        self.bottom = bottom
        self.layer = layer
        self.walk = walk
        self.bent = max(walk, default=-1)
        self.full = full
        self.leave = leave
        self.stop = stop
        self.source = -1
        self.changes = -1


def _chain_of(
    ref: ClusterRef,
    layers: list[frozenset[ClusterRef]],
    tables: list[MajorityRelations | None],
    walks: tuple,
) -> _Chain:
    """The record of a full `_search_source` result, in O(depth)."""
    steps, full_matches, stop = walks
    t = ref.time
    walk = {}
    for k in full_matches:
        own, meet = steps[k]
        if own or meet != k - 1:
            walk[t - k] = (own, t - meet)
    leave = -1
    mapper = layers[0]
    for k in range(1, len(layers)):
        mapper = lift(tables[k].mapper_refs, mapper)
        if not mapper:
            break
        if not mapper <= layers[k]:
            leave = t - k
            break
    return _Chain(
        t,
        t - len(layers) + 1,
        {t - k: layer for k, layer in enumerate(layers)},
        walk,
        deque(t - k for k in reversed(full_matches)),
        leave,
        stop,
    )


def _advance(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> _Chain | str:
    """The search record of ref, derived in O(1) from its predecessor's,
    or why it cannot be; then the caller runs the full search.

    ref at time t is one-step bijective when its tracing set is one
    cluster c and c's mapping set is {ref}. By source time, ref's tracing
    layers are then c's with {ref} on top, cut to the horizon. The walk
    that admits a layer for ref takes c's comparisons plus one at t, so
    c's admitted layers are ref's; the layer that stopped c's search is
    admitted for ref only if its walk steps on to exactly {ref} (then
    ref's search goes deeper: fall back). ref's full matches are t - 1
    and c's: an admitted walk stays inside the walk of the layer it was
    admitted on, so by induction over the depth every admitted walk ends
    at exactly {c} or dies, and c's mapping set takes {c} on to {ref}.
    The deepest full match is the source when its layer is one cluster;
    with several, the full search reads their DCs. The mapper walk from
    ref enters c's when ref's mapper set is {c}; otherwise fall back.
    """
    t = ref.time
    pair = rels.pair(t - 1)
    back = pair.tracing_refs[ref.cluster]
    if len(back) != 1:
        return "tracing set is not one cluster"
    unit = rels.units[t][ref.cluster]
    (c,) = back
    # One-cluster relation sets are the cache's unit sets themselves.
    if pair.mapping_refs[c.cluster] is not unit:
        return "mapping set of the predecessor holds another cluster"
    if len(pair.mapper_refs[ref.cluster]) != 1:
        return "mapper set holds another cluster"
    chains = state._chains
    if chains is None:
        chain = _Chain(t - 1, t - 1, {t - 1: back}, {}, deque(), -1, None)
    else:
        chain = chains[c.cluster]
    low = t - state.history
    bottom = max(chain.bottom, low)
    stop = chain.stop
    if stop is not None:
        if chain.bottom > low:
            # The layer below the bottom is within reach of ref too.
            stop = lift(pair.mapping_refs, stop)
            if stop == unit:
                return "the walk that stopped the predecessor's search reaches ref"
            stop = stop or None
        else:
            stop = None
    layer = chain.layer
    if bottom > chain.bottom:
        del layer[chain.bottom]
        chain.walk.pop(chain.bottom, None)
        chain.bottom = bottom
    layer[t] = unit
    full = chain.full
    full.append(t - 1)
    while full[0] < bottom:
        full.popleft()
    if len(layer[full[0]]) != 1:
        return "the deepest full match has several clusters"
    chain.top = t
    chain.stop = stop
    return chain


def _chain_walk(chain: _Chain, s: int) -> list[frozenset[ClusterRef]]:
    """The forward walk from the full-match layer at time s to the top."""
    out: list[frozenset[ClusterRef]] = []
    top = chain.top
    layer = chain.layer
    walk = chain.walk
    while s < top:
        step = walk.get(s)
        if step is None:
            s += 1
        else:
            own, s = step
            out.extend(own)
        out.append(layer[s])
    return out


def _chain_flow(
    rels: RelationCache, chain: _Chain
) -> tuple[
    list[frozenset[ClusterRef]],
    list[frozenset[ClusterRef]],
    list[MajorityRelations | None],
]:
    """(layers, forward, tables) of the chain's match, as `_search_source`
    gives them for its chosen depth, in O(depth)."""
    t = chain.top
    s = chain.full[0]
    layers = [chain.layer[t - o] for o in range(t - s + 1)]
    tables = [None] + [rels.pair(t - o) for o in range(1, t - s + 1)]
    return layers, _chain_walk(chain, s), tables


def _between(
    layers: Sequence[frozenset[ClusterRef]],
    forward: Sequence[frozenset[ClusterRef]],
) -> Iterator[ClusterRef]:
    """The clusters of a flow strictly between its source and target
    (arguments as for `_flow`)."""
    n = len(forward)
    for o in range(1, n):
        yield from layers[o]
        yield from forward[n - o - 1]


def _relabel(state: TrackingState, dc: int, refs: Iterable[ClusterRef]) -> None:
    """Give dc to already labelled clusters, counting the labels changed."""
    labels = state.labels
    changed = 0
    for r in refs:
        if labels[r] != dc:
            labels[r] = dc
            changed += 1
    state._changes += changed


def _label_searched(
    state: TrackingState, rels: RelationCache, ref: ClusterRef, keep: bool
) -> _Chain | None:
    """Label ref from a full source search; its record if `keep`."""
    n_star, layers, forward, tables, walks = _search_source(state, rels, ref)
    source = layers[n_star]
    if n_star == 0:
        dc = state._new_dc(ref)
        flow: tuple[frozenset[ClusterRef], ...] = (source,)
        marginals: frozenset[ClusterRef] = frozenset()
    else:
        # The source carries dc, and a full match walks forward back to
        # exactly the target, so flow[0] is {ref} and flow[n_star] the
        # source; the layers between take dc, and so do the marginals.
        dc = state.labels[next(iter(source))]
        state.labels[ref] = dc
        marginals = _marginals(tables, layers, forward, source)
        _relabel(state, dc, _between(layers, forward))
        _relabel(state, dc, marginals)
        if state.trace is not None:
            flow = _flow(layers, forward, source)
    if state.trace is not None:
        state.trace.append(TraceEvent(ref, n_star, dc, source, flow, marginals))
    if not keep:
        return None
    chain = _chain_of(ref, layers, tables, walks)
    if n_star:
        chain.source = ref.time - n_star
    chain.changes = state._changes
    return chain


def _label_carried(
    state: TrackingState, rels: RelationCache, ref: ClusterRef, chain: _Chain
) -> None:
    """Label ref from its record as `_advance` derived it.

    ref takes the DC of the source, its deepest full match. The flow
    between needs no write when no label has changed since the
    predecessor took its DC and ref's flow lies on the predecessor's:
    the same source, or a higher one whose walk runs along the layers.
    Marginals need looking for only below the time the mapper walk
    leaves the layers.
    """
    labels = state.labels
    s = chain.full[0]
    source = chain.layer[s]
    dc = labels[next(iter(source))]
    labels[ref] = dc
    flow = None
    if not (
        chain.changes == state._changes
        and 0 <= chain.source <= s
        and (chain.source == s or chain.bent < s)
    ):
        flow = _chain_flow(rels, chain)
        _relabel(state, dc, _between(flow[0], flow[1]))
    if chain.leave > s or state.trace is not None:
        layers, forward, tables = flow or _chain_flow(rels, chain)
        marginals: frozenset[ClusterRef] = frozenset()
        if chain.leave > s:
            marginals = _marginals(tables, layers, forward, source)
            _relabel(state, dc, marginals)
        if state.trace is not None:
            state.trace.append(
                TraceEvent(
                    ref, len(forward), dc, source,
                    _flow(layers, forward, source), marginals,
                )
            )
    chain.source = s
    chain.changes = state._changes


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
    # Without a history every cluster founds a DC, and no record is kept.
    keep = state.history > 0
    chains: list[_Chain | None] = [None] * m
    for alpha in order:
        ref = refs[alpha]
        chain = _advance(state, rels, ref) if keep else None
        if isinstance(chain, _Chain):
            _label_carried(state, rels, ref, chain)
        else:
            chain = _label_searched(state, rels, ref, keep)
        chains[alpha] = chain
    state.frontier = i
    state._chains = chains if keep else None
    frontier_dcs = [state.labels[ref] for ref in refs]
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
    once it holds every pair, not the cache itself. A cache of another
    sequence raises ValueError.
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

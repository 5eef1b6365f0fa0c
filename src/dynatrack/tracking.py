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
full mapping path returns exactly to the target cluster; the source is
the deepest of them whose clusters all carry one dynamic cluster id under
the labels current at processing time.

A target is cluster a of snapshot t; every set the tracker walks holds
cluster indices of one snapshot, whose time its user knows. Every search
yields one record (`_Chain`), keyed by source time: the admitted layers,
the full matches, and where the mapper walk from the target leaves the
layers; it keeps no walk. The source is picked from the record
(`_source`), and the target labelled from it (`_label`). The identity
flow of a match is one list by offset from the target (`_chain_flow`):
its layer o steps back is the tracing layer there plus the mapping walk
from the source set at that step, walked anew when the flow is needed.
The relabel writes, the marginal pass and the trace all read that list.
Marginalised clusters are found in one pass per target: walk the mapper
sets back from the target and the tracer sets forward from the source
set; whatever lies in both walks but not on the identity flow takes the
DC. The pass runs only when the record's mapper walk leaves the layers
above the source, and takes the tracer walk only when a mapper layer
leaves the flow, since nothing else can be marginal.

Along one-step-bijective chains the search is carried rather than
repeated. A target is one-step bijective when its tracing set is one
cluster c whose mapping set is the target alone; most targets of
persistent clusters are. Each frontier cluster keeps its record until the
next snapshot is processed, and a one-step-bijective target derives its
own from c's in O(1) (`_advance`): the same layers with the target on
top, the same admitted layers, and c's full matches plus c itself. It
then skips the relabel writes when no label has changed since c took the
same DC and the flow runs along c's. The derivation falls back to the
full search in four cases: the tracing set is not one cluster, c's
mapping set or the target's mapper set holds another cluster, or the
walk that stopped c's search reaches the target.
The labels are those of the full search at every history; the cost per
carried target does not grow with it. At history 0 every target founds a
DC and no record is kept.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .errors import SequencingError, TrackingInvariantError
from .model import ClusterRef, ClusteringSequence
from .relations import MajorityRelations, RelationCache, lift
from .result import DynamicClustering, clustering_from_labels

__all__ = [
    "TrackingState",
    "TraceEvent",
    "new_state",
    "process_snapshot",
    "track",
    "finalize",
]


class TraceEvent(NamedTuple):
    """Audit record of one target-cluster association.

    The target took `dc` from `source_set`, n_star steps back (a new DC:
    0 and {target.cluster}). flow[o] holds the indices of the flow
    clusters of snapshot target.time - o, the tracing layer there and the
    mapping walk from the source set, so flow[0] == {target.cluster} and
    source_set is flow[n_star]. These are the tracker's own index sets,
    shared between events. marginals are the clusters off the flow that
    the target's mapper walk and the source set's tracer walk both reach;
    they took the DC too, and span several snapshots, so they are named
    by ClusterRef, as the target is. The tracker builds ClusterRefs
    nowhere else.
    """

    target: ClusterRef
    n_star: int
    dc: int
    source_set: frozenset[int]
    flow: tuple[frozenset[int], ...]
    marginals: frozenset[ClusterRef]


class TrackingState:
    """Mutable per-run state: labels, id counter, frontier.

    A new state has processed snapshot 0: its m clusters found DCs 0..m-1.
    labels holds one column per processed snapshot: labels[t][a] is the
    DC id of cluster a of snapshot t, and the last column is the
    frontier. A DC whose clusters have all been relabelled no longer
    appears in it, and `finalize` drops it. relations is the cache every
    snapshot was processed with. Mutated strictly sequentially, one
    snapshot and one target at a time.
    """

    __slots__ = (
        "history", "labels", "next_dc_id", "trace", "relations",
        "_chains", "_changes",
    )

    def __init__(self, history: int, m: int, trace: list[TraceEvent] | None) -> None:
        self.history = history
        self.labels = [list(range(m))]
        self.next_dc_id = m
        self.trace = trace
        self.relations: RelationCache | None = None
        # The search record of every frontier cluster, by cluster index
        # (None before snapshot 1 is processed and at history 0), and how
        # many relabel writes have changed an existing label so far.
        self._chains: list[_Chain] | None = None
        self._changes = 0

    def _new_dc(self, t: int, a: int) -> int:
        dc = self.next_dc_id
        self.next_dc_id += 1
        self.labels[t][a] = dc
        return dc


def new_state(
    seq: ClusteringSequence, x: int, trace: bool = False
) -> TrackingState:
    """Initial state: every cluster of snapshot 0 founds its own DC."""
    if x < 0:
        raise ValueError(f"history must be non-negative, got {x}")
    return TrackingState(x, len(seq.snapshots[0]), [] if trace else None)


class _Chain:
    """Search record of a target, keyed by source *time*.

    The record of a cluster's one-step-bijective successor is the same
    record with one layer added on top and at most one cut off at the
    bottom (`_advance`):

    * layer[s] is the admitted tracing layer at time s, for s in
      [bottom, top]; layer[top] is {target};
    * full holds, ascending, the times below top whose forward mapping
      walk ends at exactly the target (full matches); bent is the highest
      of them whose walk does not step to layer[s + 1] directly, -1 (or,
      once the bottom is cut, any time below it) if there is none; the
      walks themselves are not kept;
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
        "top", "bottom", "layer", "bent", "full", "leave", "stop",
        "source", "changes",
    )

    def __init__(self, top, bottom, layer, bent, full, leave, stop):
        self.top = top
        self.bottom = bottom
        self.layer = layer
        self.bent = bent
        self.full = full
        self.leave = leave
        self.stop = stop
        self.source = -1
        self.changes = -1


def _search_source(
    state: TrackingState, rels: RelationCache, t: int, a: int
) -> _Chain:
    """The search record of target a at time t, by the full search, O(depth).

    The tracing flow is walked back from the target while the forward
    mapping walk of each new layer re-enters the layers above it. Where a
    walk equals a layer, the rest of it is the walk already taken from
    that layer, so each admitted layer costs the steps of its own walk
    until it meets one.
    """
    pair = rels.pair
    unit = rels.unit[a]
    layer = {t: unit}
    tables: dict[int, MajorityRelations] = {}
    full: deque[int] = deque()
    bent = -1
    # The times whose walk ends at exactly the target.
    ends = {t}
    stop = None
    for s in range(t - 1, max(t - state.history, 0) - 1, -1):
        table = tables[s] = pair(s)
        candidate = lift(table.tracing, layer[s + 1])
        if not candidate:
            break
        admitted = False
        meet = -1
        path = candidate
        for u in range(s + 1, t + 1):
            path = lift(tables[u - 1].mapping, path)
            if not path:
                break
            if path <= layer[u]:
                admitted = True
                if path == layer[u]:
                    # The rest of the walk is the one already taken from
                    # that layer, and the layer is admitted, so stopping
                    # here changes neither admission nor the full match.
                    meet = u
                    break
        if not admitted:
            if path:
                stop = path
            break
        layer[s] = candidate
        if meet in ends:
            ends.add(s)
            full.appendleft(s)
            if meet != s + 1 and bent < 0:
                bent = s
    bottom = t - len(layer) + 1
    leave = -1
    mapper = unit
    for s in range(t - 1, bottom - 1, -1):
        mapper = lift(tables[s].mapper, mapper)
        if not mapper:
            break
        if not mapper <= layer[s]:
            leave = s
            break
    return _Chain(t, bottom, layer, bent, full, leave, stop)


def _source(state: TrackingState, chain: _Chain) -> int:
    """The time of the deepest full match whose clusters all carry one DC
    under the current labels; -1 if there is none."""
    labels = state.labels
    layer = chain.layer
    for s in chain.full:
        clusters = layer[s]
        if len(clusters) == 1 or len({labels[s][a] for a in clusters}) == 1:
            return s
    return -1


def _marginals(
    rels: RelationCache, t: int, flow: Sequence[frozenset[int]]
) -> dict[int, frozenset[int]]:
    """Clusters enclosed by the flow (as `_chain_flow` gives it) of a
    target at time t that are not on it, by time.

    A marginal o steps back lies in the target's o-step mapper walk and
    outside flow[o]; only when some mapper layer leaves the flow is the
    tracer walk from the source set flow[-1] taken, to keep those
    clusters that it reaches too.
    """
    n = len(flow) - 1
    pair = rels.pair
    outside: dict[int, frozenset[int]] = {}
    layer = flow[0]
    for o in range(1, n):
        layer = lift(pair(t - o).mapper, layer)
        if not layer:
            break
        rest = layer - flow[o]
        if rest:
            outside[o] = rest
    marginals: dict[int, frozenset[int]] = {}
    layer = flow[n]
    for o in range(n - 1, min(outside, default=n) - 1, -1):
        layer = lift(pair(t - o - 1).tracer, layer)
        if not layer:
            break
        if o in outside and (found := outside[o] & layer):
            marginals[t - o] = found
    return marginals


def _advance(
    state: TrackingState, rels: RelationCache, t: int, a: int
) -> _Chain | str:
    """The search record of target a at time t (ref), derived in O(1) from
    its predecessor's, or why it cannot be; then the caller runs the full
    search.

    ref is one-step bijective when its tracing set is one cluster c and
    c's mapping set is {ref}. By source time, ref's tracing layers are
    then c's with {ref} on top, cut to the horizon. The walk that admits
    a layer for ref takes c's comparisons plus one at t, so c's admitted
    layers are ref's; the layer that stopped c's search is admitted for
    ref only if its walk steps on to exactly {ref} (then ref's search goes
    deeper: fall back). ref's full matches are t - 1 and c's: an admitted
    walk stays inside the walk of the layer it was admitted on, so by
    induction over the depth every admitted walk ends at exactly {c} or
    dies, and c's mapping set takes {c} on to {ref}. The mapper walk from
    ref enters c's when ref's mapper set is {c}; otherwise fall back.
    These are the four fallbacks; the source is then picked from the
    record as from a full search's (`_source`).
    """
    pair = rels.pair(t - 1)
    back = pair.tracing[a]
    if len(back) != 1:
        return "tracing set is not one cluster"
    unit = rels.unit[a]
    (c,) = back
    # One-cluster relation sets are the cache's unit sets themselves.
    if pair.mapping[c] is not unit:
        return "mapping set of the predecessor holds another cluster"
    if len(pair.mapper[a]) != 1:
        return "mapper set holds another cluster"
    chains = state._chains
    if chains is None:
        chain = _Chain(t - 1, t - 1, {t - 1: back}, -1, deque(), -1, None)
    else:
        chain = chains[c]
    low = t - state.history
    bottom = max(chain.bottom, low)
    stop = chain.stop
    if stop is not None:
        if chain.bottom > low:
            # The layer below the bottom is within reach of ref too.
            stop = lift(pair.mapping, stop)
            if stop == unit:
                return "the walk that stopped the predecessor's search reaches ref"
            stop = stop or None
        else:
            stop = None
    layer = chain.layer
    if bottom > chain.bottom:
        del layer[chain.bottom]
        chain.bottom = bottom
    layer[t] = unit
    full = chain.full
    full.append(t - 1)
    while full[0] < bottom:
        full.popleft()
    chain.top = t
    chain.stop = stop
    return chain


def _chain_flow(
    rels: RelationCache, chain: _Chain, s: int
) -> list[frozenset[int]]:
    """The flow of the match whose source is the full match at time s, in
    O(depth): flow[o] holds the clusters o steps back from the target, the
    tracing layer there and the mapping walk from the source set, so
    flow[0] is {target} and flow[t - s] the source set.

    Once the walk equals a layer above bent, the rest of it steps from
    layer to layer, adding nothing; it stops there, at the top at the
    latest."""
    t = chain.top
    layer = chain.layer
    flow = [layer[u] for u in range(t, s - 1, -1)]
    path = layer[s]
    u = s
    while u <= chain.bent or path != layer[u]:
        u += 1
        path = lift(rels.pair(u - 1).mapping, path)
        flow[t - u] |= path
    return flow


def _relabel(state: TrackingState, dc: int, layers: Iterable) -> None:
    """Give dc to already labelled clusters, given as (time, cluster
    indices) pairs, counting the labels changed."""
    labels = state.labels
    changed = 0
    for t, clusters in layers:
        column = labels[t]
        for a in clusters:
            if column[a] != dc:
                column[a] = dc
                changed += 1
    state._changes += changed


def _label(
    state: TrackingState,
    rels: RelationCache,
    t: int,
    a: int,
    chain: _Chain | None,
    s: int,
) -> None:
    """Label target a at time t (ref) from its search record, whose source
    is at time s.

    With s = -1 ref founds a new DC. Otherwise ref takes the source's DC,
    and so do the flow between and the marginals. The flow needs no write
    when no label has changed since the predecessor took its DC and ref's
    flow lies on the predecessor's: the same source, or a higher one whose
    walk runs along the layers. Marginals need looking for only below the
    time the mapper walk leaves the layers.
    """
    trace = state.trace
    if s < 0:
        dc = state._new_dc(t, a)
        if trace is not None:
            _trace(state, t, a, dc, [rels.unit[a]], {})
    else:
        labels = state.labels
        dc = labels[s][next(iter(chain.layer[s]))]
        labels[t][a] = dc
        flow = None
        if not (
            chain.changes == state._changes
            and 0 <= chain.source <= s
            and (chain.source == s or chain.bent < s)
        ):
            flow = _chain_flow(rels, chain, s)
            _relabel(state, dc, zip(range(t - 1, s, -1), flow[1:-1]))
        if chain.leave > s or trace is not None:
            flow = flow or _chain_flow(rels, chain, s)
            marginals = _marginals(rels, t, flow) if chain.leave > s else {}
            _relabel(state, dc, marginals.items())
            if trace is not None:
                _trace(state, t, a, dc, flow, marginals)
    if chain is not None:
        chain.source = s
        chain.changes = state._changes


def _trace(state: TrackingState, t: int, a: int, dc: int, flow, marginals) -> None:
    """Record the TraceEvent of target a at time t that took dc over
    `flow`, whose source set is flow[-1], with `marginals` by time."""
    enclosed = frozenset(ClusterRef(u, b) for u, c in marginals.items() for b in c)
    state.trace.append(
        TraceEvent(ClusterRef(t, a), len(flow) - 1, dc, flow[-1], tuple(flow), enclosed)
    )


def process_snapshot(
    state: TrackingState,
    seq: ClusteringSequence,
    rels: RelationCache,
    i: int,
) -> TrackingState:
    """Label every cluster of snapshot i, in ascending order, correcting
    earlier associations.

    Every snapshot of a run is processed with the same relation cache of
    `seq`, which `finalize` takes its count tables from; a cache of
    another sequence, or another cache, raises ValueError.
    """
    if rels.seq is not seq:
        raise ValueError("relations were built for a different sequence")
    frontier = len(state.labels) - 1
    if frontier != i - 1:
        raise SequencingError(f"cannot process snapshot {i} at frontier {frontier}")
    m = len(seq.snapshots[i])
    if state.relations is None:
        state.relations = rels
    elif state.relations is not rels:
        raise ValueError("earlier snapshots were processed with another cache")
    state.labels.append([-1] * m)  # column i; every entry is written below
    # Without a history every cluster founds a DC, and no record is kept.
    keep = state.history > 0
    chains: list[_Chain | None] = [None] * m
    for alpha in range(m):
        if not keep:
            _label(state, rels, i, alpha, None, -1)
            continue
        chain = _advance(state, rels, i, alpha)
        if isinstance(chain, str):
            chain = _search_source(state, rels, i, alpha)
        _label(state, rels, i, alpha, chain, _source(state, chain))
        chains[alpha] = chain
    state._chains = chains if keep else None
    frontier_dcs = state.labels[i]
    if len(set(frontier_dcs)) != m:
        raise TrackingInvariantError(
            f"frontier labels not injective at snapshot {i}: {frontier_dcs}"
        )
    return state


def track(
    seq: ClusteringSequence,
    x: int,
    *,
    trace: list[TraceEvent] | None = None,
    relations: RelationCache | None = None,
) -> DynamicClustering:
    """Dynamic clusters of a whole sequence with an x-step history.

    `trace` is an audit event sink for tests; by default none is kept.
    `relations` is a prebuilt cache of `seq`, so that runs over several
    horizons build the relation tables once; by default a fresh one is
    built. A cache of another sequence raises ValueError.
    """
    rels = RelationCache(seq) if relations is None else relations
    if rels.seq is not seq:
        raise ValueError("relations were built for a different sequence")
    state = new_state(seq, x, trace=trace is not None)
    for i in range(1, len(seq)):
        process_snapshot(state, seq, rels, i)
    if trace is not None:
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


def cmd_track(args) -> int:
    """The `track` command: the result document of `track` on the input."""
    from .docwriter import _write_labelling

    return _write_labelling(args, track)

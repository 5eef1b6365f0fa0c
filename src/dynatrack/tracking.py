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

Every search yields one record (`_Chain`), keyed by source time: the
admitted layers, the forward walks of the full matches, and where the
mapper walk from the target leaves the layers. The source is picked from
the record (`_source`), and the target labelled from it (`_label`). The
identity flow of a match is read off the record: its layer o steps back
is the tracing layer there plus the forward walk from the source at that
step. Marginalised clusters are found in one pass per target instead of
iterating embedded flows: walk the mapper sets back from the target and
the tracer sets forward from the source set; whatever lies in both walks
but not on the identity flow is re-assigned to the embedding DC. The
pass runs only when the record's mapper walk leaves the layers above the
source, and takes the tracer walk only when a mapper layer leaves the
flow, since nothing else can be marginal.

Along one-step-bijective chains the search is carried rather than
repeated. A target is one-step bijective when its tracing set is one
cluster c whose mapping set is the target alone; most targets of
persistent clusters are. Each frontier cluster keeps its record until the
next snapshot is processed, and a one-step-bijective target derives its
own from c's in O(1) (`_advance`): the same layers with the target on
top, the same admitted layers, c's full matches plus c itself, and every
walk one step longer. It then skips the relabel writes when no label has
changed since c took the same DC and the flow runs along c's. The
derivation falls back to the full search in four cases: the tracing set
is not one cluster, c's mapping set or the target's mapper set holds
another cluster, or the walk that stopped c's search reaches the target.
The labels are those of the full search at every history; the cost per
carried target does not grow with it. At history 0 every target founds a
DC and no record is kept.
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
    # before snapshot 1 is processed and at history 0), and how many
    # relabel writes have changed an existing label so far.
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


class _Chain:
    """Search record of a target, keyed by source *time*.

    The record of a cluster's one-step-bijective successor is the same
    record with one layer added on top and at most one cut off at the
    bottom (`_advance`):

    * layer[s] is the admitted tracing layer at time s, for s in
      [bottom, top]; layer[top] is {target};
    * full holds, ascending, the times below top whose forward walk ends
      at exactly the target (full matches); walk[s] = (own, m) says that
      the walk from layer[s] passes the sets `own` and then equals
      layer[m], and a full-match time without an entry steps to
      layer[s + 1] directly; bent is the highest time with an entry, -1
      if there is none;
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


def _search_source(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> _Chain:
    """The search record of a target, by the full search in O(depth).

    The tracing flow is walked back from the target while the forward
    mapping walk of each new layer re-enters the layers above it. Where a
    walk equals a layer, the rest of it is the walk already taken from
    that layer, so each admitted layer costs the steps of its own walk
    until it meets one.
    """
    t = ref.time
    pair = rels.pair
    unit = rels.units[t][ref.cluster]
    layer = {t: unit}
    tables: dict[int, MajorityRelations] = {}
    walk: dict[int, tuple[list[frozenset[ClusterRef]], int]] = {}
    full: deque[int] = deque()
    # The times whose walk ends at exactly the target.
    ends = {t}
    stop = None
    for s in range(t - 1, max(t - state.history, 0) - 1, -1):
        table = tables[s] = pair(s)
        candidate = lift(table.tracing_refs, layer[s + 1])
        if not candidate:
            break
        admitted = False
        meet = -1
        path = candidate
        own: list[frozenset[ClusterRef]] = []
        for u in range(s + 1, t + 1):
            path = lift(tables[u - 1].mapping_refs, path)
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
            own.append(path)
        if not admitted:
            if path:
                stop = path
            break
        layer[s] = candidate
        if meet in ends:
            ends.add(s)
            full.appendleft(s)
            if own or meet != s + 1:
                walk[s] = (own, meet)
    bottom = t - len(layer) + 1
    leave = -1
    mapper = unit
    for s in range(t - 1, bottom - 1, -1):
        mapper = lift(tables[s].mapper_refs, mapper)
        if not mapper:
            break
        if not mapper <= layer[s]:
            leave = s
            break
    return _Chain(t, bottom, layer, walk, full, leave, stop)


def _source(state: TrackingState, chain: _Chain) -> int:
    """The time of the deepest full match whose clusters all carry one DC
    under the current labels; -1 if there is none."""
    labels = state.labels
    layer = chain.layer
    for s in chain.full:
        refs = layer[s]
        if len(refs) == 1 or len({labels[r] for r in refs}) == 1:
            return s
    return -1


def find_source_set(
    state: TrackingState, rels: RelationCache, ref: ClusterRef
) -> tuple[int, frozenset[ClusterRef]]:
    """Earliest single-DC source set of a target cluster within the horizon.

    Returns (depth, source set); depth 0 with {ref} itself means no
    qualifying earlier set exists and the target founds a new DC.
    """
    chain = _search_source(state, rels, ref)
    s = _source(state, chain)
    if s < 0:
        s = ref.time
    return ref.time - s, chain.layer[s]


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
    layers = [frozenset((ref,))]
    for o in range(1, n_star + 1):
        layers.append(lift(rels.pair(t - o).tracing_refs, layers[-1]))
    forward = []
    layer = source_set
    for o in range(n_star, 0, -1):
        layer = lift(rels.pair(t - o).mapping_refs, layer)
        forward.append(layer)
    return IdentityFlowResult(
        n_star=n_star,
        source_set=source_set,
        flow=_flow(layers, forward, source_set),
        marginals=_marginals(rels, layers, forward, source_set),
    )


def _flow(
    layers: Sequence[frozenset[ClusterRef]],
    forward: Sequence[frozenset[ClusterRef]],
    source: frozenset[ClusterRef],
) -> tuple[frozenset[ClusterRef], ...]:
    """flow[o] of a depth-n flow, from the tracing layers o steps back from
    the target (layers[0..n], layers[0] = {target}) and the forward mapping
    walk from the source (forward[0..n-1]; forward[j] lies n - j - 1 steps
    back)."""
    n = len(forward)
    return tuple(layers[o] | forward[n - o - 1] for o in range(n)) + (
        layers[n] | source,
    )


def _marginals(
    rels: RelationCache,
    layers: Sequence[frozenset[ClusterRef]],
    forward: Sequence[frozenset[ClusterRef]],
    source: frozenset[ClusterRef],
) -> frozenset[ClusterRef]:
    """Clusters enclosed by a depth-n flow that are not on it.

    Arguments as for `_flow`. A marginal o steps back lies in the
    target's o-step mapper walk and outside flow[o]; only when some mapper
    layer leaves the flow is the tracer walk from the source taken, to
    keep those clusters that it reaches too.
    """
    n = len(forward)
    t = next(iter(layers[0])).time
    pair = rels.pair
    outside: dict[int, frozenset[ClusterRef]] = {}
    layer = layers[0]
    for o in range(1, n):
        layer = lift(pair(t - o).mapper_refs, layer)
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
        layer = lift(pair(t - o - 1).tracer_refs, layer)
        if not layer:
            break
        if o in outside:
            marginals.update(outside[o] & layer)
    return frozenset(marginals)


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
    The mapper walk from ref enters c's when ref's mapper set is {c};
    otherwise fall back. These are the four fallbacks; the source is then
    picked from the record as from a full search's (`_source`).
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
    chain.top = t
    chain.stop = stop
    return chain


def _chain_flow(
    chain: _Chain, s: int
) -> tuple[list[frozenset[ClusterRef]], list[frozenset[ClusterRef]]]:
    """(layers, forward) of the match whose source is the full match at
    time s, as `_flow` takes them, in O(depth)."""
    t = chain.top
    layer = chain.layer
    walk = chain.walk
    forward: list[frozenset[ClusterRef]] = []
    u = s
    while u < t:
        step = walk.get(u)
        if step is None:
            u += 1
        else:
            own, u = step
            forward.extend(own)
        forward.append(layer[u])
    return [layer[t - o] for o in range(t - s + 1)], forward


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


def _label(
    state: TrackingState,
    rels: RelationCache,
    ref: ClusterRef,
    chain: _Chain | None,
    s: int,
) -> None:
    """Label ref from its search record, whose source is at time s.

    With s = -1 ref founds a new DC. Otherwise ref takes the source's DC,
    and so do the flow between and the marginals. The flow needs no write
    when no label has changed since the predecessor took its DC and ref's
    flow lies on the predecessor's: the same source, or a higher one whose
    walk runs along the layers. Marginals need looking for only below the
    time the mapper walk leaves the layers.
    """
    trace = state.trace
    if s < 0:
        dc = state._new_dc(ref)
        if trace is not None:
            unit = rels.units[ref.time][ref.cluster]
            trace.append(TraceEvent(ref, 0, dc, unit, (unit,), frozenset()))
    else:
        labels = state.labels
        source = chain.layer[s]
        dc = labels[next(iter(source))]
        labels[ref] = dc
        flow = None
        if not (
            chain.changes == state._changes
            and 0 <= chain.source <= s
            and (chain.source == s or chain.bent < s)
        ):
            flow = _chain_flow(chain, s)
            _relabel(state, dc, _between(*flow))
        if chain.leave > s or trace is not None:
            layers, forward = flow or _chain_flow(chain, s)
            marginals: frozenset[ClusterRef] = frozenset()
            if chain.leave > s:
                marginals = _marginals(rels, layers, forward, source)
                _relabel(state, dc, marginals)
            if trace is not None:
                trace.append(
                    TraceEvent(
                        ref, len(forward), dc, source,
                        _flow(layers, forward, source), marginals,
                    )
                )
    if chain is not None:
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
        if not keep:
            _label(state, rels, ref, None, -1)
            continue
        chain = _advance(state, rels, ref)
        if isinstance(chain, str):
            chain = _search_source(state, rels, ref)
        _label(state, rels, ref, chain, _source(state, chain))
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

"""Seeded synthetic clustering sequences with planted dynamic clusters.

Scenarios plant long-lived groups and inject the dynamics the tracker has
to cope with: splinters (a fraction detaches into a side cluster for a
few snapshots, then returns), transitions (members drift stepwise into a
new cluster until everyone moved), permanent splits, merges, and member
turnover. Ground truth records the intended group of every emitted
cluster.

Generation is deterministic for a given spec: a single ``random.Random``
seeded from the spec drives all choices in a documented order (per
snapshot: group births, then turnover per group in birth order, then
events in declaration order, then emission, again per group in birth
order). Birth order is not declaration order: a planted group born at a
snapshot comes after every group born earlier, split offspring
included. CPython's generator is stable across platforms, so fixtures
are byte-reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import GenerationError
from .kernel import check_int, load_json
from .model import ClusteringSequence, sequence_from_lists

__all__ = ["PlantedDc", "PlannedEvent", "ScenarioSpec", "generate"]

EVENT_KINDS = ("splinter", "transition", "split", "merge")

# Resource caps on a scenario: at most this many snapshots, and at most
# this many planted member-snapshots, the sum of size * lifespan over the
# planted groups (the largest documented workload, 50k members over 50
# snapshots, has 2.5 million).
MAX_SNAPSHOTS = 10_000
MAX_MEMBER_SNAPSHOTS = 10_000_000


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise GenerationError(f"{what} must be a number, got {value!r}")
    return value


def _field(obj: dict, key: str, at: str):
    """obj[key]; raises GenerationError naming `at` and the key if absent."""
    if key not in obj:
        raise GenerationError(f'bad scenario document: {at} has no "{key}"')
    return obj[key]


def _objects(items, key: str):
    """Each entry of the array `items` (the value of `key`) with its place,
    such as "dcs[0]"; raises GenerationError on an array that is not one,
    or on an entry that is not an object, when it reaches it."""
    if type(items) is not list:
        raise GenerationError(f'bad scenario document: "{key}" must be an array')
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise GenerationError(f"bad scenario document: {key}[{i}] must be an object")
        yield f"{key}[{i}]", item


@dataclass(frozen=True)
class PlantedDc:
    """A planted group: initial size and inclusive lifespan interval."""

    size: int
    start: int
    end: int


@dataclass(frozen=True)
class PlannedEvent:
    """One scripted disturbance of a planted group.

    fraction is the share of members involved; duration applies to
    splinter (snapshots spent detached) and transition (steps until all
    members moved); `into` names the receiving group of a merge.
    """

    kind: str
    dc: int
    start: int
    duration: int = 1
    fraction: float = 0.5
    into: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    snapshots: int
    dcs: tuple[PlantedDc, ...]
    events: tuple[PlannedEvent, ...] = ()
    turnover: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.snapshots < 1:
            raise GenerationError("need at least one snapshot")
        if self.snapshots > MAX_SNAPSHOTS:
            raise GenerationError(
                f"at most {MAX_SNAPSHOTS} snapshots, got {self.snapshots}"
            )
        if not (0.0 <= self.turnover < 1.0):
            raise GenerationError(f"turnover must be in [0,1), got {self.turnover}")
        for idx, dc in enumerate(self.dcs):
            if dc.size < 1:
                raise GenerationError(f"dc {idx}: size must be positive")
            if not (0 <= dc.start <= dc.end < self.snapshots):
                raise GenerationError(f"dc {idx}: lifespan outside the sequence")
        planted = sum(dc.size * (dc.end - dc.start + 1) for dc in self.dcs)
        if planted > MAX_MEMBER_SNAPSHOTS:
            raise GenerationError(
                f"at most {MAX_MEMBER_SNAPSHOTS} planted member-snapshots "
                f"(size times lifespan, summed over dcs), got {planted}"
            )
        for ev in self.events:
            if ev.kind not in EVENT_KINDS:
                raise GenerationError(f"unknown event kind {ev.kind!r}")
            if not (0 <= ev.dc < len(self.dcs)):
                raise GenerationError(f"event references unknown dc {ev.dc}")
            host = self.dcs[ev.dc]
            if ev.kind in ("splinter", "transition"):
                if ev.duration < 1:
                    raise GenerationError(f"{ev.kind} duration must be >= 1")
                if not (0.0 < ev.fraction < 1.0):
                    raise GenerationError(f"{ev.kind} fraction must be in (0,1)")
                if not (host.start < ev.start and ev.start + ev.duration <= host.end):
                    raise GenerationError(
                        f"{ev.kind} interval must lie inside dc {ev.dc}'s lifespan"
                    )
            elif ev.kind == "split":
                if not (0.0 < ev.fraction < 1.0):
                    raise GenerationError("split fraction must be in (0,1)")
                if not (host.start < ev.start <= host.end):
                    raise GenerationError(
                        f"split start must lie inside dc {ev.dc}'s lifespan"
                    )
            elif ev.kind == "merge":
                if ev.into is None or not (0 <= ev.into < len(self.dcs)):
                    raise GenerationError("merge needs a valid `into` group")
                if ev.into == ev.dc:
                    raise GenerationError("merge target must differ from source")
                other = self.dcs[ev.into]
                if not (host.start < ev.start <= host.end):
                    raise GenerationError(
                        f"merge start must lie inside dc {ev.dc}'s lifespan"
                    )
                if not (other.start <= ev.start <= other.end):
                    raise GenerationError(
                        "merge target must be alive at the merge snapshot"
                    )

    @classmethod
    def from_json_dict(cls, doc) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise GenerationError("scenario must be a JSON object")
        dcs = tuple(
            PlantedDc(
                size=check_int(_field(d, "size", at), "size", GenerationError),
                start=check_int(_field(d, "start", at), "start", GenerationError),
                end=check_int(_field(d, "end", at), "end", GenerationError),
            )
            for at, d in _objects(_field(doc, "dcs", "the scenario"), "dcs")
        )
        events = tuple(
            PlannedEvent(
                kind=_field(e, "kind", at),
                dc=check_int(_field(e, "dc", at), "dc", GenerationError),
                start=check_int(_field(e, "start", at), "start", GenerationError),
                duration=check_int(e.get("duration", 1), "duration", GenerationError),
                fraction=_number(e.get("fraction", 0.5), "fraction"),
                into=None
                if e.get("into") is None
                else check_int(e["into"], "into", GenerationError),
            )
            for at, e in _objects(doc.get("events", []), "events")
        )
        spec = cls(
            snapshots=check_int(
                _field(doc, "snapshots", "the scenario"), "snapshots", GenerationError
            ),
            dcs=dcs,
            events=events,
            turnover=_number(doc.get("turnover", 0.0), "turnover"),
            seed=check_int(doc.get("seed", 0), "seed", GenerationError),
        )
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScenarioSpec":
        return cls.from_json_dict(load_json(text, GenerationError, "scenario"))


@dataclass
class _GroupState:
    born: int
    lifespan_end: int  # the snapshot before the merge, for a merged group
    members: list[str]
    detached: list[str] = field(default_factory=list)  # splinter side cluster
    moved: list[str] = field(default_factory=list)  # transition target cluster


def _without(members: list[str], gone: list[str]) -> list[str]:
    """`members` in order without the ones in `gone` (no member repeats)."""
    gone = set(gone)
    return [m for m in members if m not in gone]


def generate(spec: ScenarioSpec) -> tuple[ClusteringSequence, list[list[int]]]:
    """Realise a scenario: (sequence, ground-truth group id per cluster).

    Ground truth is aligned with the emitted cluster order; split events
    append new ground-truth ids after the planted ones.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    counter = 0

    def fresh(n: int) -> list[str]:
        nonlocal counter
        out = [f"m{counter + k}" for k in range(n)]
        counter += n
        return out

    # Every group born so far, by ground-truth id, in birth order.
    groups: dict[int, _GroupState] = {}
    next_gid = len(spec.dcs)

    data: list[list[list[str]]] = []
    truth: list[list[int]] = []

    def alive(gid: int, t: int) -> bool:
        g = groups.get(gid)
        return g is not None and t <= g.lifespan_end

    for t in range(spec.snapshots):
        for gid, dc in enumerate(spec.dcs):
            if dc.start == t:
                groups[gid] = _GroupState(t, dc.end, fresh(dc.size))

        if spec.turnover > 0.0:
            for g in groups.values():
                if g.born < t <= g.lifespan_end:
                    for pool in (g.members, g.detached, g.moved):
                        for k in range(len(pool)):
                            if rng.random() < spec.turnover:
                                pool[k] = fresh(1)[0]

        for ev in spec.events:
            if not alive(ev.dc, t):
                continue
            g = groups[ev.dc]
            if ev.kind == "splinter":
                if t == ev.start:
                    k = round(ev.fraction * len(g.members))
                    if k < 1 or k >= len(g.members):
                        raise GenerationError(
                            f"splinter at t={t}: fraction {ev.fraction} leaves "
                            f"an empty cluster"
                        )
                    g.detached = rng.sample(sorted(g.members), k)
                    g.members = _without(g.members, g.detached)
                elif t == ev.start + ev.duration:
                    g.members.extend(g.detached)
                    g.detached = []
            elif ev.kind == "transition":
                if ev.start <= t <= ev.start + ev.duration:
                    total = len(g.members) + len(g.moved)
                    step = t - ev.start
                    want = round(
                        total
                        * (ev.fraction + (1.0 - ev.fraction) * step / ev.duration)
                    )
                    want = min(max(want, 1), total)
                    if step == 0 and (want < 1 or want >= total):
                        raise GenerationError(
                            f"transition at t={t}: fraction {ev.fraction} "
                            f"leaves an empty cluster"
                        )
                    # Each pick is drawn from the members left in sorted
                    # order, which the fixtures' bytes depend on.
                    pool = sorted(g.members)
                    picks = []
                    while len(g.moved) + len(picks) < want and pool:
                        pick = rng.choice(pool)
                        del pool[bisect_left(pool, pick)]
                        picks.append(pick)
                    g.members = _without(g.members, picks)
                    g.moved += picks
                    if t == ev.start + ev.duration:
                        # everyone moved; the new cluster becomes the group
                        g.members, g.moved = g.moved, []
            elif ev.kind == "split" and t == ev.start:
                k = round(ev.fraction * len(g.members))
                if k < 1 or k >= len(g.members):
                    raise GenerationError(
                        f"split at t={t}: fraction {ev.fraction} leaves an "
                        f"empty cluster"
                    )
                leaving = rng.sample(sorted(g.members), k)
                g.members = _without(g.members, leaving)
                groups[next_gid] = _GroupState(t, g.lifespan_end, leaving)
                next_gid += 1
            elif ev.kind == "merge" and t == ev.start:
                if not alive(ev.into, t):
                    raise GenerationError(
                        f"merge at t={t}: target group {ev.into} is not alive"
                    )
                groups[ev.into].members.extend(g.members + g.detached + g.moved)
                g.members, g.detached, g.moved = [], [], []
                g.lifespan_end = t - 1

        clusters: list[list[str]] = []
        gt_row: list[int] = []
        for gid, g in groups.items():
            if t > g.lifespan_end:
                continue
            for pool in (g.members, g.moved, g.detached):
                if pool:
                    clusters.append(list(pool))
                    gt_row.append(gid)
        data.append(clusters)
        truth.append(gt_row)

    seq = sequence_from_lists(data)
    return seq, truth

"""Seeded synthetic clustering sequences with planted dynamic clusters.

Scenarios plant long-lived groups and inject the dynamics the tracker has
to cope with: splinters (a fraction detaches into a side cluster for a
few snapshots, then returns), transitions (members drift stepwise into a
new cluster until everyone moved), permanent splits, merges, and member
turnover. Ground truth records the intended group of every emitted
cluster.

Generation is deterministic for a given spec: a single ``random.Random``
seeded from the spec drives all choices in a documented order (per
snapshot: group births, then turnover per group in declaration order,
then events in declaration order, then emission). CPython's generator is
stable across platforms, so fixtures are byte-reproducible.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import GenerationError
from .model import ClusteringSequence, sequence_from_lists

__all__ = ["PlantedDc", "PlannedEvent", "ScenarioSpec", "generate"]

EVENT_KINDS = ("splinter", "transition", "split", "merge")

# Resource caps on a scenario: at most this many snapshots, and at most
# this many planted member-snapshots, the sum of size * lifespan over the
# planted groups (the largest documented workload, 50k members over 50
# snapshots, has 2.5 million).
MAX_SNAPSHOTS = 10_000
MAX_MEMBER_SNAPSHOTS = 10_000_000


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise GenerationError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise GenerationError(f"{what} must be a number, got {value!r}")
    return value


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
    def from_json_dict(cls, doc: dict) -> "ScenarioSpec":
        try:
            dcs = tuple(
                PlantedDc(
                    size=_int(d["size"], "size"),
                    start=_int(d["start"], "start"),
                    end=_int(d["end"], "end"),
                )
                for d in doc["dcs"]
            )
            events = tuple(
                PlannedEvent(
                    kind=e["kind"],
                    dc=_int(e["dc"], "dc"),
                    start=_int(e["start"], "start"),
                    duration=_int(e.get("duration", 1), "duration"),
                    fraction=_number(e.get("fraction", 0.5), "fraction"),
                    into=None if e.get("into") is None else _int(e["into"], "into"),
                )
                for e in doc.get("events", [])
            )
            spec = cls(
                snapshots=_int(doc["snapshots"], "snapshots"),
                dcs=dcs,
                events=events,
                turnover=_number(doc.get("turnover", 0.0), "turnover"),
                seed=_int(doc.get("seed", 0), "seed"),
            )
        except (KeyError, TypeError) as exc:
            raise GenerationError(f"bad scenario document: {exc}") from exc
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScenarioSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GenerationError(f"scenario is not valid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise GenerationError(f"scenario is not valid text: {exc}") from exc
        except RecursionError:
            raise GenerationError("scenario is nested too deeply") from None
        except ValueError:  # an integer literal too long to convert
            raise GenerationError("scenario has an integer too long to read") from None
        return cls.from_json_dict(doc)


@dataclass
class _GroupState:
    lifespan_end: int
    truth: int
    members: list[str] = field(default_factory=list)
    detached: list[str] = field(default_factory=list)  # splinter side cluster
    moved: list[str] = field(default_factory=list)  # transition target cluster
    born: int = 0
    gone: bool = False  # merged away


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

    groups: dict[int, _GroupState] = {}
    order: list[int] = []  # emission order: planted first, split offspring after
    next_gid = len(spec.dcs)

    data: list[list[list[str]]] = []
    truth: list[list[int]] = []

    def alive(gid: int, t: int) -> bool:
        g = groups.get(gid)
        return (
            g is not None and not g.gone and g.born <= t <= g.lifespan_end
        )

    for t in range(spec.snapshots):
        for gid, dc in enumerate(spec.dcs):
            if dc.start == t:
                groups[gid] = _GroupState(
                    lifespan_end=dc.end, truth=gid, members=fresh(dc.size), born=t
                )
                order.append(gid)

        if spec.turnover > 0.0:
            for gid in order:
                g = groups[gid]
                if alive(gid, t) and t > g.born:
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
                groups[next_gid] = _GroupState(
                    lifespan_end=g.lifespan_end,
                    truth=next_gid,
                    members=leaving,
                    born=t,
                )
                order.append(next_gid)
                next_gid += 1
            elif ev.kind == "merge" and t == ev.start:
                target = groups.get(ev.into)
                if target is None or target.gone:
                    raise GenerationError(
                        f"merge at t={t}: target group {ev.into} is not alive"
                    )
                target.members.extend(g.members + g.detached + g.moved)
                g.members, g.detached, g.moved = [], [], []
                g.gone = True

        clusters: list[list[str]] = []
        gt_row: list[int] = []
        for gid in order:
            if not alive(gid, t):
                continue
            g = groups[gid]
            for pool in (g.members, g.moved, g.detached):
                if pool:
                    clusters.append(list(pool))
                    gt_row.append(g.truth)
        data.append(clusters)
        truth.append(gt_row)

    seq = sequence_from_lists(data)
    return seq, truth

"""Per-snapshot member indexes, the overlap kernel and the outside-JSON guard.

Both the sequence parser (`model`) and the result-document reader
(`resultdoc`) turn one snapshot's member lists into a member index with
`member_index`, and count the members two snapshots share with
`count_runs`. The reader and the scenario reader (`generator`) decode
their input with `load_json` and check its integers with `check_int`.
They live here, with the `_Record` base of the package's `__slots__`
records, so that a program that only reads documents loads neither the
parser nor the relation tables.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import accumulate, chain, repeat

from .errors import SequenceValidationError

# A cluster run that reaches at most this many partner clusters is counted
# with one `list.count` per partner; a wider one with a `Counter`, which
# stays linear in the run however many clusters it reaches.
FEW_PARTNERS = 8

NO_SNAPSHOTS = "a sequence needs at least one snapshot"


def load_json(raw: bytes | str, error: type[Exception], subject: str):
    """Decode the JSON document `raw`; every way it can fail to decode
    raises `error` with a message that starts with `subject`."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise error(f"{subject} is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{subject} is not valid text: {exc}") from exc
    except RecursionError:
        raise error(f"{subject} is nested too deeply") from None
    except ValueError:  # an integer literal too long to convert
        raise error(f"{subject} has an integer too long to read") from None


def check_int(value, what: str, error: type[Exception]) -> int:
    """`value` if it is an int (not a bool), else raise `error` naming `what`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


class _Record:
    """Equality, hashing and repr over `_fields`, as a frozen dataclass
    gives them; any other slot takes no part."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


def member_index(
    t: int, clusters: list[list], sort: bool
) -> tuple[dict[str, int], tuple[int, ...]]:
    """The member index of snapshot t, whose clusters are the lists
    `clusters`: a dict from each member to the index of its cluster, in
    cluster order (each cluster's members sorted if `sort`), and the
    tuple of cluster sizes.

    Raises SequenceValidationError for an empty cluster, an empty or
    non-string member ID, or a member listed twice, in one cluster or in
    two.
    """
    sizes = tuple(map(len, clusters))
    # The checks run in C (the join raises TypeError on a non-string ID);
    # only a snapshot that fails one is scanned member by member, in input
    # order, to name the first offending cluster and member.
    try:
        "".join(chain.from_iterable(clusters))
    except TypeError:
        _reject(t, clusters)
    members = chain.from_iterable(map(sorted, clusters) if sort else clusters)
    where = chain.from_iterable(map(repeat, range(len(clusters)), sizes))
    column = dict(zip(members, where))
    if not all(clusters) or len(column) != sum(sizes) or "" in column:
        _reject(t, clusters)
    return column, sizes


def _reject(t: int, clusters: list[list]) -> None:
    """Raise the error for the first invalid cluster or member of snapshot t."""
    seen: dict[str, int] = {}  # each member so far, to its cluster
    for alpha, members in enumerate(clusters):
        if not members:
            raise SequenceValidationError(f"snapshot {t}: cluster {alpha} is empty")
        for m in members:
            if not isinstance(m, str) or not m:
                raise SequenceValidationError(
                    f"snapshot {t}: cluster {alpha} has a non-string or "
                    f"empty member ID ({m!r})"
                )
            if m in seen:
                raise SequenceValidationError(
                    f"snapshot {t}: cluster {alpha} lists member {m!r} twice"
                    if seen[m] == alpha
                    else f"snapshot {t}: member {m!r} appears in more than one cluster"
                )
            seen[m] = alpha


def count_runs(
    column_a: dict[str, int], sizes_a: tuple[int, ...], column_b: dict[str, int]
) -> list[tuple[int, int, int]]:
    """Shared-member counts between the clusters of snapshot a (member
    index `column_a`, cluster sizes `sizes_a`) and snapshot b (member
    index `column_b`), as (cluster_a, cluster_b, count) triples sorted
    lexicographically, non-zero counts only.

    Counts by cluster run, in O(members of a): `column_a` lists the
    members in cluster order, so the partners in b of cluster `ca` are one
    slice of the partner list. A run whose members all share one partner
    (or all leave) takes one `count` over its slice; one that reaches at
    most FEW_PARTNERS clusters takes one `count` per partner; a wider one
    is counted with a `Counter`.
    """
    partners = list(map(column_b.get, column_a))
    out = []
    for ca, (start, n) in enumerate(zip(accumulate(sizes_a, initial=0), sizes_a)):
        run = partners[start : start + n]
        first = run[0]
        if run.count(first) == n:
            if first is not None:
                out.append((ca, first, n))
            continue
        found = set(run)
        found.discard(None)
        if len(found) <= FEW_PARTNERS:
            out += [(ca, cb, run.count(cb)) for cb in sorted(found)]
        else:
            counts = Counter(run)
            counts.pop(None, None)
            out += [(ca, cb, k) for cb, k in sorted(counts.items())]
    return out

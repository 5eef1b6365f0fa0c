"""Parsing and validation of the snapshot model, and the resident query
the tests use."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynatrack import (
    ClusterRef,
    parse_sequence,
    sequence_from_lists,
    sequence_to_json_bytes,
)
from dynatrack.errors import ParseError, SequenceValidationError
from dynatrack.model import ClusteringSequence, Snapshot
from dynatrack.resultdoc import load_document
from helpers import cluster_members, residents, snapshot_members, subsequence

JSON_TWO_SNAPSHOTS = json.dumps(
    {
        "snapshots": [
            {"clusters": [["a", "b"], ["c"]]},
            {"clusters": [["a", "b", "c"]]},
        ]
    }
)


def test_parse_json_two_snapshots():
    seq = parse_sequence(JSON_TWO_SNAPSHOTS, "json")
    assert len(seq) == 2
    assert len(seq.snapshots[0]) == 2
    assert len(seq.snapshots[1]) == 1
    assert cluster_members(seq, ClusterRef(0, 0)) == {"a", "b"}
    assert cluster_members(seq, ClusterRef(1, 0)) == {"a", "b", "c"}


def test_equality_hashing_and_repr_ignore_the_member_column():
    seq = sequence_from_lists([[["b", "a"], ["c"]]], ["jan"])
    snap = seq.snapshots[0]
    # The partition is the column's key order split by the sizes; the
    # column's values are not compared.
    twin = Snapshot(dict.fromkeys(snap.column, 7), snap.sizes)
    assert snap == twin and hash(snap) == hash(twin)
    assert snap != Snapshot(snap.column, (1, 2))
    assert snap != snap.clusters
    assert repr(snap) == "Snapshot(clusters=(('a', 'b'), ('c',)))"
    same = ClusteringSequence((twin,), ("jan",))
    assert seq == same and hash(seq) == hash(same)
    assert seq != ClusteringSequence((twin,))
    assert repr(seq) == f"ClusteringSequence(snapshots=({snap!r},), labels=('jan',))"
    with pytest.raises(SequenceValidationError, match="at least one snapshot"):
        ClusteringSequence(())
    with pytest.raises(SequenceValidationError, match="2 labels for 1 snapshots"):
        ClusteringSequence((twin,), ("a", "b"))


def test_clusters_are_sorted_tuples_with_a_member_column():
    seq = sequence_from_lists([[["b", "a"], {"d", "c"}], [("e",), ("c", "a")]])
    assert [snap.clusters for snap in seq.snapshots] == [
        (("a", "b"), ("c", "d")),
        (("e",), ("a", "c")),
    ]
    assert [snap.column for snap in seq.snapshots] == [
        {"a": 0, "b": 0, "c": 1, "d": 1},
        {"e": 0, "a": 1, "c": 1},
    ]
    assert [snap.sizes for snap in seq.snapshots] == [(2, 2), (1, 2)]
    # The column's keys are the members in cluster order, sorted within
    # each cluster; the snapshot stores nothing per cluster beside it.
    for snap in seq.snapshots:
        assert list(snap.column) == [m for c in snap.clusters for m in c]
        assert snap.sizes == tuple(map(len, snap.clusters))
        assert len(snap) == len(snap.clusters)
    assert Snapshot.__slots__ == ("column", "sizes")


def test_parse_json_duplicate_member():
    doc = json.dumps({"snapshots": [{"clusters": [["a"], ["a"]]}]})
    with pytest.raises(SequenceValidationError, match="'a'"):
        parse_sequence(doc, "json")


def test_parse_json_empty_cluster_rejected():
    doc = json.dumps({"snapshots": [{"clusters": [["a"], []]}]})
    with pytest.raises(SequenceValidationError, match="empty"):
        parse_sequence(doc, "json")


def test_parse_json_empty_snapshot_accepted():
    doc = json.dumps({"snapshots": [{"clusters": []}, {"clusters": [["a"]]}]})
    seq = parse_sequence(doc, "json")
    assert len(seq.snapshots[0]) == 0


def test_parse_json_syntax_error_has_position():
    with pytest.raises(ParseError, match="line"):
        parse_sequence('{"snapshots": [', "json")


def test_parse_json_labels_kept():
    doc = json.dumps(
        {"snapshots": [{"label": "jan", "clusters": [["a"]]}]}
    )
    seq = parse_sequence(doc, "json")
    assert seq.labels == ("jan",)


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"snapshots":[{"clusters":[["a"]]},{"clusters":[["\\ud800"]]}]}',
         "snapshot 1"),
        ('{"snapshots":[{"clusters":[["a"]],"label":"\\uDC00"}]}', "snapshot 0"),
        # a high half followed by another high half is no pair
        ('{"snapshots":[{"clusters":[["\\ud83d\\ud83d"]]}]}', "snapshot 0"),
    ],
    ids=["member", "label", "two-high-halves"],
)
def test_parse_json_lone_surrogate_rejected(text, where):
    with pytest.raises(ParseError, match=f"{where}: .*lone surrogate"):
        parse_sequence(text.encode("ascii"), "json")


def test_parse_json_escaped_surrogate_pair_accepted():
    text = '{"snapshots":[{"clusters":[["\\ud83d\\ude00"]],"label":"\\uD83D\\uDE00"}]}'
    seq = parse_sequence(text.encode("ascii"), "json")
    assert snapshot_members(seq, 0) == {"\U0001F600"}
    assert seq.labels == ("\U0001F600",)


# Each invalid snapshot sits at t = 1 behind a valid one; the message names
# the first offence in cluster-then-member order.
INVALID_SNAPSHOTS = [
    ([["a"], []], "snapshot 1: cluster 1 is empty"),
    (
        [["a"], ["b", 3]],
        "snapshot 1: cluster 1 has a non-string or empty member ID (3)",
    ),
    (
        [["a", ""]],
        "snapshot 1: cluster 0 has a non-string or empty member ID ('')",
    ),
    (
        [["a", "b"], ["c", "a"]],
        "snapshot 1: member 'a' appears in more than one cluster",
    ),
    (
        [["a"], ["a"], [], [7]],
        "snapshot 1: member 'a' appears in more than one cluster",
    ),
    # input order, not the sorted order the column is built in
    (
        [["a", "b"], ["b", "a"]],
        "snapshot 1: member 'b' appears in more than one cluster",
    ),
    (
        [["c"], [2, 1]],
        "snapshot 1: cluster 1 has a non-string or empty member ID (2)",
    ),
    ([["c"], ["a", "b", "a"]], "snapshot 1: cluster 1 lists member 'a' twice"),
]
INVALID_IDS = [
    "empty-cluster", "non-string", "empty-id", "two-clusters", "first-wins",
    "unsorted-duplicate", "unsorted-non-string", "one-cluster",
]


def _document(clusters_by_time):
    refs = [(t, a) for t, row in enumerate(clusters_by_time) for a in range(len(row))]
    return json.dumps(
        {
            "schema": 1,
            "history": 1,
            "snapshot_count": len(clusters_by_time),
            "snapshots": [
                {"clusters": [{"members": m, "dc": refs.index((t, a))}
                              for a, m in enumerate(row)]}
                for t, row in enumerate(clusters_by_time)
            ],
            "dcs": [{"id": i, "clusters": [list(ref)]} for i, ref in enumerate(refs)],
        }
    )


@pytest.mark.parametrize("clusters, message", INVALID_SNAPSHOTS, ids=INVALID_IDS)
def test_validation_messages_are_exact(clusters, message):
    data = [[["x"]], clusters]
    with pytest.raises(SequenceValidationError) as exc:
        sequence_from_lists(data)
    assert str(exc.value) == message
    with pytest.raises(SequenceValidationError) as exc:
        load_document(_document(data))
    assert str(exc.value) == message


def test_parse_json_long_integer_rejected():
    text = '{"snapshots":[{"clusters":[[1' + "0" * 5000 + "]]}]}"
    with pytest.raises(ParseError, match="integer too long"):
        parse_sequence(text.encode("ascii"), "json")


@pytest.mark.parametrize(
    "text, fmt",
    [
        ('{"snapshots":[{"clusters":[["a","\ud800"]]}]}', "json"),
        ('{"snapshots":[{"clusters":[["a"]],"label":"\udfff"}]}', "json"),
        ("t,member,cluster\n0,a,0\n0,\ud800,1\n", "csv"),
    ],
    ids=["json-member", "json-label", "csv-member"],
)
def test_raw_lone_surrogate_in_text_rejected(text, fmt):
    # the text holds the surrogate character itself, not a JSON escape
    assert "\\u" not in text
    with pytest.raises(ParseError, match="lone surrogate"):
        parse_sequence(text, fmt)


def test_parse_csv_matches_json():
    csv_text = "t,member,cluster\n0,a,0\n0,b,0\n1,a,0\n"
    seq = parse_sequence(csv_text, "csv")
    expected = sequence_from_lists([[["a", "b"]], [["a"]]])
    assert seq == expected


def test_parse_csv_rows_any_order():
    shuffled = "t,member,cluster\n1,a,0\n0,b,0\n0,a,0\n"
    assert parse_sequence(shuffled, "csv") == sequence_from_lists(
        [[["a", "b"]], [["a"]]]
    )


def test_parse_csv_time_gap_is_error():
    with pytest.raises(SequenceValidationError, match="t=1"):
        parse_sequence("t,member,cluster\n0,a,0\n2,a,0\n", "csv")


def test_parse_csv_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_sequence("time,member,cluster\n0,a,0\n", "csv")


def test_parse_csv_duplicate_member():
    with pytest.raises(SequenceValidationError, match="'a'"):
        parse_sequence("t,member,cluster\n0,a,0\n0,a,1\n", "csv")


def test_parse_bytes_utf8():
    doc = json.dumps({"snapshots": [{"clusters": [["å", "ß"]]}]})
    seq = parse_sequence(doc.encode("utf-8"), "json")
    assert snapshot_members(seq, 0) == {"å", "ß"}


def test_residents_examples():
    seq = sequence_from_lists([[["a", "b"], ["c"]], [["b", "c", "d"]]])
    assert residents(seq, 0, 1) == {"b", "c"}
    assert residents(seq, 0, 0) == {"a", "b", "c"}
    disjoint = sequence_from_lists([[["a"]], [["z"]]])
    assert residents(disjoint, 0, 1) == frozenset()


def test_residents_out_of_range():
    seq = sequence_from_lists([[["a"]]])
    with pytest.raises(IndexError):
        residents(seq, 0, 1)


members = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=1000), min_size=1, max_size=6
)


@st.composite
def sequences(draw):
    t_total = draw(st.integers(1, 4))
    data = []
    for _ in range(t_total):
        pool = draw(st.sets(members, min_size=0, max_size=8))
        pool = sorted(pool)
        if not pool:
            data.append([])
            continue
        k = draw(st.integers(1, min(3, len(pool))))
        clusters = [[] for _ in range(k)]
        for i, m in enumerate(pool):
            clusters[i % k].append(m)
        data.append([c for c in clusters if c])
    return sequence_from_lists(data)


@given(sequences())
def test_parse_serialize_roundtrip(seq):
    again = parse_sequence(sequence_to_json_bytes(seq), "json")
    assert again == seq


@given(sequences(), st.data())
def test_residents_symmetric(seq, data):
    i = data.draw(st.integers(0, len(seq) - 1))
    j = data.draw(st.integers(0, len(seq) - 1))
    assert residents(seq, i, j) == residents(seq, j, i)


def test_subsequence_prefix():
    seq = sequence_from_lists([[["a"]], [["b"]], [["c"]]])
    pre = subsequence(seq, 2)
    assert len(pre) == 2
    with pytest.raises(IndexError):
        subsequence(seq, 0)


def test_sequence_needs_snapshot():
    with pytest.raises(SequenceValidationError):
        sequence_from_lists([])

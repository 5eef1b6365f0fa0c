"""The streamed document reader against the whole-tree reference.

`read_tables` and `load_document` decode a result document one snapshot
at a time. `helpers.reference_tables` and `helpers.reference_load` check
one `json.loads` tree, the way the reader did before it streamed. On
every input, valid or not, both give the same tables, or the same error
class and message.
"""

import json
import random
import tracemalloc

import pytest

from dynatrack import sequence_from_lists, track
from dynatrack.docwriter import document_chunks
from dynatrack.resultdoc import read_tables
from helpers import assert_reads_as_reference, random_sequence, streamed_tables
from inputs import churn_clusters


def document(seq, x: int = 1) -> str:
    return "".join(document_chunks(track(seq, x), "0"))


def documents(count: int, seed: int):
    """Documents of small random sequences, half of them labelled."""
    rng = random.Random(seed)
    for i in range(count):
        seq = random_sequence(rng)
        if i % 2:
            seq = sequence_from_lists(
                [list(map(list, s.clusters)) for s in seq.snapshots],
                [rng.choice(["a", None, "é\n"]) for _ in seq.snapshots],
            )
        yield document(seq, rng.randrange(3))


SMALL = document(
    sequence_from_lists(
        [[["a", "b"], ["c"]], [["a"], ["b", "ü"]], [["a", "b", "ü"]]],
        ["t0", None, "t2"],
    )
)


def reordered(value):
    """`value` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: reordered(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [reordered(v) for v in value]
    return value


def test_documents_in_any_layout():
    for text in documents(60, 900):
        tree = json.loads(text)
        layouts = [
            text,
            json.dumps(tree, indent=2),
            json.dumps(reordered(tree)),
            " \r\n" + json.dumps(tree, indent="\t", separators=(" ,\n", " : ")) + "\n\t",
        ]
        for raw in layouts:
            assert not isinstance(assert_reads_as_reference(raw)[0], type)
            assert_reads_as_reference(raw.encode())


def test_repeated_keys_keep_the_last():
    tree = json.loads(SMALL)
    body = SMALL.strip()[1:-1]
    snapshots = json.dumps(tree["snapshots"])
    other = json.loads(document(sequence_from_lists([[["x"]], [["x", "y"]]])))
    other = json.dumps(other["snapshots"])
    cases = [
        f'{{"snapshots":{snapshots},{body}}}',  # the same array twice
        f'{{{body},"snapshots":{snapshots}}}',
        f'{{"snapshots":[{{"clusters":7}}],{body}}}',  # a bad one first
        f'{{{body},"snapshots":[{{"clusters":7}}]}}',  # a bad one last
        f'{{{body},"snapshots":{other}}}',  # another sequence last
        f'{{{body},"snapshots":5}}',
        f'{{{body},"snapshots":"ab"}}',
        f'{{{body},"snapshots":{{}}}}',
        f'{{"dcs":[{{"id":0,"clusters":[[9,9]]}}],{body}}}',
        f'{{{body},"dcs":[{{"id":0,"clusters":[[9,9]]}}]}}',
        f'{{{body},"dcs":"ab"}}',
        f'{{{body},"dcs":[]}}',
        f'{{{body},"schema":2,"schema":1,"history":-1}}',
        f'{{{body},"snapshots":[],"dcs":[],"snapshot_count":0}}',
    ]
    outcomes = [assert_reads_as_reference(raw) for raw in cases]
    assert outcomes[0] == outcomes[1] == streamed_tables(SMALL)
    assert not isinstance(outcomes[2][0], type)


def test_ids_and_refs_beyond_64_bits():
    tree = json.loads(SMALL)
    big = 2**70
    for snapshot in tree["snapshots"]:
        for cluster in snapshot["clusters"]:
            cluster["dc"] += big
    for entry in tree["dcs"]:
        entry["id"] += big
    assert not isinstance(assert_reads_as_reference(json.dumps(tree))[0], type)
    for ref in ([big, 0], [0, -big], [2**63, 2**63 - 1], [-(2**63) - 1, 0]):
        for times in (1, 2):
            tree["dcs"][-1]["clusters"] += [ref] * times
            assert_reads_as_reference(json.dumps(tree))


@pytest.mark.parametrize(
    "encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32",
                 "utf-32-le", "utf-32-be"]
)
def test_encodings(encoding):
    for text in [SMALL, *documents(4, 901)]:
        assert_reads_as_reference(text.encode(encoding))
    lone = SMALL.replace('"a"', '"\\ud800"')
    assert_reads_as_reference(lone.encode(encoding, "surrogatepass"))


def test_odd_text():
    for raw in [
        "\ufeff" + SMALL,  # a BOM in a str is an error; in bytes it is not
        ("\ufeff" + SMALL).encode(),
        ("\ufeff\ufeff" + SMALL).encode("utf-16"),
        SMALL.encode()[:-5] + b"\xff" + SMALL.encode()[-5:],
        SMALL.replace('"a"', '"\\ud800"').encode("utf-8", "surrogatepass"),
        SMALL + "x", SMALL + " {}", "", " ", "[]", "null", '"x"', "{}", "{ }",
        '{"schema":1,"history":1e400}', '{"schema":NaN}', '{"schema":1,}',
        '{"schema" 1}', '{"schema":1 "history":1}', "{'schema':1}",
        '{"schema":1,"history":1,"snapshot_count":0,"dcs":[],"snapshots":[1,]}',
        '{"schema":1,"history":1,"snapshot_count":0,"dcs":[],"snapshots":[,1]}',
        '{"schema":1,"history":1,"snapshot_count":0,"dcs":[],"snapshots":[1 2]}',
        '{"schema":1,"history":1,"snapshot_count":0,"dcs":[1,],"snapshots":[]}',
        '{"schema":1,"history":1,"snapshot_count":0,"dcs":[],"snapshots":[]',
        SMALL.replace('"dcs":[', '"dcs":[' + "[" * 100_000 + "]" * 100_000 + ","),
        SMALL.replace('"history":', '"history":' + "1" * 5000 + ",\"h\":"),
    ]:
        assert_reads_as_reference(raw)


def test_truncated_at_every_offset():
    raw = SMALL.encode()
    assert not isinstance(assert_reads_as_reference(raw)[0], type)
    for end in range(len(raw)):
        assert_reads_as_reference(raw[:end])
        assert_reads_as_reference(raw[end:])


def test_one_character_insertions():
    rng = random.Random(902)
    alphabet = '{}[],:"\\ 0123456789-+.eEtrufalsn\t\n\r\x00xé\U0001F600'
    texts = [SMALL, *documents(10, 903)]
    for _ in range(1500):
        text = rng.choice(texts)
        at = rng.randrange(len(text) + 1)
        assert_reads_as_reference(text[:at] + rng.choice(alphabet) + text[at:])
        at = rng.randrange(len(text))
        assert_reads_as_reference(text[:at] + text[at + 1 :])


def churn_document(t_total: int) -> str:
    """A churn result document of 100 clusters of about 20 members each."""
    return document(sequence_from_lists(churn_clusters(t_total, 2000, 100, 0)), 1)


def transient(text: str) -> int:
    """The tracemalloc peak of `read_tables(text)`, less what its result
    keeps."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = read_tables(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) > 1
    return peak - kept


def test_reading_holds_one_snapshot_at_a_time():
    """The memory `read_tables` holds while it reads, beyond the text and
    its result, does not grow with the number of snapshots T: on two churn
    documents that differ only in T (10 and 80), the transient at T=80 is
    at most twice that at T=10. What grows with T, the `dcs` refs as one
    flat list of ints and the registry check's columns, is small beside
    one snapshot's decoded JSON and two member indexes. A reader that
    decodes the whole document first holds the whole tree, about 7.5
    times as much at T=80 as at T=10."""
    short, long = churn_document(10), churn_document(80)
    assert long.count('"clusters":[{') == 80
    assert transient(long) <= 2 * transient(short)

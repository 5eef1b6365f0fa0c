"""The streamed result document against the whole-document reference.

`document_chunks` writes the document piece by piece; `build_document`
plus `document_to_bytes` (one `json.dumps` over the whole document) is
the reference its bytes must equal.
"""

import random

import pytest

from dynatrack import __version__, brute_force_track, sequence_from_lists, track
from dynatrack.resultdoc import build_document, document_chunks, document_to_bytes
from helpers import random_sequence

# Member IDs that `json.dumps` escapes (a quote, a backslash, C0 controls)
# and ones it writes as they are (DEL, U+2028, non-ASCII text, an astral
# character).
ODD_IDS = (
    'say "hi"', "back\\slash", "tab\tand\nnewline", "\x00", "\x1f",
    "\x7f", " ", "ünïcödé", "日本語", "\U0001F600",
)
# Snapshot labels, one of which needs escapes.
LABELS = ('week "1"\n', "plain", None, "día", "\U0001F600\\")


def reference(seq, result, version=__version__) -> bytes:
    return document_to_bytes(build_document(seq, result, version))


def streamed(seq, result, version=__version__) -> bytes:
    assert result.seq is seq
    return b"".join(map(str.encode, document_chunks(result, version)))


def renamed(seq, rng: random.Random, labelled: bool):
    """`seq` with some member IDs replaced by odd ones, and with snapshot
    labels if `labelled`."""
    names = {}
    for snap in seq.snapshots:
        for m in snap.column:
            if m not in names:
                odd = rng.random() < 0.3
                names[m] = f"{rng.choice(ODD_IDS)}{m}" if odd else m
    data = [[[names[m] for m in c] for c in snap.clusters] for snap in seq.snapshots]
    labels = [rng.choice(LABELS) for _ in data] if labelled else None
    return sequence_from_lists(data, labels)


def test_streamed_document_equals_the_reference_on_random_sequences():
    escaped = plain = single = 0
    for seed in range(240):
        rng = random.Random(4100 + seed)
        seq = renamed(random_sequence(rng), rng, labelled=seed % 2 == 0)
        single += len(seq) == 1
        for snap in seq.snapshots:
            if any('"' in m or "\\" in m or min(m) < " " for m in snap.column):
                escaped += 1
            else:
                plain += 1
        for x in range(3):
            result = track(seq, x)
            assert streamed(seq, result) == reference(seq, result), (seed, x)
    # both paths of the writer ran, and single-snapshot sequences occurred
    assert escaped > 100 and plain > 100 and single > 10


@pytest.mark.parametrize("labels", [None, ['a "label"\t', None]], ids=["unlabelled", "labelled"])
def test_every_odd_id_in_one_snapshot(labels):
    data = [[[m] for m in ODD_IDS], [list(ODD_IDS[:5]), list(ODD_IDS[5:])]]
    seq = sequence_from_lists(data, labels)
    result = track(seq, 1)
    assert streamed(seq, result) == reference(seq, result)
    assert streamed(seq, result, 'v"1\\') == reference(seq, result, 'v"1\\')


def test_single_snapshot_and_empty_snapshots():
    for data in ([[["a", "b"], ["c"]]], [[]], [[], [["a"]], []], [[["\U0001F600"]]]):
        seq = sequence_from_lists(data)
        result = track(seq, 2)
        assert streamed(seq, result) == reference(seq, result), data


def test_oracle_documents_equal_the_reference():
    for seed in range(40):
        rng = random.Random(5200 + seed)
        seq = renamed(random_sequence(rng, max_clusters=3), rng, labelled=True)
        for x in range(3):
            result = brute_force_track(seq, x)
            assert streamed(seq, result) == reference(seq, result), (seed, x)


def test_one_chunk_per_snapshot_after_the_registry():
    seq = sequence_from_lists([[["a", "b"]], [["a"], ["b"]], [["a", "b"]]])
    chunks = list(document_chunks(track(seq, 1), __version__))
    assert len(chunks) == len(seq) + 2
    assert chunks[0].startswith('{"dcs":[') and chunks[0].endswith('"snapshots":[')
    assert chunks[-1] == f'],"tool":"dynatrack","version":"{__version__}"}}\n'

"""Whatever bytes the CLI reads from a file, it exits with 0 or 2.

Each command reads one file: a sequence (`--input`, JSON or CSV), a result
document (`--result`) or a scenario spec (`--spec`). The inputs are raw
bytes, JSON of the right keys with values of any type, and valid files
with one part replaced. `cli.main` must return 0 or 2 and never raise.
Any text as the value of an option exits 0, or 2 with one stderr line.
On every result document, the one-pass reader that `events` and `render`
run and the whole loaded sequence give the same tables or the same error,
and both agree with the whole-tree reference reader of `helpers`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynatrack.cli import main
from dynatrack.errors import DynatrackError, SchemaError, SequenceValidationError
from dynatrack.metrics import clustering_from_labels, dc_sizes
from dynatrack.relations import count_tables
from dynatrack.resultdoc import load_document, read_tables
from helpers import assert_reads_as_reference

KEYS = (
    "snapshots", "clusters", "label", "schema", "history", "snapshot_count",
    "dcs", "id", "members", "dc", "size", "start", "end", "events", "kind",
    "duration", "fraction", "into", "turnover", "seed", "splinter", "merge",
)


# Lone surrogates included, and drawn alone often, since they are rare
# among all characters: `json.dumps` writes them as `\ud800`-style
# escapes, which decode to strings that UTF-8 cannot encode.
TEXT = st.text(
    st.characters(categories=["L", "N", "P", "S", "Z", "Cc", "Cs"]), max_size=3
) | st.characters(categories=["Cs"])


# `json.dumps` cannot write an integer of more than 4,300 digits (the
# interpreter's int-to-string limit), and `json.loads` rejects one with a
# plain ValueError; `encoded` writes this placeholder leaf as such a literal.
LONG_INT = "<long integer>"
LONG_DIGITS = "1" + "0" * 4300


def json_values(ints):
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        ints,
        st.just(LONG_INT),
        st.floats(),
        st.sampled_from(KEYS + ("a", "b", "")),
        TEXT,
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(
                st.sampled_from(KEYS) | TEXT, inner, max_size=4
            ),
        ),
        max_leaves=16,
    )


values = json_values(st.integers(-3, 12) | st.integers())
# A spec within the caps can still plant millions of members; small numbers
# keep each generated scenario small (the caps have their own tests).
spec_values = json_values(st.integers(-3, 1000))


def encoded(strategy):
    return strategy.map(
        lambda v: json.dumps(v)
        .replace(json.dumps(LONG_INT), LONG_DIGITS)
        .encode("utf-8")
    )


SEQUENCE = {
    "snapshots": [
        {"clusters": [["a", "b", "c"], ["d", "e"]]},
        {"clusters": [["a", "b"], ["c", "d", "e"]], "label": "t1"},
        {"clusters": [["a", "b", "c", "d"], ["e"]]},
    ]
}

SPEC = {
    "snapshots": 5,
    "seed": 1,
    "turnover": 0.1,
    "dcs": [{"size": 6, "start": 0, "end": 4}, {"size": 3, "start": 1, "end": 4}],
    "events": [
        {"kind": "splinter", "dc": 0, "start": 1, "duration": 2, "fraction": 0.5},
        {"kind": "merge", "dc": 1, "start": 3, "into": 0},
    ],
}


@st.composite
def mutated(draw, doc, values=values):
    """`doc` with one node, reached by a random walk, replaced or dropped."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return draw(values)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(values)
    return doc


# Sequences of the right shape whose member IDs and labels are any text.
text_sequences = st.lists(
    st.fixed_dictionaries(
        {"clusters": st.lists(st.lists(TEXT, min_size=1, max_size=3), max_size=3)},
        optional={"label": TEXT},
    ),
    min_size=1,
    max_size=3,
).map(lambda snapshots: {"snapshots": snapshots})


def any_bytes(structured, values=values):
    return st.one_of(st.binary(max_size=64), encoded(values), structured)


csv_rows = st.lists(
    st.tuples(
        st.integers(-1, 3) | st.integers(),
        st.sampled_from(["a", "b", "c", ""]) | st.text(max_size=3),
        st.integers(-1, 3) | st.integers(),
    ),
    max_size=8,
)
csv_text = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    csv_rows.map(
        lambda rows: "t,member,cluster\n"
        + "".join(f"{t},{m},{c}\n" for t, m, c in rows)
    ).map(str.encode),
)

fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, data: bytes, argv: list[str]) -> None:
    path = workdir / "in"
    path.write_bytes(data)
    argv = [a.replace("{in}", str(path)).replace("{out}", str(workdir / "out"))
            for a in argv]
    assert main(argv) in (0, 2), argv


@fuzz
@given(data=any_bytes(encoded(mutated(SEQUENCE) | text_sequences)))
def test_any_json_input(workdir, data):
    run(workdir, data, ["track", "--input", "{in}", "--history", "2",
                        "--output", "{out}"])
    run(workdir, data, ["oracle", "--input", "{in}", "--history", "2",
                        "--output", "{out}"])
    run(workdir, data, ["sweep", "--input", "{in}", "--history-min", "0",
                        "--history-max", "3", "--output", "{out}"])


@fuzz
@given(data=csv_text)
def test_any_csv_input(workdir, data):
    run(workdir, data, ["track", "--input", "{in}", "--format", "csv",
                        "--history", "1", "--output", "{out}"])


@pytest.fixture(scope="module")
def document(workdir):
    source = workdir / "seq.json"
    source.write_text(json.dumps(SEQUENCE))
    out = workdir / "doc.json"
    assert main(["track", "--input", str(source), "--history", "2",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text())


@fuzz
@given(data=st.data())
def test_any_result_document(workdir, document, data):
    raw = data.draw(any_bytes(encoded(mutated(document))))
    run(workdir, raw, ["events", "--result", "{in}", "--output", "{out}"])
    run(workdir, raw, ["render", "--result", "{in}", "--output", "{out}"])


def one_pass(raw: bytes):
    """What `events` and `render` read: the labels, DC sizes, count
    tables and history, or the error as (class, message)."""
    try:
        labels, sizes, tables, x = read_tables(raw)
    except DynatrackError as exc:
        return type(exc), str(exc)
    return labels, dc_sizes(labels, sizes), tables, x


def loaded(raw: bytes):
    """The same through the whole sequence: `load_document`, then
    `clustering_from_labels` and `count_tables`."""
    try:
        seq, labels, x = load_document(raw)
        result = clustering_from_labels(seq, labels, x)
    except DynatrackError as exc:
        return type(exc), str(exc)
    return result.labels, result.sizes, count_tables(seq), x


@fuzz
@given(data=st.data())
def test_one_pass_reader_agrees_with_the_loaded_sequence(document, data):
    raw = data.draw(any_bytes(encoded(mutated(document))))
    assert one_pass(raw) == loaded(raw)


@fuzz
@given(data=st.data())
def test_streamed_reader_agrees_with_the_whole_tree_reference(document, data):
    # Both readers above share one streamed decoder; the reference checks
    # one `json.loads` tree, so that a drifted message shows here.
    assert_reads_as_reference(data.draw(any_bytes(encoded(mutated(document)))))


def test_one_pass_reader_holds_the_member_error_behind_the_document_checks(document):
    def raw(doc) -> bytes:
        return json.dumps(doc).encode()

    repeated = json.loads(json.dumps(document))
    members = repeated["snapshots"][0]["clusters"][1]["members"]
    members.append(repeated["snapshots"][0]["clusters"][0]["members"][0])
    cases = {"repeated": repeated}
    # a member listed twice in its own cluster
    within = json.loads(json.dumps(document))
    members = within["snapshots"][0]["clusters"][0]["members"]
    members.append(members[0])
    cases["repeated within a cluster"] = within
    # the same repeated member, and a registry entry dropped
    cases["repeated and unlisted"] = json.loads(json.dumps(repeated))
    cases["repeated and unlisted"]["dcs"].pop()
    # the same, and the snapshot count off by one
    cases["repeated and miscounted"] = json.loads(json.dumps(repeated))
    cases["repeated and miscounted"]["snapshot_count"] += 1
    cases["no snapshots"] = dict(document, snapshots=[], snapshot_count=0, dcs=[])
    outcomes = {name: one_pass(raw(doc)) for name, doc in cases.items()}
    assert outcomes == {name: loaded(raw(doc)) for name, doc in cases.items()}
    assert outcomes == {
        "repeated": (
            SequenceValidationError,
            "snapshot 0: member 'a' appears in more than one cluster",
        ),
        "repeated within a cluster": (
            SequenceValidationError, "snapshot 0: cluster 0 lists member 'a' twice"
        ),
        "repeated and unlisted": (
            SchemaError, "dcs registry does not match the clusters' dc values"
        ),
        "repeated and miscounted": (
            SchemaError, "snapshot_count is 4 but the document has 3 snapshots"
        ),
        "no snapshots": (
            SequenceValidationError, "a sequence needs at least one snapshot"
        ),
    }


@fuzz
@given(data=any_bytes(encoded(mutated(SPEC, spec_values)), spec_values))
def test_any_scenario_spec(workdir, data):
    run(workdir, data, ["generate", "--spec", "{in}", "--output", "{out}"])


@fuzz
@given(option=st.sampled_from(["--gap", "--block-width"]), value=st.floats())
def test_any_render_geometry(workdir, document, option, value):
    # Any float, nan, infinities and negatives included; the `=` form lets
    # argparse take a value such as "-inf" that starts with a dash.
    source = workdir / "doc.json"
    source.write_text(json.dumps(document))
    svg = workdir / "render.svg"
    svg.unlink(missing_ok=True)
    code = main(["render", "--result", str(source), "--output", str(svg),
                 f"{option}={value!r}"])
    assert code in (0, 2)
    if code == 0:
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text


# (subcommand and its file argument, option) pairs whose value is text.
OPTIONS = [
    (["track", "--input", "{seq}", "--output", "{out}"], "--history"),
    (["track", "--input", "{seq}", "--history", "1", "--output", "{out}"],
     "--format"),
    (["sweep", "--input", "{seq}", "--history-max", "2", "--output", "{out}"],
     "--history-min"),
    (["sweep", "--input", "{seq}", "--history-min", "0", "--output", "{out}"],
     "--history-max"),
    (["render", "--result", "{doc}", "--output", "{out}"], "--gap"),
    (["render", "--result", "{doc}", "--output", "{out}"], "--block-width"),
]


@fuzz
@given(
    case=st.sampled_from(OPTIONS),
    value=st.text(max_size=12)
    | st.sampled_from(["-inf", "-1", "-", "--", "-x", "1e308", "nan", " 2"]),
    joined=st.booleans(),
)
def test_any_option_value(workdir, document, case, value, joined):
    argv, option = case
    seq = workdir / "options-seq.json"
    seq.write_text(json.dumps(SEQUENCE))
    doc = workdir / "options-doc.json"
    doc.write_text(json.dumps(document))
    argv = [
        a.replace("{seq}", str(seq)).replace("{doc}", str(doc))
        .replace("{out}", str(workdir / "options-out"))
        for a in argv
    ]
    argv += [f"{option}={value}"] if joined else [option, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv
    if code == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text
        assert text.endswith("\n")

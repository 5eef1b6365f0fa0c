"""Whatever bytes the CLI reads from a file, it exits with 0 or 2.

Each command reads one file: a sequence (`--input`, JSON or CSV), a result
document (`--result`) or a scenario spec (`--spec`). The inputs are raw
bytes, JSON of the right keys with values of any type, and valid files
with one part replaced. `cli.main` must return 0 or 2 and never raise.
Any text as the value of an option exits 0, or 2 with one stderr line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynatrack.cli import main

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


def json_values(ints):
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        ints,
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
    return strategy.map(lambda v: json.dumps(v).encode("utf-8"))


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

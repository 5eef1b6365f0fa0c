"""End-to-end CLI behaviour through in-process invocation."""

import gc
import json

import pytest

from dataclasses import asdict

from dynatrack import classify_events, cli, clustering_from_labels, relations, tracking
from dynatrack import errors
from dynatrack.cli import SWEEP_HEADER, main
from dynatrack.errors import SchemaError
from dynatrack.resultdoc import load_document
from inputs import churn_clusters, sequence_bytes

IDENTITY_FIXTURE = {
    "snapshots": [
        {"clusters": [["a", "b"], ["c"]]},
        {"clusters": [["a", "b"], ["c"]]},
    ]
}

# t0: two ancestors, t1: their union, t2: a 1-step splinter, t3: reunion
FIG_SPLINTER = {
    "snapshots": [
        {"clusters": [["1", "2", "3", "4"], ["5", "6"]]},
        {"clusters": [["1", "2", "3", "4", "5", "6"]]},
        {"clusters": [["1", "2", "3", "4"], ["5", "6"]]},
        {"clusters": [["1", "2", "3", "4", "5", "6"]]},
    ]
}


@pytest.fixture
def identity_input(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(IDENTITY_FIXTURE))
    return path


def test_track_identity_fixture(identity_input, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(
        ["track", "--input", str(identity_input), "--history", "1",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["history"] == 1
    assert doc["snapshot_count"] == 2
    snaps = doc["snapshots"]
    assert snaps[0]["clusters"][0]["dc"] == snaps[1]["clusters"][0]["dc"]
    assert snaps[0]["clusters"][1]["dc"] == snaps[1]["clusters"][1]["dc"]
    assert {d["id"] for d in doc["dcs"]} == {0, 1}


def test_track_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"snapshots": [')
    code = main(["track", "--input", str(bad), "--history", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_track_duplicate_member_exits_2(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({"snapshots": [{"clusters": [["a"], ["a"]]}]}))
    code = main(["track", "--input", str(bad), "--history", "1"])
    assert code == 2
    assert "'a'" in capsys.readouterr().err


def test_track_missing_file_exits_1(tmp_path, capsys):
    code = main(
        ["track", "--input", str(tmp_path / "nope.json"), "--history", "1"]
    )
    assert code == 1


def test_track_negative_history_exits_2(identity_input, capsys):
    code = main(["track", "--input", str(identity_input), "--history", "-1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["track", "--input", "{in}", "--history", "-inf"],
         "argument --history: expected one argument"),
        (["track", "--input", "{in}", "--history", "abc"],
         "argument --history: invalid int value: 'abc'"),
        (["render", "--result", "{in}", "--gap", "-inf"],
         "argument --gap: expected one argument"),
        ([], "the following arguments are required: command"),
        (["track", "--input", "{in}", "--history", "1", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["track", "--input", "{in}", "--history", "1", "x\ny"],
         "unrecognized arguments: x y"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        # argparse would store [] for these, as if no value were needed
        (["render", "--result", "{in}", "--gap=--"],
         "argument --gap: expected one argument"),
        (["track", "--input", "{in}", "--history", "1", "--output=--"],
         "argument --output: expected one argument"),
    ],
)
def test_usage_errors_are_one_line(identity_input, capsys, argv, message):
    argv = [a.replace("{in}", str(identity_input)) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_track_csv_input(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("t,member,cluster\n0,a,0\n0,b,0\n1,a,0\n1,b,0\n")
    out = tmp_path / "result.json"
    code = main(
        ["track", "--input", str(path), "--format", "csv", "--history", "1",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["dcs"]) == 1


def test_track_stdout(identity_input, capsys):
    code = main(["track", "--input", str(identity_input), "--history", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1


def test_track_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsysbinary):
    seq = tmp_path / "seq.json"
    seq.write_bytes(sequence_bytes(churn_clusters(6, 400, 12, 0)))
    out = tmp_path / "result.json"
    argv = ["track", "--input", str(seq), "--history", "2", "--output"]
    assert main(argv + [str(out)]) == 0
    assert main(argv + ["-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_oracle_matches_track_byte_for_byte(identity_input, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(
        ["track", "--input", str(identity_input), "--history", "1",
         "--output", str(a)]
    ) == 0
    assert main(
        ["oracle", "--input", str(identity_input), "--history", "1",
         "--output", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_size_guard_exit_code(tmp_path, capsys):
    doc = {"snapshots": [{"clusters": [["a"]]} for _ in range(9)]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", "--input", str(path), "--history", "1"])
    assert code == 2


# The package errors that report bad input, and exit 2.
BAD_INPUT_ERRORS = {
    "ParseError", "SequenceValidationError", "SchemaError", "GenerationError",
    "OracleSizeError",
}


def test_the_exit_code_follows_the_error_class(identity_input, monkeypatch, capsys):
    # Bad input is exactly the package's ValueErrors: exit 2. Every other
    # package error exits 1. Either way the message is one `error:` line.
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.DynatrackError)
    ]
    bad_input = {c.__name__ for c in classes if issubclass(c, ValueError)}
    assert bad_input == BAD_INPUT_ERRORS and len(classes) == 9
    for cls in classes:
        def fail(args, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "_load_input", fail)
        code = main(["track", "--input", str(identity_input), "--history", "1"])
        assert code == (2 if cls.__name__ in BAD_INPUT_ERRORS else 1), cls
        assert capsys.readouterr() == ("", f"error: {cls.__name__} raised\n")


def test_events_roundtrip(identity_input, tmp_path):
    result = tmp_path / "result.json"
    main(["track", "--input", str(identity_input), "--history", "1",
          "--output", str(result)])
    out = tmp_path / "events.json"
    code = main(["events", "--result", str(result), "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == b'{"events":[],"schema":1}\n'


def test_events_json_holds_every_field(tmp_path):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(FIG_SPLINTER))
    result = tmp_path / "result.json"
    out = tmp_path / "events.json"
    assert main(["track", "--input", str(seq_path), "--history", "0",
                 "--output", str(result)]) == 0
    assert main(["events", "--result", str(result), "--output", str(out)]) == 0
    seq, labels, x = load_document(result.read_bytes())
    events = classify_events(clustering_from_labels(seq, labels, x), seq)
    expected = [dict(asdict(ev), related=list(ev.related)) for ev in events]
    assert {ev["kind"] for ev in expected} >= {"split", "merge"}
    assert json.loads(out.read_text()) == {"schema": 1, "events": expected}


def test_document_with_a_long_integer_rejected():
    # longer than the 4,300 digits the interpreter converts to int
    with pytest.raises(SchemaError, match="integer too long"):
        load_document('{"schema":1,"history":1' + "0" * 5000 + "}")


def test_events_rejects_wrong_schema(tmp_path, capsys):
    bad = tmp_path / "weird.json"
    bad.write_text(json.dumps({"schema": 99}))
    assert main(["events", "--result", str(bad)]) == 2


def test_render_writes_svg_and_layout(identity_input, tmp_path):
    result = tmp_path / "result.json"
    main(["track", "--input", str(identity_input), "--history", "1",
          "--output", str(result)])
    svg = tmp_path / "diagram.svg"
    layout = tmp_path / "layout.json"
    code = main(
        ["render", "--result", str(result), "--output", str(svg),
         "--layout-json", str(layout)]
    )
    assert code == 0
    assert svg.read_text().startswith('<?xml version="1.0"')
    assert "svg" in svg.read_text()
    assert json.loads(layout.read_text())["gap"] == 2.0


def test_render_deterministic_bytes(identity_input, tmp_path):
    result = tmp_path / "result.json"
    main(["track", "--input", str(identity_input), "--history", "1",
          "--output", str(result)])
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    main(["render", "--result", str(result), "--output", str(a)])
    main(["render", "--result", str(result), "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "option, message",
    [
        ("--block-width=nan", "--block-width must be a finite number > 0"),
        ("--block-width=inf", "--block-width must be a finite number > 0"),
        ("--block-width=-inf", "--block-width must be a finite number > 0"),
        ("--block-width=0", "--block-width must be a finite number > 0"),
        ("--block-width=-3", "--block-width must be a finite number > 0"),
        ("--gap=nan", "--gap must be a finite number >= 0"),
        ("--gap=inf", "--gap must be a finite number >= 0"),
        ("--gap=-inf", "--gap must be a finite number >= 0"),
        ("--gap=-50", "--gap must be a finite number >= 0"),
        # finite, but the columns or the stacked blocks overflow a float
        ("--block-width=1e308", "overflows a float"),
        ("--gap=1e308", "overflows a float"),
    ],
)
@pytest.mark.parametrize("layout_json", [False, True], ids=["svg", "svg+layout"])
def test_render_bad_geometry_exits_2(
    result_doc, tmp_path, capsys, option, message, layout_json
):
    svg = tmp_path / "diagram.svg"
    layout = tmp_path / "layout.json"
    argv = ["render", "--result", str(result_doc), "--output", str(svg), option]
    if layout_json:
        argv += ["--layout-json", str(layout)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not svg.exists() and not layout.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["track", "--input", "SEQ", "--history", "1", "--output", "MISSING"],
        ["render", "--result", "DOC", "--output", "MISSING"],
        ["render", "--result", "DOC", "--output", "OUT", "--layout-json", "MISSING"],
    ],
    ids=["track", "render", "render-layout-json"],
)
def test_an_output_that_cannot_be_written_exits_1(result_doc, tmp_path, capsys, argv):
    paths = {
        "SEQ": str(tmp_path / "seq.json"),
        "DOC": str(result_doc),
        "OUT": str(tmp_path / "out.svg"),
        "MISSING": str(tmp_path / "no-such-dir" / "out"),
    }
    capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert err.count("\n") == 1


def rejecting_writer():
    raise ValueError("rejected input")
    yield b"never"


def test_write_opens_no_file_for_a_writer_that_raises_before_its_first_chunk(
    tmp_path,
):
    new = tmp_path / "new.out"
    kept = tmp_path / "kept.out"
    kept.write_bytes(b"earlier bytes\n")
    for path in (new, kept):
        with pytest.raises(ValueError, match="rejected input"):
            cli._write(str(path), rejecting_writer())
    assert not new.exists()
    assert kept.read_bytes() == b"earlier bytes\n"


@pytest.mark.parametrize("chunks", [[], [b""], [b"one"], [b"a", b"", b"bc", b"d\n"]])
def test_write_writes_every_chunk_in_order(tmp_path, capsysbinary, chunks):
    out = tmp_path / "out"
    cli._write(str(out), iter(chunks))
    assert out.read_bytes() == b"".join(chunks)
    for path in (None, "-"):
        cli._write(path, (chunk for chunk in chunks))
        assert capsysbinary.readouterr().out == b"".join(chunks)


@pytest.mark.parametrize("option", ["--block-width=1e308", "--gap=1e308"])
def test_render_overflow_leaves_existing_outputs_unchanged(
    result_doc, tmp_path, capsys, option
):
    svg = tmp_path / "diagram.svg"
    layout = tmp_path / "layout.json"
    svg.write_bytes(b"old svg\n")
    layout.write_bytes(b"old layout\n")
    argv = ["render", "--result", str(result_doc), "--output", str(svg),
            "--layout-json", str(layout), option]
    assert main(argv) == 2
    assert "overflows a float" in capsys.readouterr().err
    assert svg.read_bytes() == b"old svg\n"
    assert layout.read_bytes() == b"old layout\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--input", "SEQ", "--history", "1"],
        ["events", "--result", "DOC"],
        ["render", "--result", "DOC", "--block-width", "7.3"],
    ],
    ids=["oracle", "events", "render"],
)
def test_writes_the_same_bytes_to_stdout_and_to_a_file(
    result_doc, tmp_path, capsysbinary, argv
):
    paths = {"SEQ": str(tmp_path / "seq.json"), "DOC": str(result_doc)}
    argv = [paths.get(arg, arg) for arg in argv] + ["--output"]
    out = tmp_path / "out"
    assert main(argv + [str(out)]) == 0
    capsysbinary.readouterr()
    assert main(argv + ["-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert out.stat().st_size > 0


def test_render_zero_gap_and_thin_blocks(result_doc, tmp_path):
    svg = tmp_path / "diagram.svg"
    assert main(["render", "--result", str(result_doc), "--output", str(svg),
                 "--gap", "0", "--block-width", "0.5"]) == 0
    text = svg.read_text()
    assert 'width="0.50"' in text and "nan" not in text and "inf" not in text


SCENARIO = {
    "snapshots": 6,
    "seed": 7,
    "turnover": 0.0,
    "dcs": [{"size": 8, "start": 0, "end": 5}],
    "events": [
        {"kind": "splinter", "dc": 0, "start": 2, "duration": 2, "fraction": 0.25}
    ],
}


def test_generate_golden_fixture(tmp_path):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(SCENARIO))
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    labels = tmp_path / "labels.json"
    assert main(
        ["generate", "--spec", str(spec), "--output", str(out1),
         "--labels", str(labels)]
    ) == 0
    assert main(["generate", "--spec", str(spec), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    truth = json.loads(labels.read_text())
    assert truth["schema"] == 1
    assert truth["ground_truth"][2] == [0, 0]


def test_generate_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({"snapshots": 0, "dcs": []}))
    assert main(["generate", "--spec", str(spec)]) == 2


def test_generate_spec_number_types_exit_2(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    for bad, message in [
        ({"dcs": [{"size": 1e9, "start": 0, "end": 5}]}, "size must be an integer"),
        ({"snapshots": True}, "snapshots must be an integer"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"turnover": "0.1"}, "turnover must be a number"),
        ({"events": [SCENARIO["events"][0] | {"fraction": False}]},
         "fraction must be a number"),
        ({"events": [SCENARIO["events"][0] | {"duration": 2.0}]},
         "duration must be an integer"),
    ]:
        spec.write_text(json.dumps(SCENARIO | bad))
        assert main(["generate", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"snapshots": 10**9}, "at most 10000 snapshots, got 1000000000"),
        ({"dcs": [{"size": 10**9, "start": 0, "end": 5}]},
         "at most 10000000 planted member-snapshots"),
        # many groups, each small, add up past the cap too
        ({"snapshots": 1000, "events": [],
          "dcs": [{"size": 2000, "start": 0, "end": 999}] * 6},
         "got 12000000"),
    ],
    ids=["snapshots", "size", "sum"],
)
def test_generate_spec_caps_exit_2(tmp_path, capsys, bad, message):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(SCENARIO | bad))
    assert main(["generate", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["events", "--result"], b"\x80", "result document is not valid text"),
        (["render", "--result"], b"\x80", "result document is not valid text"),
        (["generate", "--spec"], b"\x80", "scenario is not valid text"),
        (["events", "--result"], b'{"schema":1,',
         "result document is not valid JSON: Expecting property name enclosed "
         "in double quotes"),
        (["render", "--result"], b'{"schema":1,"history":',
         "result document is not valid JSON: Expecting value"),
        (["generate", "--spec"], b'{"snapshots":3',
         "scenario is not valid JSON: Expecting ',' delimiter"),
        (["track", "--history", "1", "--format", "csv", "--input"],
         b"t,member,cluster\n0,a,0\n0,a,0\n",
         "snapshot 0: cluster 0 lists member 'a' twice"),
        (["track", "--history", "1", "--format", "csv", "--input"], b"\r0",
         "CSV line 1: new-line character"),
        # the first missing index is reported without counting up to 10**12
        (["track", "--history", "1", "--format", "csv", "--input"],
         b"t,member,cluster\n1000000000000,a,0\n", "missing t=0"),
        (["track", "--history", "1", "--format", "csv", "--input"],
         b"t,member,cluster\n0,a,1000000000000\n", "missing cluster=0"),
    ],
    ids=[
        "events", "render", "generate", "events-truncated", "render-truncated",
        "generate-truncated", "csv-repeated-member", "csv-newline", "csv-time",
        "csv-cluster",
    ],
)
def test_odd_input_bytes_exit_2(tmp_path, capsys, argv, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["track", "--history", "1", "--input"],
        ["oracle", "--history", "1", "--input"],
        ["sweep", "--history-min", "0", "--history-max", "1", "--input"],
    ],
    ids=["track", "oracle", "sweep"],
)
@pytest.mark.parametrize(
    "text",
    [
        '{"snapshots":[{"clusters":[["\\ud800"]]}]}',
        '{"snapshots":[{"clusters":[["a"]],"label":"\\udc00"}]}',
    ],
    ids=["member", "label"],
)
def test_lone_surrogate_escape_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "seq.json"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: snapshot 0: ") and "lone surrogate" in err
    assert err.count("\n") == 1


def test_escaped_surrogate_pair_is_written_as_utf8(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"snapshots":[{"clusters":[["\\ud83d\\ude00"]]}]}')
    out = tmp_path / "result.json"
    assert main(["track", "--history", "1", "--input", str(path),
                 "--output", str(out)]) == 0
    raw = out.read_bytes()
    assert "\U0001F600".encode("utf-8") in raw and b"\\u" not in raw


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, text, subject",
    [
        (["track", "--history", "1", "--input"], '{"snapshots":' + DEEP + "}",
         "JSON input"),
        (["oracle", "--history", "1", "--input"], '{"snapshots":' + DEEP + "}",
         "JSON input"),
        (["sweep", "--history-min", "0", "--history-max", "1", "--input"],
         '{"snapshots":' + DEEP + "}", "JSON input"),
        (["events", "--result"], DEEP, "result document"),
        (["render", "--result"], DEEP, "result document"),
        (["generate", "--spec"], DEEP, "scenario"),
    ],
    ids=["track", "oracle", "sweep", "events", "render", "generate"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv, text, subject):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == f"error: {subject} is nested too deeply\n"


LONG = "1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["track", "--history", "1", "--input"],
         '{"snapshots":[{"clusters":[[' + LONG + "]]}]}",
         "JSON input holds an integer too long to read"),
        (["events", "--result"], '{"schema":1,"history":' + LONG + "}",
         "result document has an integer too long to read"),
        (["render", "--result"], '{"schema":1,"history":' + LONG + "}",
         "result document has an integer too long to read"),
        (["generate", "--spec"], '{"snapshots":' + LONG + "}",
         "scenario has an integer too long to read"),
    ],
    ids=["track", "events", "render", "generate"],
)
def test_long_integer_exits_2(tmp_path, capsys, argv, text, message):
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_csv_and_flags(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(
        json.dumps({"snapshots": [{"clusters": [["a", "b"], ["c"]]}] * 4})
    )
    out = tmp_path / "sweep.csv"
    json_out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--input", str(seq), "--history-min", "1",
         "--history-max", "3", "--output", str(out), "--json", str(json_out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    # stable fixture: identical metrics in every row (x >= 1)
    assert len({line.split(",", 1)[1] for line in lines[1:]}) == 1
    err = capsys.readouterr().err
    assert "best consistency_all" in err
    records = json.loads(json_out.read_text())["sweep"]
    assert [r["x"] for r in records] == [1, 2, 3]
    assert all("lifespan_histogram" in r for r in records)


def test_sweep_single_point(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"snapshots": [{"clusters": [["a"]]}] * 2}))
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--input", str(seq), "--history-min", "1",
         "--history-max", "1", "--output", str(out)]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_sweep_bad_range_exits_2(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"snapshots": [{"clusters": [["a"]]}]}))
    code = main(
        ["sweep", "--input", str(seq), "--history-min", "3",
         "--history-max", "1"]
    )
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dynatrack" in capsys.readouterr().out


# `dynatrack [<command>] --help`, by command, as argparse prints it on an
# 80-column terminal.
HELP = {
    "": """\
usage: dynatrack [-h] [--version]
                 {track,oracle,sweep,events,render,generate} ...

Track dynamic clusters through a sequence of snapshot clusterings, classify
their life-cycle events, score parametrisations, and render alluvial diagrams.

positional arguments:
  {track,oracle,sweep,events,render,generate}
    track               detect dynamic clusters
    oracle              brute-force reference labelling (small inputs)
    sweep               scan a range of history values
    events              life-cycle events of a tracking result
    render              alluvial SVG of a tracking result
    generate            synthesise a scenario fixture

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "track": """\
usage: dynatrack track [-h] --input INPUT [--format {json,csv}] --history
                       HISTORY [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --input INPUT        input sequence file
  --format {json,csv}  input format (default: json)
  --history HISTORY    history horizon (x >= 0)
  --output OUTPUT      result document path (default: stdout)
""",
    "oracle": """\
usage: dynatrack oracle [-h] --input INPUT [--format {json,csv}] --history
                        HISTORY [--output OUTPUT]

options:
  -h, --help           show this help message and exit
  --input INPUT        input sequence file
  --format {json,csv}  input format (default: json)
  --history HISTORY
  --output OUTPUT      result document path (default: stdout)
""",
    "sweep": """\
usage: dynatrack sweep [-h] --input INPUT [--format {json,csv}] --history-min
                       HISTORY_MIN --history-max HISTORY_MAX [--output OUTPUT]
                       [--json JSON]

options:
  -h, --help            show this help message and exit
  --input INPUT         input sequence file
  --format {json,csv}   input format (default: json)
  --history-min HISTORY_MIN
  --history-max HISTORY_MAX
  --output OUTPUT       CSV path (default: stdout)
  --json JSON           also write full records (incl. histograms) as JSON
""",
    "events": """\
usage: dynatrack events [-h] --result RESULT [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --result RESULT  document written by `track`
  --output OUTPUT  events JSON path (default: stdout)
""",
    "render": """\
usage: dynatrack render [-h] --result RESULT [--output OUTPUT]
                        [--layout-json LAYOUT_JSON]
                        [--block-width BLOCK_WIDTH] [--gap GAP]

options:
  -h, --help            show this help message and exit
  --result RESULT       document written by `track`
  --output OUTPUT       SVG path (default: stdout)
  --layout-json LAYOUT_JSON
                        also write the layout as JSON
  --block-width BLOCK_WIDTH
                        block width in px (> 0)
  --gap GAP             vertical gap between blocks (>= 0)
""",
    "generate": """\
usage: dynatrack generate [-h] --spec SPEC [--output OUTPUT] [--labels LABELS]

options:
  -h, --help       show this help message and exit
  --spec SPEC      scenario JSON path
  --output OUTPUT  sequence JSON path (default: stdout)
  --labels LABELS  ground-truth labels JSON path
""",
}


@pytest.mark.parametrize(
    "argv, command",
    [([c, "--help"] if c else ["--help"], c) for c in HELP]
    # Help before the command is the top-level help.
    + [(["--help", "track"], ""), (["-h", "render", "--gap", "1"], "")],
)
def test_help_texts(monkeypatch, capsys, argv, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize(
    "snapshots, x_max, last",
    [(None, 6, 5), ([{"clusters": [["a", "b"], ["c"]]}], 3, 0)],
    ids=["generated", "one-snapshot"],
)
def test_sweep_equals_per_x_track_with_fresh_relations(
    tmp_path, monkeypatch, capsys, snapshots, x_max, last
):
    seq = tmp_path / "seq.json"
    if snapshots is None:
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(SCENARIO | {"turnover": 0.2}))
        assert main(["generate", "--spec", str(spec), "--output", str(seq)]) == 0
    else:
        seq.write_text(json.dumps({"snapshots": snapshots}))

    # every pair table the kernel counts, T - 1 = last of them per build
    builds = []
    pair_counts = relations.pair_counts

    def counted(a, b):
        builds.append((a, b))
        return pair_counts(a, b)

    xs = []
    track = tracking.track

    def counted_track(seq, x, **kwargs):
        xs.append(x)
        return track(seq, x, **kwargs)

    monkeypatch.setattr(relations, "pair_counts", counted)
    # `cli.cmd_sweep` imports `track` from `tracking` when it runs
    monkeypatch.setattr(tracking, "track", counted_track)

    def sweep(x_min, x_max, name):
        paths = [tmp_path / f"{name}.csv", tmp_path / f"{name}.json"]
        assert main(
            ["sweep", "--input", str(seq), "--history-min", str(x_min),
             "--history-max", str(x_max),
             "--output", str(paths[0]), "--json", str(paths[1])]
        ) == 0
        return [path.read_text() for path in paths]

    capsys.readouterr()
    shared_csv, shared_json = sweep(0, x_max, "shared")
    # x = last = T - 1 saturates the search depth: the rows stop there, and
    # one relation build (consistency included) serves one track per row
    assert len(builds) == last
    assert xs == list(range(last + 1))
    assert f"every x > {last} gives the row of x = {last}" in capsys.readouterr().err

    # Reference: one sweep per x, each with fresh relations and its own
    # track at that x; past the last row, the row of x = last.
    rows, records = [], []
    head, tail = '{"schema":1,"sweep":[', "]}\n"
    for x in range(x_max + 1):
        csv_text, json_text = sweep(x, x, f"x{x}")
        rows.append(csv_text.splitlines()[1])
        assert json_text.startswith(head) and json_text.endswith(tail)
        records.append(json_text[len(head):-len(tail)])
    # one build per sweep; alone, x = 0 counts no table, since each of its
    # DCs lives one snapshot and consistency reads none
    assert len(builds) == last * (1 + x_max)
    assert xs[last + 1:] == list(range(x_max + 1))
    assert shared_csv == SWEEP_HEADER + "\n" + "\n".join(rows[: last + 1]) + "\n"
    assert shared_json == head + ",".join(records[: last + 1]) + tail
    saturated = json.loads(records[last])
    for x in range(last + 1, x_max + 1):
        assert rows[x] == f"{x}," + rows[last].split(",", 1)[1]
        assert json.loads(records[x]) == saturated | {"x": x}


def test_sweep_stops_at_saturation(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(IDENTITY_FIXTURE))
    out = tmp_path / "sweep.csv"
    records = tmp_path / "sweep.json"
    assert main(
        ["sweep", "--input", str(seq), "--history-min", "0",
         "--history-max", "1000000", "--output", str(out),
         "--json", str(records)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert [line.split(",", 1)[0] for line in lines[1:]] == ["0", "1"]
    assert [r["x"] for r in json.loads(records.read_text())["sweep"]] == [0, 1]
    err = capsys.readouterr().err
    assert "every x > 1 gives the row of x = 1" in err
    assert len(err) < 500


@pytest.fixture
def result_doc(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"snapshots": [
        {"clusters": [["a", "b"], ["c", "d"], ["e"]]},
        {"clusters": [["a", "b", "c", "d"], ["e"]]},
        {"clusters": [["a", "b"], ["c", "d"], ["e"]]},
    ]}))
    out = tmp_path / "result.json"
    assert main(["track", "--input", str(seq), "--history", "0",
                 "--output", str(out)]) == 0
    return out


def _break_history(doc):
    doc["history"] = "abc"


def _break_schema_type(doc):
    doc["schema"] = True


def _break_dc_type(doc):
    doc["snapshots"][0]["clusters"][0]["dc"] = "x"


def _break_last_labels(doc):
    # two clusters of the last snapshot share an id, dcs left as written
    last = doc["snapshots"][-1]["clusters"]
    last[1]["dc"] = last[0]["dc"]


def _break_last_injectivity(doc):
    # as above, with the dcs registry moved along
    t = len(doc["snapshots"]) - 1
    last = doc["snapshots"][t]["clusters"]
    old, new = last[1]["dc"], last[0]["dc"]
    last[1]["dc"] = new
    registry = {entry["id"]: entry["clusters"] for entry in doc["dcs"]}
    registry[old].remove([t, 1])
    registry[new].append([t, 1])


def _break_registry(doc):
    doc["dcs"][0]["clusters"].pop()


def _break_snapshot_count(doc):
    doc["snapshot_count"] += 1


def _break_members(doc):
    doc["snapshots"][0]["clusters"][0]["members"] = "ab"


def _break_registry_id_type(doc):
    # true == 1 and hashes alike, so only a type check tells them apart
    entry = next(e for e in doc["dcs"] if e["id"] == 1)
    entry["id"] = True


def _break_registry_coordinate_type(doc):
    # [0.0, 0] == [0, 0], and the ClusterRefs built from them are equal
    doc["dcs"][0]["clusters"][0][0] = 0.0


def _move_registry_ref(doc, old, new):
    """Replace the ref `old` in the dcs registry by `new`."""
    for entry in doc["dcs"]:
        if old in entry["clusters"]:
            entry["clusters"][entry["clusters"].index(old)] = new
            return
    raise AssertionError(f"{old} is not listed")


def _break_registry_negative_ref(doc):
    # a negative index counted from the end names the same cluster
    t = len(doc["snapshots"]) - 1
    a = len(doc["snapshots"][t]["clusters"]) - 1
    _move_registry_ref(doc, [t, a], [-1, -1])


def _break_registry_ref_past_last_snapshot(doc):
    _move_registry_ref(doc, [0, 0], [len(doc["snapshots"]), 0])


def _break_registry_stray_ref_twice(doc):
    doc["dcs"][0]["clusters"].append([9, 9])
    doc["dcs"][1]["clusters"].append([9, 9])


def _break_registry_empty_entry(doc):
    doc["dcs"].append({"id": 99999, "clusters": []})


def _break_registry_id_split(doc):
    # DC 1's cluster joins DC 0, and DC 1's entry is renamed to 0: the
    # refs add up, but two entries list one id
    doc["snapshots"][0]["clusters"][1]["dc"] = 0
    next(e for e in doc["dcs"] if e["id"] == 1)["id"] = 0


@pytest.mark.parametrize("command", ["events", "render"])
@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_history, "history must be an integer"),
        (_break_schema_type, "unsupported schema version True"),
        (_break_dc_type, "dc must be an integer"),
        (_break_last_labels, "dcs registry does not match"),
        (_break_last_injectivity, "share one dc id"),
        (_break_registry, "dcs registry does not match"),
        (_break_snapshot_count, "snapshot_count is 4"),
        (_break_members, "members must be an array"),
        (_break_registry_id_type, "dcs: id must be an integer, got True"),
        (_break_registry_coordinate_type,
         "dcs: snapshot index must be an integer, got 0.0"),
        (_break_registry_negative_ref, "dcs registry does not match"),
        (_break_registry_ref_past_last_snapshot, "dcs registry does not match"),
        (_break_registry_stray_ref_twice, "dcs: cluster (9, 9) is listed twice"),
        (_break_registry_empty_entry, "dcs registry does not match"),
        (_break_registry_id_split, "dcs registry does not match"),
    ],
)
def test_inconsistent_result_document_exits_2(
    result_doc, capsys, command, breaker, message
):
    assert main([command, "--result", str(result_doc)]) == 0
    capsys.readouterr()
    doc = json.loads(result_doc.read_text())
    breaker(doc)
    result_doc.write_text(json.dumps(doc))
    assert main([command, "--result", str(result_doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_earlier_snapshot_may_repeat_a_dc(result_doc, tmp_path):
    # a splinter absorbed into its group leaves one DC on two clusters of
    # an earlier snapshot; that is a valid document
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(FIG_SPLINTER))
    assert main(["track", "--input", str(seq), "--history", "3",
                 "--output", str(result_doc)]) == 0
    doc = json.loads(result_doc.read_text())
    dcs = [c["dc"] for c in doc["snapshots"][2]["clusters"]]
    assert len(set(dcs)) < len(dcs)
    assert main(["events", "--result", str(result_doc)]) == 0


def _event(kind, time, dc):
    return {"dc": dc, "delta": 0, "kind": kind, "related": [], "time": time}


@pytest.mark.parametrize(
    "clusters, events",
    [
        ([[], [["a"]]], [_event("birth", 1, 0)]),
        ([[["a"]], [], [["a"]]], [_event("death", 1, 0), _event("birth", 2, 1)]),
        ([[["a"]], []], [_event("death", 1, 0)]),
        ([[]], []),
    ],
)
def test_snapshots_without_clusters_run_through_every_command(
    tmp_path, clusters, events
):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"snapshots": [{"clusters": c} for c in clusters]}))
    expected = {"events": events, "schema": 1}
    for x in ("0", "1", "2"):
        result = tmp_path / f"result{x}.json"
        assert main(["track", "--input", str(seq), "--history", x,
                     "--output", str(result)]) == 0
        out = tmp_path / f"events{x}.json"
        assert main(["events", "--result", str(result), "--output", str(out)]) == 0
        assert json.loads(out.read_text()) == expected
    oracle = tmp_path / "oracle.json"
    assert main(["oracle", "--input", str(seq), "--history", "1",
                 "--output", str(oracle)]) == 0
    assert oracle.read_bytes() == (tmp_path / "result1.json").read_bytes()
    layout = tmp_path / "layout.json"
    assert main(["render", "--result", str(oracle), "--output",
                 str(tmp_path / "out.svg"), "--layout-json", str(layout)]) == 0
    blocks = json.loads(layout.read_text())["blocks"]
    assert [len(col) for col in blocks] == [len(c) for c in clusters]
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--input", str(seq), "--history-min", "0",
                 "--history-max", "2", "--output", str(sweep)]) == 0
    assert sweep.read_text().startswith(SWEEP_HEADER + "\n")


def test_the_cli_process_runs_without_the_cyclic_gc(monkeypatch):
    # run() turns the collector off before main(), which leaves it as is.
    # The exit handler is caught here: registered in this process it would
    # end the test run with run()'s exit code.
    seen, registered = [], []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    monkeypatch.setattr(cli.atexit, "register", lambda *a: registered.append(a))
    enabled = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as stop:
            cli.run()
    finally:
        if enabled:
            gc.enable()
    assert seen == [False] and stop.value.code == 0
    assert registered == [(cli._exit_now, 0)]


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    # What a CLI process leaves to a collector that never runs: after each
    # subcommand, with the collector off as run() sets it, a larger input
    # leaves no more unreachable objects than a small one.
    def unreachable(argv):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            assert not gc.isenabled()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    # "warm" runs each subcommand once first, so that no module import
    # falls inside the counts compared.
    found = {}
    for name, size in (("warm", (3, 20, 2)), ("small", (4, 40, 4)),
                       ("large", (8, 2000, 200))):
        path = tmp_path / name
        (tmp_path / f"{name}.json").write_bytes(
            sequence_bytes(churn_clusters(*size, seed=0))
        )
        found[name] = [
            unreachable(["track", "--input", f"{path}.json", "--history", "3",
                         "--output", f"{path}.doc"]),
            unreachable(["sweep", "--input", f"{path}.json", "--history-min",
                         "0", "--history-max", "3", "--output", f"{path}.csv"]),
            unreachable(["events", "--result", f"{path}.doc",
                         "--output", f"{path}.events"]),
            unreachable(["render", "--result", f"{path}.doc",
                         "--output", f"{path}.svg"]),
        ]
    assert all(n > 0 for n in found["small"]), found
    assert all(
        large <= small for large, small in zip(found["large"], found["small"])
    ), found

"""End-to-end CLI behaviour through in-process invocation."""

import json

import pytest

from dataclasses import asdict

from dynatrack import classify_events, clustering_from_labels, relations, tracking
from dynatrack.cli import SWEEP_HEADER, main
from dynatrack.resultdoc import load_document

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


def test_events_roundtrip(identity_input, tmp_path):
    result = tmp_path / "result.json"
    main(["track", "--input", str(identity_input), "--history", "1",
          "--output", str(result)])
    out = tmp_path / "events.json"
    code = main(["events", "--result", str(result), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc == {"schema": 1, "events": []}


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
def test_render_bad_geometry_exits_2(result_doc, tmp_path, capsys, option, message):
    svg = tmp_path / "diagram.svg"
    code = main(["render", "--result", str(result_doc), "--output", str(svg), option])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not svg.exists()


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
        (["track", "--history", "1", "--format", "csv", "--input"], b"\r0",
         "CSV line 1: new-line character"),
        # the first missing index is reported without counting up to 10**12
        (["track", "--history", "1", "--format", "csv", "--input"],
         b"t,member,cluster\n1000000000000,a,0\n", "missing t=0"),
        (["track", "--history", "1", "--format", "csv", "--input"],
         b"t,member,cluster\n0,a,1000000000000\n", "missing cluster=0"),
    ],
    ids=["events", "render", "generate", "csv-newline", "csv-time", "csv-cluster"],
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
    "argv, text",
    [
        (["track", "--history", "1", "--input"], '{"snapshots":' + DEEP + "}"),
        (["oracle", "--history", "1", "--input"], '{"snapshots":' + DEEP + "}"),
        (["sweep", "--history-min", "0", "--history-max", "1", "--input"],
         '{"snapshots":' + DEEP + "}"),
        (["events", "--result"], DEEP),
        (["render", "--result"], DEEP),
        (["generate", "--spec"], DEEP),
    ],
    ids=["track", "oracle", "sweep", "events", "render", "generate"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert err.count("\n") == 1


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

    builds = []
    index_sequence = relations.index_sequence

    def counted(seq):
        builds.append(seq)
        return index_sequence(seq)

    xs = []
    track = tracking.track

    def counted_track(seq, x, **kwargs):
        xs.append(x)
        return track(seq, x, **kwargs)

    monkeypatch.setattr(relations, "index_sequence", counted)
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
    assert len(builds) == 1
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
    assert len(builds) == 1 + x_max + 1
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

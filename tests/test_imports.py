"""What each CLI subcommand imports, and the package's lazy exports.

Each CLI process compiles every module it imports, so a subcommand should
load only the modules it runs. The guards below run `cli.main` in a fresh
interpreter and list the `dynatrack` modules it leaves in `sys.modules`;
a new top-level import on a start-up path fails here.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dynatrack
from dynatrack import cli
from dynatrack.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Standard-library modules that some subcommands should not load: each
# costs milliseconds of start-up. A well-formed command line is read
# without argparse, which would load `gettext` and `locale` for its
# messages and `textwrap` for its help.
WATCHED = (
    "dataclasses", "inspect", "statistics", "argparse", "gettext", "locale", "textwrap"
)

# Prints, as its last stdout line, which WATCHED modules are loaded.
WATCHED_PROBE = f"""
import json, sys
print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))
"""

# Runs `cli.main(argv)` and prints, as its last two stdout lines, the exit
# code with the loaded `dynatrack` modules, and the loaded WATCHED modules.
PROBE = """
import json, sys
from dynatrack.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "dynatrack")
print(json.dumps([code, loaded]))
""" + WATCHED_PROBE

BASE = {"dynatrack", "dynatrack.cli", "dynatrack.errors"}
# What tracking runs on: the parser, the member index and overlap kernel,
# the relation tables and the result record.
CORE = {"dynatrack.model", "dynatrack.kernel", "dynatrack.relations", "dynatrack.result"}
# The document reader needs the member index and the kernel, but not the
# parser, the relation tables, the tracker or the writer (`docwriter`).
READER = {"dynatrack.resultdoc", "dynatrack.kernel"}
# Each subcommand loads the module of its handler and what that runs; none
# loads the reference forms (`reference`), the CSV reader (`csvinput`,
# only for `--format csv`) or argparse's fallback (`usage`).
LOADED = {
    "version": BASE,
    "track": BASE | CORE | {"dynatrack.tracking", "dynatrack.docwriter"},
    "track-csv": BASE | CORE | {
        "dynatrack.tracking", "dynatrack.docwriter", "dynatrack.csvinput"},
    "sweep": BASE | CORE | {"dynatrack.metrics", "dynatrack.tracking"},
    "events": BASE | READER | {"dynatrack.events", "dynatrack.result"},
    "render": BASE | READER | {"dynatrack.alluvial"},
    "oracle": BASE | {
        "dynatrack.model", "dynatrack.kernel", "dynatrack.result", "dynatrack.oracle",
        "dynatrack.docwriter"},
    "generate": BASE | {"dynatrack.model", "dynatrack.kernel", "dynatrack.generator"},
    "help": BASE | {"dynatrack.usage"},
}

# The most AST nodes that the `dynatrack` modules of each subcommand's
# process may hold: each module is compiled from source on every run, at
# about 1 µs per node, so every node a command's closure gains is start-up
# time that each run of it pays.
COMPILE_BUDGET = {
    "version": 1_350,
    "track": 7_800,
    "sweep": 8_600,
    "events": 5_800,
    "render": 6_250,
    "oracle": 5_700,
    "generate": 5_850,
}


def fresh_python(code: str, *args: str) -> str:
    """Stdout of `python -c code args` with only this checkout on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    seq = tmp / "seq.json"
    seq.write_text(json.dumps({"snapshots": [
        {"clusters": [["a", "b"], ["c"]]},
        {"clusters": [["a", "b", "c"]]},
        {"clusters": [["a", "b"], ["c"]]},
    ]}))
    (tmp / "seq.csv").write_text("t,member,cluster\n0,a,0\n0,b,1\n1,a,0\n")
    (tmp / "spec.json").write_text(json.dumps({
        "snapshots": 3, "seed": 1, "dcs": [{"size": 4, "start": 0, "end": 2}]}))
    result = tmp / "result.json"
    assert main(["track", "--input", str(seq), "--history", "1",
                 "--output", str(result)]) == 0
    return tmp, seq, result


def argv_of(command: str, files) -> list[str]:
    tmp, seq, result = files
    out = str(tmp / f"{command}.out")
    return {
        "version": ["--version"],
        "help": ["track", "--help"],
        "track": ["track", "--input", str(seq), "--history", "1", "--output", out],
        "track-csv": ["track", "--input", str(tmp / "seq.csv"), "--format", "csv",
                      "--history", "1", "--output", out],
        "oracle": ["oracle", "--input", str(seq), "--history", "1", "--output", out],
        "generate": ["generate", "--spec", str(tmp / "spec.json"), "--output", out],
        "sweep": ["sweep", "--input", str(seq), "--history-min", "0",
                  "--history-max", "2", "--output", out],
        "events": ["events", "--result", str(result), "--output", out],
        "render": ["render", "--result", str(result), "--output", out],
    }[command]


@pytest.mark.parametrize("command", sorted(LOADED))
def test_subcommand_loads_only_the_modules_it_runs(command, files):
    code, loaded = json.loads(
        fresh_python(PROBE, *argv_of(command, files)).splitlines()[-2]
    )
    assert code == 0
    assert set(loaded) == LOADED[command]


def ast_nodes(module: str) -> int:
    """The AST nodes of the source of the `dynatrack` module `module`."""
    path = SRC.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("command", sorted(COMPILE_BUDGET))
def test_subcommand_compiles_within_its_budget(command):
    assert sum(map(ast_nodes, LOADED[command])) <= COMPILE_BUDGET[command]


def watched_modules(command: str, files) -> tuple[list[str], list[str]]:
    """The WATCHED modules that a bare interpreter loads, and those that
    the subcommand's process loads."""
    bare = json.loads(fresh_python(WATCHED_PROBE).splitlines()[-1])
    out = fresh_python(PROBE, *argv_of(command, files)).splitlines()
    code, _ = json.loads(out[-2])
    assert code == 0
    return bare, json.loads(out[-1])


@pytest.mark.parametrize("command", ["track", "sweep"])
def test_tracking_loads_statistics_only_if_a_bare_interpreter_does(command, files):
    bare, loaded = watched_modules(command, files)
    assert "statistics" not in loaded or "statistics" in bare


@pytest.mark.parametrize("command", ["version", "track", "sweep", "events", "render"])
@pytest.mark.parametrize(
    "module", ["dataclasses", "inspect", "argparse", "gettext", "locale", "textwrap"]
)
def test_subcommand_loads_module_only_if_a_bare_interpreter_does(
    command, module, files
):
    bare, loaded = watched_modules(command, files)
    assert module not in loaded or module in bare


def test_bare_import_loads_no_submodule():
    out = fresh_python(
        "import sys, dynatrack; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dynatrack'))"
    )
    assert out.strip() == "['dynatrack']"


EXPORTS = [n for n in dynatrack.__all__ if n not in ("__version__", "BACKEND")]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_submodule_object(name):
    value = getattr(dynatrack, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("dynatrack.")
    assert getattr(module, name) is value


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from dynatrack import *", namespace)
    assert set(dynatrack.__all__) <= set(namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(dynatrack, name)
    assert set(dynatrack.__all__) <= set(dir(dynatrack))
    assert dynatrack.__version__ == namespace["__version__"]
    assert namespace["BACKEND"] == "python"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dynatrack.no_such_name
    assert not hasattr(dynatrack, "no_such_name")
    with pytest.raises(ImportError):
        from dynatrack import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "name",
    [
        "tracing_path", "mapping_path", "is_bijective_match", "find_source_set",
        "IdentityFlowResult", "identity_flow", "_check_at",
    ],
)
def test_removed_tracker_walkers_are_gone(name):
    # `track(seq, x, trace=events)` gives each target's source set, flow
    # and marginals; the separate walkers were removed.
    with pytest.raises(AttributeError):
        getattr(dynatrack, name)
    assert not hasattr(importlib.import_module("dynatrack.tracking"), name)


@pytest.mark.parametrize(
    "name, module",
    [
        ("DcSeries", "metrics"),
        ("subsequence", "model"),
        ("sequence_to_json_dict", "model"),
    ],
)
def test_removed_registry_names_are_gone(name, module):
    # The label columns and `result.sizes` replace `DcSeries`; the prefix
    # helper that only tests called lives in their helpers; the JSON dict
    # of a sequence is built inside `sequence_to_json_bytes`.
    with pytest.raises(AttributeError):
        getattr(dynatrack, name)
    assert not hasattr(importlib.import_module(f"dynatrack.{module}"), name)


def test_readme_library_section_names_every_export():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):readme.index("\n## Tests\n")]
    missing = [
        name for name in dynatrack.__all__
        if name != "__version__" and not re.search(rf"\b{name}\b", library)
    ]
    assert missing == []


# Each name that left the module it is imported from, with its new home:
# the handlers and argparse's fallback left `cli`, the result record
# `metrics`, the fixture writer `model`, and the reference forms every
# module that a subcommand loads.
MOVED = [
    *[("cli", f"cmd_{name}", home) for name, (home, _, _) in cli.COMMANDS.items()],
    ("cli", "build_parser", "usage"),
    ("cli", "SWEEP_COLUMNS", "metrics"),
    ("cli", "SWEEP_HEADER", "metrics"),
    ("metrics", "DynamicClustering", "result"),
    ("metrics", "clustering_from_labels", "result"),
    ("metrics", "dc_sizes", "result"),
    ("metrics", "event_rows", "events"),
    ("metrics", "LifecycleEvent", "reference"),
    ("metrics", "classify_events", "reference"),
    ("metrics", "total_consistency", "reference"),
    ("events", "LifecycleEvent", "reference"),
    ("events", "classify_events", "reference"),
    ("model", "sequence_to_json_bytes", "generator"),
    ("resultdoc", "clustering_from_labels", "result"),
    ("resultdoc", "load_document", "reference"),
    ("resultdoc", "build_document", "reference"),
    ("resultdoc", "document_to_bytes", "reference"),
    ("resultdoc", "canonical_labels", "docwriter"),
    ("resultdoc", "document_chunks", "docwriter"),
    ("docwriter", "build_document", "reference"),
    ("docwriter", "document_to_bytes", "reference"),
    ("alluvial", "build_layout", "reference"),
    ("alluvial", "layout_to_svg", "reference"),
]


@pytest.mark.parametrize("old, name, new", MOVED)
def test_a_moved_name_imports_from_its_old_module(old, name, new):
    home = importlib.import_module(f"dynatrack.{new}")
    assert name in vars(home)  # defined there
    namespace: dict = {}
    exec(f"from dynatrack.{old} import {name}", namespace)
    assert namespace[name] is vars(home)[name]
    assert getattr(importlib.import_module(f"dynatrack.{old}"), name) is vars(home)[name]


@pytest.mark.parametrize("module", sorted({old for old, _, _ in MOVED}))
def test_unknown_name_of_a_module_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(f"dynatrack.{module}"), "no_such_name")


def test_the_reader_loads_no_writer_and_the_writer_no_reader():
    # `load_document` loads `model` only when it runs.
    probe = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("dynatrack."))
import dynatrack.{}
print(json.dumps(loaded()))
"""
    reader = json.loads(fresh_python(probe.format("resultdoc")))
    writer = json.loads(fresh_python(probe.format("docwriter")))
    assert reader == ["dynatrack.errors", "dynatrack.kernel", "dynatrack.resultdoc"]
    assert writer == ["dynatrack.docwriter"]

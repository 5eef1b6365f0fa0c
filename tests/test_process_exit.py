"""How the `dynatrack` process ends: exit codes and output bytes.

`cli.run` ends the process from an atexit handler, `_exit_now`, which
flushes stdout and stderr and calls `os._exit` instead of tearing the
interpreter down. The tests below run `python -m dynatrack` as a process
and compare its exit status, stdout and stderr with `cli.main` run in this
process, which ends the usual way.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynatrack import __version__, cli
from dynatrack.cli import main
from inputs import churn_clusters, sequence_bytes

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# More than a pipe buffer (64 KiB on Linux) of events JSON, so that the
# process blocks on its reader while it writes.
PIPE_BUFFER = 65536


def dynatrack(*args, python=(), env=ENV, **kwargs):
    """`python [python] -m dynatrack args` with only this checkout on the path."""
    return subprocess.run(
        [sys.executable, *python, "-m", "dynatrack", *args],
        env=env,
        capture_output=True,
        timeout=60,
        **kwargs,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("process")
    seq = tmp / "seq.json"
    seq.write_bytes(sequence_bytes(churn_clusters(16, 2000, 100, 0)))
    doc = tmp / "doc.json"
    assert main(["track", "--input", str(seq), "--history", "1",
                 "--output", str(doc)]) == 0
    events = tmp / "events.json"
    assert main(["events", "--result", str(doc), "--output", str(events)]) == 0
    return {"seq": str(seq), "doc": str(doc), "events": events.read_bytes()}


def in_process(argv, capsys):
    """Exit code and stderr bytes of `main(argv)` in this process."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr().err.encode()


def test_events_larger_than_a_pipe_buffer_reach_stdout(files):
    proc = dynatrack("events", "--result", files["doc"])
    assert len(files["events"]) > PIPE_BUFFER
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, files["events"], b"")


def test_sweep_keeps_its_stdout_and_stderr_lines(files, tmp_path, capsys):
    argv = ["sweep", "--input", files["seq"], "--history-min", "0",
            "--history-max", "20"]
    csv = tmp_path / "sweep.csv"
    code, err = in_process([*argv, "--output", str(csv)], capsys)
    proc = dynatrack(*argv)
    assert b"every x > 15 gives the row of x = 15" in err
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, csv.read_bytes(), err)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["track", "--bogus"], 2),
        (["track", "--input", "missing.json", "--history", "1"], 1),
        (["oracle", "--input", "SEQ", "--history", "1"], 2),
    ],
    ids=["usage-error", "missing-file", "oracle-too-large"],
)
def test_failures_keep_their_exit_code_and_message(files, capsys, argv, expected):
    argv = [files["seq"] if arg == "SEQ" else arg for arg in argv]
    code, err = in_process(argv, capsys)
    proc = dynatrack(*argv)
    assert code == expected and err.startswith((b"usage:", b"error:"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", err)


def test_version():
    proc = dynatrack("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"dynatrack {__version__}\n".encode(), b"")


@pytest.mark.parametrize("columns", ["10", "80"])
@pytest.mark.parametrize(
    "argv", [["--version"], ["--vers"], ["--version", "track"]],
    ids=["alone", "abbreviated", "before-a-command"],
)
def test_the_version_line_never_wraps(monkeypatch, capsys, argv, columns):
    # A lone `--version` is answered without argparse; the other two go
    # through argparse, whose own version action would wrap the line to
    # the terminal width.
    line = f"dynatrack {__version__}\n"
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr() == (line, "")
    proc = dynatrack(*argv, env=dict(ENV, COLUMNS=columns))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line.encode(), b"")


def test_a_profiler_around_the_cli_still_prints_its_stats(files, tmp_path):
    out = tmp_path / "events.json"
    proc = dynatrack("events", "--result", files["doc"], "--output", str(out),
                     python=("-m", "cProfile", "-s", "calls"))
    assert proc.returncode == 0, proc.stderr
    assert b"function calls" in proc.stdout and b"Ordered by: call count" in proc.stdout
    assert out.read_bytes() == files["events"]


@pytest.mark.parametrize(
    "argv",
    [
        ["events", "--result", "DOC"],
        # written in chunks, as they are made
        ["track", "--input", "SEQ", "--history", "1"],
        ["render", "--result", "DOC"],
    ],
    ids=["events", "track", "render"],
)
def test_a_reader_that_goes_away_gives_the_broken_pipe_error(files, argv):
    paths = {"SEQ": files["seq"], "DOC": files["doc"]}
    argv = [paths.get(arg, arg) for arg in argv]
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynatrack", *argv],
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_a_closed_stdout_fails_before_the_exit_handler(files):
    # With file descriptor 1 closed, `sys.stdout` is None and the write
    # raises AttributeError out of `main`, so no exit handler is registered.
    close_stdout = (
        "import os, sys; os.close(1); "
        "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
    )
    proc = dynatrack("events", "--result", files["doc"], python=("-c", close_stdout))
    assert proc.returncode == 1
    assert proc.stderr.endswith(
        b"AttributeError: 'NoneType' object has no attribute 'buffer'\n")


class TestExitNow:
    @pytest.fixture
    def exits(self, monkeypatch):
        codes = []
        monkeypatch.setattr(cli.os, "_exit", codes.append)
        return codes

    def test_flushes_both_streams_then_exits_with_the_code(self, monkeypatch, exits):
        flushed = []

        class Stream(io.StringIO):
            def flush(self):
                flushed.append(self)

        out, err = Stream(), Stream()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        cli._exit_now(2)
        assert flushed == [out, err] and exits == [2]

    def test_skips_a_missing_stream(self, monkeypatch, exits):
        monkeypatch.setattr(sys, "stdout", None)
        cli._exit_now(1)
        assert exits == [1]

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_a_failed_flush_leaves_the_exit_to_the_interpreter(
        self, monkeypatch, exits, error
    ):
        class Stream(io.StringIO):
            def flush(self):
                raise error("flush failed")

        monkeypatch.setattr(sys, "stdout", Stream())
        cli._exit_now(0)
        assert exits == []

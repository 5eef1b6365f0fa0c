"""Command-line interface.

Subcommands: track, sweep, events, render, generate, oracle. File-format
details live in the README; exit codes are 0 (success), 2 (bad input or
usage), 1 (anything else). This module reads a plain command line from
one option table (`COMMANDS`, `main`) and holds the helpers every
subcommand shares. Each subcommand's handler, `cmd_<name>`, lives in the
module of the work it runs, which `COMMANDS` names, and
argparse's reading of any other command line (`build_parser`) in `usage`:
a process loads, and compiles, only the handler it runs and the modules
that handler imports. Both stay importable from here.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace
from typing import Iterable

from . import __version__, _lazy
from .errors import DynatrackError


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _write(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write the chunks one after another to `path`, or to stdout when it
    is None or "-".

    The first chunk is taken before the file is opened: a writer that
    checks its input before its first chunk, and raises, leaves no file,
    and an existing one as it was.
    """
    chunks = iter(chunks)
    first = next(chunks, b"")
    if path is None or path == "-":
        sys.stdout.buffer.write(first)
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as f:
            f.write(first)
            f.writelines(chunks)


def _write_json(path: str, obj) -> None:
    """Write obj as compact, key-sorted JSON plus a newline."""
    import json

    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    _write(path, [(payload + "\n").encode("utf-8")])


def _load_input(args):
    from .model import parse_sequence

    return parse_sequence(_read(args.input), args.format)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# Each subcommand's home (the module that defines its handler `cmd_<name>`),
# help and options. An option is the keyword arguments of argparse's
# `add_argument` (type, default, required, choices, help) under its dest;
# its flag is "--" + dest, "_" written "-".
_INPUT = dict(input=dict(required=True, help="input sequence file"), format=dict(
    choices=("json", "csv"), default="json", help="input format (default: json)"))
_RESULT = dict(result=dict(required=True, help="document written by `track`"))
_DOC = dict(help="result document path (default: stdout)")
_X = dict(type=int, required=True)
COMMANDS = {
    "track": ("tracking", "detect dynamic clusters", dict(
        **_INPUT, history=dict(_X, help="history horizon (x >= 0)"), output=_DOC)),
    "oracle": ("oracle", "brute-force reference labelling (small inputs)",
               dict(**_INPUT, history=_X, output=_DOC)),
    "sweep": ("metrics", "scan a range of history values", dict(
        **_INPUT, history_min=_X, history_max=_X,
        output=dict(help="CSV path (default: stdout)"),
        json=dict(help="also write full records (incl. histograms) as JSON"))),
    "events": ("events", "life-cycle events of a tracking result",
               dict(**_RESULT, output=dict(help="events JSON path (default: stdout)"))),
    "render": ("alluvial", "alluvial SVG of a tracking result", dict(
        **_RESULT, output=dict(help="SVG path (default: stdout)"),
        layout_json=dict(help="also write the layout as JSON"),
        block_width=dict(type=float, default=20.0, help="block width in px (> 0)"),
        gap=dict(type=float, default=2.0, help="vertical gap between blocks (>= 0)"))),
    "generate": ("generator", "synthesise a scenario fixture", dict(
        spec=dict(required=True, help="scenario JSON path"),
        output=dict(help="sequence JSON path (default: stdout)"),
        labels=dict(help="ground-truth labels JSON path"))),
}

# The handlers, the argparse fallback and the sweep columns, each imported
# from its module on first use.
__getattr__ = _lazy(__name__, {
    **{f"cmd_{name}": home for name, (home, _help, _options) in COMMANDS.items()},
    "build_parser": "usage", "SWEEP_COLUMNS": "metrics", "SWEEP_HEADER": "metrics",
})


def _version() -> None:
    """Print the version line, never wrapped, and exit 0."""
    try:
        sys.stdout.write(f"dynatrack {__version__}\n")
    except (AttributeError, OSError):  # no stdout, as argparse allows
        pass
    sys.exit(0)


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """What argparse reads from `argv` if it is plain: a subcommand, then
    `--option value` pairs of distinct, exact options whose values do not
    start with "-", convert with their type and meet their choices, the
    required options among them. Else None, for argparse to read it."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][2]
    flags = {"--" + dest.replace("_", "-"): (dest, o) for dest, o in options.items()}
    values = {dest: option.get("default") for dest, option in options.items()}
    try:
        for flag, text in zip(argv[1::2], argv[2::2]):
            dest, option = flags.pop(flag)  # KeyError: unknown or repeated
            value = values[dest] = option.get("type", str)(text)
            if text.startswith("-") or value not in option.get("choices", [value]):
                return None
    except (KeyError, ValueError):
        return None
    missing = any(option.get("required") for _, option in flags.values())
    return None if missing else SimpleNamespace(command=argv[0], **values)


def main(argv: list[str] | None = None) -> int:
    """Run the command of `argv` (default: the process's arguments); only an
    argv that is neither a lone `--version` nor plain (`_plain`) builds argparse.
    The handler is looked up on this module, so it is imported only now."""
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--version"]:
        _version()
    args = _plain(argv)
    if args is None:
        from .usage import build_parser

        args = build_parser(argv).parse_args(argv)
    handler = getattr(sys.modules[__name__], f"cmd_{args.command}")
    try:
        return handler(args)
    except (OSError, DynatrackError) as exc:
        # Bad input is a ValueError (see `errors`).
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def run() -> None:
    """Entry point of the `dynatrack` process (console script and
    `python -m dynatrack`).

    The cyclic garbage collector is turned off for the process: the
    subcommands build millions of containers on large inputs, none of them
    cyclic garbage, and collections over them took a fifth to a half of
    each command's time on 400k clusters. The cycles a subcommand does
    leave (argparse's parser, if argv needs one) do not grow with the
    input. `main` leaves the collector as it finds it, for in-process
    callers.

    Once `main` returns, the process ends without interpreter teardown,
    which frees every module and object only for the process to exit: an
    atexit handler flushes stdout and stderr and calls `os._exit` with
    `main`'s exit code. It runs first among the atexit handlers, so those
    registered before it (such as coverage's subprocess hook) do not run.
    It is a handler rather than a direct `os._exit`, so that a wrapper that
    catches the `SystemExit` (`python -m cProfile -m dynatrack ...`) still
    finishes its own work. A `SystemExit` raised inside `main` (`--help`,
    `--version`, usage errors) ends the process the usual way.
    """
    gc.disable()
    code = main()
    atexit.register(_exit_now, code)
    raise SystemExit(code)


def _exit_now(code: int) -> None:
    """Flush stdout and stderr, then end the process with `code`.

    If a flush fails, return instead, so that the interpreter's own exit
    reports the failure and sets the exit status as it always does.
    """
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):
                return
    os._exit(code)

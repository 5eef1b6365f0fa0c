"""Command-line interface.

Subcommands: track, sweep, events, render, generate, oracle. File-format
details live in the README; exit codes are 0 (success), 2 (bad input or
usage), 1 (anything else). Each subcommand imports the modules it runs,
so that a process loads, and compiles, only those; a plain command line
is read without importing argparse (`main`).
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace
from typing import Iterable

from . import __version__
from .errors import DynatrackError

# The columns of a sweep CSV row: keys of that x's record, each with the
# format of its value (`_cell`).
SWEEP_COLUMNS = {
    "x": "", "dc_count": "", "mean_lifespan": "", "weighted_mean_lifespan": "",
    "consistency_all": ".6f", "consistency_resident": ".6f",
}
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)


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


def _labelled(args, labelling) -> int:
    """Write the result document of `labelling(seq, x)` on the input."""
    from .docwriter import document_chunks

    if args.history < 0:
        return _usage_error("--history must be non-negative")
    seq = _load_input(args)
    result = labelling(seq, args.history)
    _write(args.output, map(str.encode, document_chunks(result, __version__)))
    return 0


def cmd_track(args) -> int:
    from .tracking import track

    return _labelled(args, track)


def cmd_oracle(args) -> int:
    from .oracle import brute_force_track

    return _labelled(args, brute_force_track)


def _cell(value, spec: str) -> str:
    """`value` in the format `spec`; None is an empty cell."""
    return "" if value is None else format(value, spec)


def cmd_sweep(args) -> int:
    from .metrics import consistencies, summary_stats
    from .relations import RelationCache
    from .tracking import track

    if args.history_min < 0:
        return _usage_error("--history-min must be non-negative")
    if args.history_min > args.history_max:
        return _usage_error("--history-min must not exceed --history-max")
    seq = _load_input(args)
    rels = RelationCache(seq)
    records = []
    # The search depth of a target at snapshot t is min(t, x) <= T - 1, so
    # every x >= T - 1 gives the labels, and the numbers, of x = T - 1.
    # The rows stop at the first x where that holds.
    last = min(args.history_max, max(args.history_min, len(seq) - 1))
    for x in range(args.history_min, last + 1):
        result = track(seq, x, relations=rels)
        stats = summary_stats(result)
        cons_all, cons_res = consistencies(result)
        records.append(
            {
                "x": x,
                "dc_count": stats.dc_count,
                "lifespan_histogram": stats.lifespan_histogram,
                "mean_lifespan": stats.mean_lifespan,
                "weighted_mean_lifespan": stats.weighted_mean_lifespan,
                "consistency_all": cons_all,
                "consistency_resident": cons_res,
            }
        )
    rows = [
        ",".join(_cell(r[key], spec) for key, spec in SWEEP_COLUMNS.items())
        for r in records
    ]
    csv_text = SWEEP_HEADER + "\n" + "\n".join(rows) + "\n"
    _write(args.output, [csv_text.encode("utf-8")])
    if args.json:
        _write_json(args.json, {"schema": 1, "sweep": records})
    if args.history_max > last:
        print(
            f"every x > {last} gives the row of x = {last} "
            f"(the search depth is at most T - 1 = {len(seq) - 1})",
            file=sys.stderr,
        )
    for key in ("consistency_all", "consistency_resident"):
        defined = [r for r in records if r[key] is not None]
        if defined:
            best = max(r[key] for r in defined)
            xs = [str(r["x"]) for r in defined if r[key] == best]
            print(
                f"best {key}: {best:.6f} at x = {', '.join(xs)}",
                file=sys.stderr,
            )
    return 0


def cmd_events(args) -> int:
    from .metrics import dc_sizes, event_rows
    from .resultdoc import read_tables

    labels, sizes, tables, _x = read_tables(_read(args.result))
    rows = event_rows(labels, dc_sizes(labels, sizes), tables)
    # The compact, key-sorted JSON that `json.dumps` would write: every
    # field is an int or an ASCII kind word.
    events = ",".join(
        f'{{"dc":{dc},"delta":{delta},"kind":"{kind}",'
        f'"related":[{",".join(map(str, related))}],"time":{time}}}'
        for time, dc, kind, related, delta in rows
    )
    _write(args.output, [f'{{"events":[{events}],"schema":1}}\n'.encode()])
    return 0


def cmd_render(args) -> int:
    import math

    from .alluvial import layout_from_tables, layout_json_chunks, svg_chunks
    from .resultdoc import read_tables

    if not (math.isfinite(args.block_width) and args.block_width > 0):
        return _usage_error("--block-width must be a finite number > 0")
    if not (math.isfinite(args.gap) and args.gap >= 0):
        return _usage_error("--gap must be a finite number >= 0")
    labels, sizes, tables, _x = read_tables(_read(args.result))
    layout = layout_from_tables(labels, sizes, tables, args.gap)
    svg = svg_chunks(layout, block_width=args.block_width)
    try:
        _write(args.output, map(str.encode, svg))
    except OverflowError as exc:
        return _usage_error(f"--gap or --block-width too large: {exc}")
    if args.layout_json:
        _write(args.layout_json, map(str.encode, layout_json_chunks(layout)))
    return 0


def cmd_generate(args) -> int:
    from .generator import ScenarioSpec, generate
    from .model import sequence_to_json_bytes

    spec = ScenarioSpec.from_json(_read(args.spec))
    seq, truth = generate(spec)
    _write(args.output, [sequence_to_json_bytes(seq)])
    if args.labels:
        _write_json(args.labels, {"schema": 1, "ground_truth": truth})
    return 0


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# Each subcommand's handler, help and options. An option is the keyword
# arguments of argparse's `add_argument` (type, default, required, choices,
# help) under its dest; its flag is "--" + dest, "_" written "-".
_INPUT = dict(input=dict(required=True, help="input sequence file"), format=dict(
    choices=("json", "csv"), default="json", help="input format (default: json)"))
_RESULT = dict(result=dict(required=True, help="document written by `track`"))
_DOC = dict(help="result document path (default: stdout)")
_X = dict(type=int, required=True)
COMMANDS = {
    "track": (cmd_track, "detect dynamic clusters", dict(
        **_INPUT, history=dict(_X, help="history horizon (x >= 0)"), output=_DOC)),
    "oracle": (cmd_oracle, "brute-force reference labelling (small inputs)",
               dict(**_INPUT, history=_X, output=_DOC)),
    "sweep": (cmd_sweep, "scan a range of history values", dict(
        **_INPUT, history_min=_X, history_max=_X,
        output=dict(help="CSV path (default: stdout)"),
        json=dict(help="also write full records (incl. histograms) as JSON"))),
    "events": (cmd_events, "life-cycle events of a tracking result",
               dict(**_RESULT, output=dict(help="events JSON path (default: stdout)"))),
    "render": (cmd_render, "alluvial SVG of a tracking result", dict(
        **_RESULT, output=dict(help="SVG path (default: stdout)"),
        layout_json=dict(help="also write the layout as JSON"),
        block_width=dict(type=float, default=20.0, help="block width in px (> 0)"),
        gap=dict(type=float, default=2.0, help="vertical gap between blocks (>= 0)"))),
    "generate": (cmd_generate, "synthesise a scenario fixture", dict(
        spec=dict(required=True, help="scenario JSON path"),
        output=dict(help="sequence JSON path (default: stdout)"),
        labels=dict(help="ground-truth labels JSON path"))),
}


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
    func, _help, options = COMMANDS[argv[0]]
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
    return None if missing else SimpleNamespace(command=argv[0], func=func, **values)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`, with options only on the subcommand
    argv names: its first token without a leading "-" (none takes a value)."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser (subcommand parsers too) whose usage errors are
        one `error:` line, exit 2: line breaks in a message become spaces."""

        def error(self, message: str):
            self.exit(2, f"error: {' '.join(message.splitlines())}\n")

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            # argparse drops the value "--" of `--option=--` and stores an
            # empty list for an option that takes one value.
            for action in self._actions:
                value = getattr(namespace, action.dest, None)
                if action.nargs is None and isinstance(value, list):
                    name = "/".join(action.option_strings) or action.dest
                    self.error(f"argument {name}: expected one argument")
            return namespace, extras

    class _Version(argparse._VersionAction):
        __call__ = staticmethod(lambda *args: _version())  # never wrapped

    parser = _Parser(prog="dynatrack", description="Track dynamic clusters through "
        "a sequence of snapshot clusterings, classify their life-cycle events, "
        "score parametrisations, and render alluvial diagrams.")
    parser.add_argument("--version", action=_Version)
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)
    for name, (func, help, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for dest, option in options.items() if name == command else ():
            p.add_argument("--" + dest.replace("_", "-"), **option)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command of `argv` (default: the process's arguments); only an
    argv that is neither a lone `--version` nor plain (`_plain`) builds argparse."""
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--version"]:
        _version()
    args = _plain(argv) or build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
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

"""Command-line interface.

Subcommands: track, sweep, events, render, generate, oracle. File-format
details live in the README; exit codes are 0 (success), 2 (bad input or
usage), 1 (anything else).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from typing import Iterable

from . import __version__
from .errors import DynatrackError

# Each subcommand imports the modules it runs, so that a process loads,
# and compiles, only those: `--version` loads none of them, and `events`
# and `render` load the document reader but not the parser, the relation
# tables, the tracker or the writers (and `render` not the metrics).

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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one `error:` line, exit 2.

    The subcommand parsers are of this class too (argparse makes them of
    their parent's class). An unrecognised argument is quoted as given,
    so line breaks in the message become spaces.
    """

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse drops the value "--" of `--option=--` and stores an
        # empty list for an option that takes one value.
        for action in self._actions:
            if action.nargs is None and isinstance(
                getattr(namespace, action.dest, None), list
            ):
                name = "/".join(action.option_strings) or action.dest
                self.error(f"argument {name}: expected one argument")
        return namespace, extras


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`: it lists every subcommand, but adds arguments
    only to the one that argv names. No top-level option takes a value, so
    that is the first token that does not start with "-"."""
    parser = _Parser(
        prog="dynatrack",
        description=(
            "Track dynamic clusters through a sequence of snapshot "
            "clusterings, classify their life-cycle events, score "
            "parametrisations, and render alluvial diagrams."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)

    def add_parser(name, help, func):
        """The subparser of `name` if argv names it, else None."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p if name == command else None

    def add_input(p):
        p.add_argument("--input", required=True, help="input sequence file")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="input format (default: json)",
        )

    if p := add_parser("track", "detect dynamic clusters", cmd_track):
        add_input(p)
        p.add_argument(
            "--history", type=int, required=True, help="history horizon (x >= 0)"
        )
        p.add_argument("--output", help="result document path (default: stdout)")

    if p := add_parser(
        "oracle", "brute-force reference labelling (small inputs)", cmd_oracle
    ):
        add_input(p)
        p.add_argument("--history", type=int, required=True)
        p.add_argument("--output", help="result document path (default: stdout)")

    if p := add_parser("sweep", "scan a range of history values", cmd_sweep):
        add_input(p)
        p.add_argument("--history-min", type=int, required=True)
        p.add_argument("--history-max", type=int, required=True)
        p.add_argument("--output", help="CSV path (default: stdout)")
        p.add_argument(
            "--json", help="also write full records (incl. histograms) as JSON"
        )

    if p := add_parser("events", "life-cycle events of a tracking result", cmd_events):
        p.add_argument("--result", required=True, help="document written by `track`")
        p.add_argument("--output", help="events JSON path (default: stdout)")

    if p := add_parser("render", "alluvial SVG of a tracking result", cmd_render):
        p.add_argument("--result", required=True, help="document written by `track`")
        p.add_argument("--output", help="SVG path (default: stdout)")
        p.add_argument("--layout-json", help="also write the layout as JSON")
        p.add_argument(
            "--block-width", type=float, default=20.0, help="block width in px (> 0)"
        )
        p.add_argument(
            "--gap", type=float, default=2.0, help="vertical gap between blocks (>= 0)"
        )

    if p := add_parser("generate", "synthesise a scenario fixture", cmd_generate):
        p.add_argument("--spec", required=True, help="scenario JSON path")
        p.add_argument("--output", help="sequence JSON path (default: stdout)")
        p.add_argument("--labels", help="ground-truth labels JSON path")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
    leave (argparse's parser, about 200 objects) do not grow with the
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

"""argparse's reading of a command line that `cli` does not read itself.

`cli.main` reads a plain command line from `cli.COMMANDS`; any other one
(help, abbreviations, `--option=value`, repeats and usage errors) goes to
the parser that `build_parser` builds from the same table. Only such a
command line loads this module, and with it argparse.
"""

from __future__ import annotations

import argparse

from .cli import COMMANDS, _version

__all__ = ["build_parser"]


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


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`, with options only on the subcommand
    argv names: its first token without a leading "-" (none takes a value)."""
    parser = _Parser(prog="dynatrack", description="Track dynamic clusters through "
        "a sequence of snapshot clusterings, classify their life-cycle events, "
        "score parametrisations, and render alluvial diagrams.")
    parser.add_argument("--version", action=_Version)
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((a for a in argv if not a.startswith("-")), None)
    for name, (_home, help, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for dest, option in options.items() if name == command else ():
            p.add_argument("--" + dest.replace("_", "-"), **option)
    return parser

"""Command-line surface.

Subcommands: eval, sweep, fit, shape, compare, simulate.  Each prints
CSV on stdout, or JSON with --json, except sweep, which writes CSV to
--out (- for stdout) and optionally an SVG chart.  Exit codes: 0 success,
2 usage error, 3 data error, 4 internal consistency failure, 130
interrupted (Ctrl-C).  Output that stdout cannot take is lost, code 3
with one error line on stderr: stdout on a full device, or closed
(descriptor 1 closed at start).  A stdout whose reader has gone
(servelab ... | head) is code 0, with nothing on stderr.  A stderr that
is closed, full or unread loses only its own lines.  PYTHONUNBUFFERED
changes none of these codes.
"""

from __future__ import annotations

import atexit
import os
import sys
import warnings
from importlib import import_module
from types import SimpleNamespace

# This module holds the subcommand table (_COMMANDS), the two parsers that
# read it and the exit codes.  main imports the one handler module that
# runs the command (_cli_game, _cli_sweep or _cli_stats), which imports
# the library modules it runs.  Without a bytecode cache a process compiles
# every module it imports, so the rule is: a command compiles only its
# family's module, and a new subcommand gets a module of its own.  A
# handler imports _cli_shared, never this module, which runs as __main__
# under `python -m servelab.cli`.  argparse is imported only by
# build_parser and by a refused value: a plain argv never loads it, and
# argparse words every refusal and every help, which _write prints.
from . import mc_backend  # read by perfbench's setup_s alone (ROADMAP item 1, slice B)
from ._cli_shared import _UsageError, _say, _write
from .errors import ConsistencyError, RangeError, ServelabError, _clipped, _int_text, _shown
from .types import CUTOFFS, ORDERS, RuleKind

__all__ = ["main", "entrypoint"]

_MESSAGE_MAX = 250  # longest refusal printed whole


def _within(parse, lo, hi):
    """The type of a numeric flag, which states its range where it is
    declared: text read by parse (float, or errors._int_text for a decimal
    integer) and refused outside [lo, hi] with argparse's
    ArgumentTypeError, which only a refusal imports."""
    noun = "a number" if parse is float else "an integer"

    def check(text: str):
        try:
            v = parse(text)
        except RangeError as exc:  # a well-formed integer too long for int()
            message = str(exc)
        except ValueError:
            message = f"not {noun}: {_shown(text)}"
        else:
            if lo <= v <= hi:
                return v
            message = f"must lie in [{lo}, {hi}], got {v}"
        import argparse

        raise argparse.ArgumentTypeError(message)

    return check


_prob = _within(float, 0, 1)
_cutoff = _within(_int_text, CUTOFFS[0], CUTOFFS[-1])
_CUTOFF_HELP = f"single-serve cutoff for game C, {CUTOFFS[0]}..{CUTOFFS[-1]} (default 3)"
_MAX_SIM_GAMES = 10**8  # about a minute of simulate at 1.5-1.8M games/s on two CPUs

# The subcommand table, which both parsers read: subcommand -> (its help
# line, the module whose cmd_<subcommand> runs it, its arguments in
# declaration order: add_argument's keywords by option string, or by name
# for the positional).  eval and simulate share the game flags, and every
# subcommand but sweep (it writes CSV to --out, never JSON) ends in --json.
_GAME = {
    "--game": dict(required=True, choices=[k.value for k in RuleKind]),
    "--p": dict(type=_prob, help="per-point chance for A/T games"),
    "--pf": dict(type=_prob, help="full-serve chance for Bj/B/C games"),
    "--ps": dict(type=_prob, help="single-serve / receiving chance"),
    "--x": dict(type=_cutoff, help=_CUTOFF_HELP),
    "--order": dict(type=_within(_int_text, ORDERS[0], ORDERS[-1]),
                    help=f"serve order variant for Bj/B, {ORDERS[0]} or {ORDERS[-1]} (default 1)"),
}
_JSON = {"--json": dict(action="store_true", default=False)}
_COMMANDS = {
    "eval": ("closed-form and engine metrics for one game", "_cli_game", {**_GAME, **_JSON}),
    "sweep": ("metric curves over a probability grid", "_cli_sweep", {
        "--games": dict(required=True, help="comma list, e.g. A,T"),
        "--var": dict(choices=("p", "p_F"), default="p"),
        "--start": dict(type=_prob, required=True),
        "--stop": dict(type=_prob, required=True),
        "--step": dict(type=_prob, required=True),
        "--delta": dict(type=_within(float, 0, 0.5),
                        help="offset in p_S = 1 - p_F + delta (p_F sweeps)"),
        "--out": dict(required=True, help="output CSV path, - for stdout"),
        "--svg": dict(help="optional SVG chart path")}),
    "fit": ("model residuals for a stats table", "_cli_stats", {"csv": {}, **_JSON}),
    "shape": ("solve the single-serve cutoff", "_cli_stats", {
        "csv": {},
        "--low": dict(required=True, help="weaker player: rank or exact name"),
        "--high": dict(required=True, help="stronger player: rank or exact name"),
        **_JSON}),
    "compare": ("existing-vs-proposed table for a stats file", "_cli_stats",
                {"csv": {}, "--x": dict(type=_cutoff, default=3, help=_CUTOFF_HELP), **_JSON}),
    "simulate": ("Monte Carlo check against the engine", "_cli_game", {
        **_GAME,
        "--n": dict(type=_within(_int_text, 1, _MAX_SIM_GAMES), default=10_000,
                    help=f"games to play, at most {_MAX_SIM_GAMES}"),
        "--seed": dict(type=_within(_int_text, 0, 2**64 - 1), default=0),
        **_JSON}),
}


def build_parser():
    """The servelab argparse parser, each subcommand declared from _COMMANDS."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # route argparse failures to exit code 2
            raise _UsageError(message)

        def _print_message(self, message, file=None):  # help, the only text argparse prints
            _write([message])

    parser = _Parser(prog="servelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_line, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kw in arguments.items():
            p.add_argument(flag, **kw)
    return parser


def _plain_args(command: str, tokens):
    """The namespace argparse would make of [command, *tokens], when every
    token is plain: one of command's option strings, as written, then its
    value unless it is a store_true flag, or command's positional.  A value
    or positional that starts with "-" (other than "-" itself) is not
    plain.  None for any other argv, and for one argparse would refuse (a
    value its type or choices refuse, a required argument missing): --help,
    an abbreviation, --flag=value, "--" and every refusal stay argparse's."""
    declared = _COMMANDS[command][2]
    positionals = [flag for flag in declared if not flag.startswith("-")]
    missing = {flag for flag, kw in declared.items() if kw.get("required")} | set(positionals)
    values = {flag: kw.get("default") for flag, kw in declared.items() if flag.startswith("-")}
    tokens = iter(tokens)
    for token in tokens:
        kw = declared.get(token) if token.startswith("-") else None
        if kw is None:  # the positional, given once
            if not positionals or (token.startswith("-") and token != "-"):
                return None
            flag, value = positionals.pop(), token
        elif kw.get("action") == "store_true":
            flag, value = token, True
        else:
            flag, value = token, next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"):
                return None
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except Exception:  # argparse calls the type again and refuses or raises
                    return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        values[flag] = value
        missing.discard(flag)
    if missing:
        return None
    return SimpleNamespace(command=command,
                           **{f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


def main(argv=None) -> int:
    """Run one subcommand; the exit code says how it ended (0, 2, 3 or 4).
    A refusal is one line on stderr, its message cut to its ends and its
    length when longer than _MESSAGE_MAX characters.  A stdout whose
    reader has gone is code 0, and main() leaves the caller's descriptors
    as they are."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        # a plain argv is parsed without argparse, which parses the rest
        args = ((argv and argv[0] in _COMMANDS and _plain_args(argv[0], argv[1:]))
                or build_parser().parse_args(argv))
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        module = import_module(f".{_COMMANDS[args.command][1]}", __package__)
        with warnings.catch_warnings():
            # every warning (a duplicate rank, a skipped grid point) is one
            # line on stderr, whatever -W or PYTHONWARNINGS asks
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_, **__: _say(f"warning: {message}")
            getattr(module, f"cmd_{args.command}")(args)
    except SystemExit as exc:  # --help, or stdout's reader has gone
        return 0 if exc.code in (0, None) else int(exc.code)
    except _UsageError as exc:
        code, prefix, message = 2, "usage error", str(exc)
    except ConsistencyError as exc:
        code, prefix, message = 4, "error", str(exc)
    except (ServelabError, OSError) as exc:  # an OSError may name a path of any length
        code, prefix, message = 3, "error", str(exc)
    else:
        return 0
    _say(f"{prefix}: {_clipped(message, _MESSAGE_MAX, 'message')}")
    return code


def entrypoint() -> None:
    """Run main() as the servelab command, and end the process with its code.

    The process leaves through os._exit once the exit handlers have run
    (simulate's reaps its shard workers), so it skips the interpreter's
    teardown: a last garbage collection and the clearing of every loaded
    module, 6-8 ms of a command.  That loses nothing: every file a command
    writes is closed before main() returns, the CLI starts no thread, and
    _write and _say flush all they print.  An interrupt (Ctrl-C,
    KeyboardInterrupt) ends the same way: the exit handlers run, the line
    "interrupted" goes to stderr, and the code is 130, the shell's 128 +
    SIGINT.
    """
    interrupted = False
    try:
        code = main()
    except KeyboardInterrupt:
        code, interrupted = 130, True
    atexit._run_exitfuncs()  # the call the interpreter's own shutdown makes
    if interrupted:
        _say("interrupted")
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

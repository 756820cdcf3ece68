"""What more than one of the servelab command's modules uses: the refusals
main() maps to exit codes, which the parser (cli.py) and every handler
module raise or catch, and the output helpers the handler modules share.
A name only one module reads lives beside its reader.

A handler module imports this module, never servelab.cli.  Under
`python -m servelab.cli` that module runs as __main__, so importing it by
name would compile it a second time and define a second copy of each of
its classes, which main() would not catch.
"""

from __future__ import annotations

import sys
from itertools import islice

_METRIC_ORDER = ("win_prob", "bp_prob", "expected_points", "expected_bps")
# CSV lines joined into one write: a 100,000-row table's output is not held
# whole, and a write is a syscall under PYTHONUNBUFFERED=1, so not one a line
_CHUNK_LINES = 4096


class _UsageError(Exception):
    pass


class _StdoutClosed(Exception):
    """stdout's reader went away (`servelab ... | head`)."""


def _fmt(v, spec: str = ".6f") -> str:
    return "" if v is None else format(v, spec)


def _defined(metrics) -> list:
    """(name, value) for each metric the game defines, in _METRIC_ORDER."""
    return [(n, getattr(metrics, n)) for n in _METRIC_ORDER if getattr(metrics, n) is not None]


def _write_stdout(text: str, doc=None) -> None:
    """Write text to stdout, after doc as indented JSON unless doc is None,
    and flush it, so a closed pipe shows here.  The JSON is written as it is
    encoded, so no copy of the whole document is held."""
    try:
        if doc is not None:
            import json

            json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _StdoutClosed from None


def _emit(args, doc, lines) -> None:
    """Print a command's result: `doc` as JSON under --json, else its CSV
    lines (an iterable of str), joined and written _CHUNK_LINES at a time."""
    if args.json:
        _write_stdout("\n", doc)
        return
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        _write_stdout("\n".join(chunk) + "\n")

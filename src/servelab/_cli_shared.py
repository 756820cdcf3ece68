"""What the servelab command's parser (cli.py) and its handler modules
share: the refusals main() maps to exit codes, the output helpers, and the
limits the commands keep.

A handler module imports this module, never servelab.cli.  Under
`python -m servelab.cli` that module runs as __main__, so importing it by
name would compile it a second time and define a second copy of each of
its classes, which main() would not catch.
"""

from __future__ import annotations

import sys
from itertools import islice

_METRIC_ORDER = ("win_prob", "bp_prob", "expected_points", "expected_bps")
_MAX_SWEEP_POINTS = 100_001  # step 1e-5 over [0, 1]
_MAX_SIM_GAMES = 10**8  # about a minute of simulate at 1.5-1.8M games/s on two CPUs
# draws simulate may expect to make (--n times the expected points per game):
# about 1.5 minutes at the 10-11M draws/s two CPUs play, and above every --n
# for a game of at most 10 expected points (6.75 at p = 0.5)
_MAX_SIM_DRAWS = 10**9
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

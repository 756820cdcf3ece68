"""What more than one of the servelab command's modules uses: the refusals
main() maps to exit codes, which the parser (cli.py) and every handler
module raise or catch, and the two writers of every byte the command
prints, _write on stdout and _say on stderr.  A name only one module reads
lives beside its reader.

A handler module imports this module, never servelab.cli.  Under
`python -m servelab.cli` that module runs as __main__, so importing it by
name would compile it a second time and define a second copy of each of
its classes, which main() would not catch.
"""

from __future__ import annotations

import errno
import sys
from itertools import chain, islice

_METRIC_ORDER = ("win_prob", "bp_prob", "expected_points", "expected_bps")
# text pieces (CSV lines, JSON encoder chunks) joined into one write: a
# 100,000-row table's output is not held whole, and a write is a syscall
# under PYTHONUNBUFFERED=1, so not one a piece
_CHUNK_PIECES = 4096


class _UsageError(Exception):
    pass


def _fmt(v, spec: str = ".6f") -> str:
    return "" if v is None else format(v, spec)


def _defined(metrics) -> list:
    """(name, value) for each metric the game defines, in _METRIC_ORDER."""
    return [(n, getattr(metrics, n)) for n in _METRIC_ORDER if getattr(metrics, n) is not None]


def _write(pieces) -> None:
    """Write the text pieces to stdout, _CHUNK_PIECES of them joined into
    each write, and flush, so every failure shows here, buffered or not.
    A reader that has gone ends the command as --help does (SystemExit 0,
    code 0); any other failure, a closed descriptor 1 among them, is the
    OSError of lost output (code 3)."""
    out = sys.stdout
    try:
        if out is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
        pieces = iter(pieces)
        while chunk := list(islice(pieces, _CHUNK_PIECES)):
            out.write("".join(chunk))
        out.flush()
    except BrokenPipeError:  # the reader ended the read on purpose
        raise SystemExit(0) from None


def _say(line: str) -> None:
    """Print line on stderr, flushed.  A closed stderr loses this line
    alone: the command goes on, to the code it has with stderr open."""
    try:
        if sys.stderr is not None:  # None when started with descriptor 2 closed
            print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def _emit(args, doc, lines) -> None:
    """Print a command's result: `doc` as indented JSON under --json, else
    its CSV lines (an iterable of str)."""
    if args.json:
        import json

        _write(chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"]))
    else:
        _write(f"{line}\n" for line in lines)

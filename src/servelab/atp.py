"""ATP-style service statistics: parsing, the blended point-win
probability, and model-fit residuals."""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, RangeError, _int_text, _shown
from .formulas import p_win_T

__all__ = [
    "PlayerStats",
    "FitRow",
    "FitSummary",
    "parse_stats",
    "p_emp",
    "fit_report",
    "load_sample",
    "sample_path",
]


class PlayerStats(NamedTuple):
    """One player row: observed service rates, two-decimal precision at
    the source.

    p_f_in: first serve in; p_f_won: point won behind the first serve;
    p_s_won: point won behind the second serve; p_t_won: service games
    won.
    """

    rank: int
    name: str
    p_f_in: float
    p_f_won: float
    p_s_won: float
    p_t_won: float


_HEADER = PlayerStats._fields  # a stats file's columns, in order
_RATE_FIELDS = _HEADER[2:]
# Largest stats source read, in bytes: 4 MiB, about 100,000 rows, 50 times
# a table of every ranked ATP player.  A command holds 16-31 times its
# table in memory, under --json too: a 4 MiB table of 98,057 rows took
# `shape` 67 MB, `fit` 84 MB and `compare` 130 MB (the process's VmHWM,
# 0.4-2.9 s), and under --json `fit` 89 MB and `compare` 116 MB (1.4-3.6 s).
_MAX_SOURCE_BYTES = 4 * 2**20


class FitRow(NamedTuple):
    stats: PlayerStats
    p_emp: float
    predicted: float  # model game-win chance at p_emp
    residual: float  # observed p_t_won minus predicted


class FitSummary(NamedTuple):
    max_abs_residual: float
    mean_residual: float
    nonpositive_count: int  # how many residuals are <= 0
    n_rows: int


def _rows_with_line_numbers(source):
    # one byte past the bound is read, so a larger source is refused before
    # it is decoded or parsed; an open text file's read counts characters,
    # each at least one byte
    try:
        if hasattr(source, "read"):
            data = source.read(_MAX_SOURCE_BYTES + 1)
        else:
            with open(source, "rb") as f:
                data = f.read(_MAX_SOURCE_BYTES + 1)
        if len(data) > _MAX_SOURCE_BYTES:
            raise ParseError(f"stats file is larger than {_MAX_SOURCE_BYTES:,} bytes")
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"stats file is not UTF-8 text ({exc.reason})") from None
    # spreadsheet exports often start with a byte-order mark
    text = text.removeprefix("\ufeff")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def parse_stats(source) -> list[PlayerStats]:
    """Read a stats table from a path or an open text file.

    Expected layout: '#' comment lines, then the header
    rank,name,p_f_in,p_f_won,p_s_won,p_t_won, then one CSV row per
    player with rates as decimals in [0,1] (0.62, never 62).  A leading
    UTF-8 byte-order mark is ignored.

    A source is read to at most _MAX_SOURCE_BYTES (4 MiB) plus one byte,
    or from an open text file that many characters, and one that holds
    more, /dev/zero among them, is refused with a ParseError naming the
    bound before anything is parsed.
    """
    rows: list[PlayerStats] = []
    seen_header = False
    seen_ranks: set[int] = set()
    for line_no, line in _rows_with_line_numbers(source):
        try:
            fields = next(csv.reader([line]))
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ParseError(str(exc), line_no) from None
        fields = [f.strip() for f in fields]
        if not seen_header:
            if tuple(f.lower() for f in fields) != _HEADER:
                raise ParseError(
                    f"expected header {','.join(_HEADER)}, got {_shown(line)}", line_no
                )
            seen_header = True
            continue
        if len(fields) != len(_HEADER):
            raise ParseError(f"expected {len(_HEADER)} fields, got {len(fields)}", line_no)
        try:
            rank = _int_text(fields[0])
        except RangeError as exc:  # well-formed, but too long for int()
            raise ParseError(f"rank {exc}", line_no)
        except ValueError:
            raise ParseError(f"rank must be an integer, got {_shown(fields[0])}", line_no)
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {_shown(rank)}", line_no)
        name = fields[1]
        rates = {}
        for key, text_value in zip(_RATE_FIELDS, fields[2:]):
            try:
                value = float(text_value)
            except ValueError:
                raise ParseError(f"{key} must be a decimal, got {_shown(text_value)}", line_no)
            if not (0.0 <= value <= 1.0):
                raise RangeError(
                    f"line {line_no}: {key} must lie in [0, 1], got {value} "
                    "(rates are decimals, not percentages)"
                )
            rates[key] = value
        if rank in seen_ranks:
            warnings.warn(f"duplicate rank {_shown(rank)} in stats table (line {line_no})")
        seen_ranks.add(rank)
        rows.append(PlayerStats(rank=rank, name=name, **rates))
    if not seen_header:
        raise ParseError("no header line found")
    return rows


def p_emp(stats: PlayerStats) -> float:
    """Blended single-number point-win chance behind the serve.

    First-serve points land with frequency p_f_in and are won at
    p_f_won; the rest fall to the second serve and are won at p_s_won.
    """
    return stats.p_f_in * stats.p_f_won + (1.0 - stats.p_f_in) * stats.p_s_won


def fit_report(rows: list[PlayerStats]) -> tuple[list[FitRow], FitSummary]:
    """Per-player model residuals plus a small summary.

    For each row the game-win chance predicted at the blended point
    probability is compared against the observed service-games-won
    rate; residual = observed - predicted.
    """
    if not rows:
        raise RangeError("fit_report needs at least one row")
    fit_rows = []
    for stats in rows:
        p = p_emp(stats)
        predicted = p_win_T(p)
        fit_rows.append(
            FitRow(
                stats=stats,
                p_emp=p,
                predicted=predicted,
                residual=stats.p_t_won - predicted,
            )
        )
    residuals = [r.residual for r in fit_rows]
    summary = FitSummary(
        max_abs_residual=max(abs(r) for r in residuals),
        mean_residual=sum(residuals) / len(residuals),
        nonpositive_count=sum(1 for r in residuals if r <= 0.0),
        n_rows=len(fit_rows),
    )
    return fit_rows, summary


def sample_path() -> Path:
    """Filesystem path of the bundled sample table."""
    return Path(__file__).parent / "data" / "atp_sample.csv"


def load_sample() -> list[PlayerStats]:
    """Parse the bundled sample table."""
    return parse_stats(sample_path())

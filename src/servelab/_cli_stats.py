"""The fit, shape and compare subcommands, which read a stats table."""

from __future__ import annotations

from itertools import chain

from ._cli_shared import _UsageError, _emit, _fmt
from .errors import ServelabError, _shown


def _stats_rows(path: str):
    from .atp import parse_stats

    rows = parse_stats(path)
    if not rows:
        raise _UsageError("stats file has no data rows")
    return rows


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with each inner quote doubled, when
    it holds a comma or a quote, as parse_stats reads it."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _JsonRows(list):
    """A JSON array of make(item) for each item, each made as the encoder
    reaches it, so no list of row dicts is held.  iterencode's encoder
    (pure Python) tests a list for emptiness with len(), then iterates it."""

    def __init__(self, make, items):
        self._make, self._items = make, items

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return map(self._make, self._items)


def cmd_fit(args) -> None:
    from .atp import fit_report

    fit_rows, summary = fit_report(_stats_rows(args.csv))
    # a table may hold 100,000 rows, so each JSON row and CSV line is built
    # as it is written, and only for the output asked for
    rows = _JsonRows(lambda r: {"rank": r.stats.rank, "name": r.stats.name, "p_emp": r.p_emp,
                                "predicted": r.predicted, "observed": r.stats.p_t_won,
                                "residual": r.residual}, fit_rows)
    _emit(args, {"rows": rows, "summary": summary._asdict()}, chain(
        ["rank,name,p_emp,predicted,observed,residual"],
        (f"{r.stats.rank},{_csv_field(r.stats.name)},{_fmt(r.p_emp)},{_fmt(r.predicted)},"
         f"{_fmt(r.stats.p_t_won)},{r.residual:+.6f}" for r in fit_rows),
        [f"# rows {summary.n_rows}",
         f"# max_abs_residual {summary.max_abs_residual:.6f}",
         f"# mean_residual {summary.mean_residual:+.6f}",
         f"# nonpositive_residuals {summary.nonpositive_count} of {summary.n_rows}"],
    ))


def _find_player(rows, selector: str):
    try:
        rank = int(selector)
    except ValueError:
        rank = None
    for stats in rows:
        if rank is not None and stats.rank == rank:
            return stats
        if rank is None and stats.name.casefold() == selector.casefold():
            return stats
    raise ServelabError(f"no player matching {_shown(selector)} in the stats file")


def cmd_shape(args) -> None:
    from .shaping import recommend_cutoff

    rows = _stats_rows(args.csv)
    low = _find_player(rows, args.low)
    high = _find_player(rows, args.high)
    sol = recommend_cutoff(low, high)
    lines = [
        f"p_trad,{_fmt(sol.p_trad)}",
        f"p_exc,{_fmt(sol.p_exc)}",
        f"x_low,{sol.x_low:.2f}",
        f"x_high,{sol.x_high:.2f}",
        f"x_recommended,{sol.x_recommended}",
    ]
    if sol.warning:
        lines.append(f"# warning: {sol.warning}")
    _emit(args, {"low": low.name, "high": high.name, **sol._asdict()}, lines)


def cmd_compare(args) -> None:
    from .shaping import CompareRow, compare_table

    table = compare_table(_stats_rows(args.csv), args.x)
    # a table may hold 100,000 rows, so each JSON row and CSV line is built
    # as it is written, and only for the output asked for
    _emit(args, {"x": args.x, "rows": _JsonRows(CompareRow._asdict, table)}, chain(
        [",".join(CompareRow._fields)],
        (f"{r.rank}," + ",".join(_fmt(v) for v in r[1:]) for r in table),
        ["# 3-decimal view"],
        (f"# {r.rank}," + ",".join(_fmt(v, ".3f") for v in r[1:]) for r in table),
    ))

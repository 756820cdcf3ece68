"""The sweep subcommand: metric curves over a probability grid, written as
CSV and, optionally, an SVG chart."""

from __future__ import annotations

import os
import stat
import warnings

from ._cli_shared import _UsageError, _defined, _fmt, _write
from .errors import ServelabError, _shown
from .types import RuleKind, ServeProfile, schedule_for

_MAX_SWEEP_POINTS = 100_001  # step 1e-5 over [0, 1]


def _sweep_grid(args) -> list[float]:
    """The values sweep's variable runs over, after checking the grid flags.

    With --var p both profile entries equal the grid value; with --var p_F
    the grid value is p_F and p_S = 1 - p_F + delta.
    """
    start, stop, step, delta = args.start, args.stop, args.step, args.delta
    if delta is not None and args.var != "p_F":
        raise _UsageError("--delta only applies to --var p_F")
    if not start < stop:
        raise _UsageError(f"start must be < stop, got {start} >= {stop}")
    if not (0.0 < step <= stop - start + 1e-9):
        raise _UsageError(f"step must lie in (0, stop - start], got {step}")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_SWEEP_POINTS:
        raise _UsageError(f"step {step} gives more than {_MAX_SWEEP_POINTS} grid points")
    return [min(start + i * step, stop) for i in range(int(steps) + 1)]


def _write_files(files: list[tuple[str, str | None, str]], stdout_text: str | None) -> None:
    """Write each (path, newline, text) file, and stdout_text to stdout
    when given, or none of the files.

    Every file is opened before anything is written, to append, which
    truncates nothing; then stdout takes its text.  If a file fails to
    open, or stdout fails to take its text (a reader that has gone among
    the failures), those opened are closed, and those this call created
    removed, before the error goes on.  Only then is each file's contents
    replaced by its text; a pipe or device, which cannot be truncated,
    just takes the text.
    """
    handles, created = [], []
    try:
        for path, newline, _ in files:
            existed = os.path.lexists(path)
            handles.append(open(path, "a", encoding="utf-8", newline=newline))
            if not existed:
                created.append(path)
        if stdout_text is not None:
            _write([stdout_text])
    except BaseException:
        for fh in handles:
            fh.close()
        for path in created:
            os.remove(path)
        raise
    try:
        for fh, (_, _, text) in zip(handles, files):
            with fh:  # closed at once, so a later file at the same path replaces it
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(text)
    finally:
        for fh in handles:
            fh.close()


def cmd_sweep(args) -> None:
    from .engine import metrics_exact

    grid = _sweep_grid(args)
    games = {}
    for name in args.games.split(","):
        name = name.strip()
        try:
            kind = RuleKind(name)
        except ValueError:
            choices = ",".join(k.value for k in RuleKind)
            raise _UsageError(f"unknown game {_shown(name)} (choose from {choices})")
        if kind.value in games:
            raise _UsageError(f"game {kind.value} is named twice in --games")
        games[kind.value] = schedule_for(kind)  # by name: Enum.value is a slow property
    delta = args.delta or 0.0
    two_var = args.var == "p_F"
    lines = ["game,metric,p_f,p_s,value" if two_var else "game,metric,p,value"]
    series: dict[str, list[tuple[float, float]]] = {}
    for v in grid:
        if two_var:
            ps = 1.0 - v + delta
            if not (0.0 <= ps <= 1.0):
                raise _UsageError(
                    f"p_S = 1 - p_F + delta = {ps:.6f} leaves [0, 1] at p_F = {v:.6f}"
                )
            prof, at = ServeProfile(v, ps), f"{_fmt(v)},{_fmt(ps)}"
        else:
            prof, at = ServeProfile(v, v), _fmt(v)
        for game, sched in games.items():
            try:
                m = metrics_exact(sched, prof)
            except ServelabError as exc:  # singular corner of the grid
                warnings.warn(f"skipped {game} at {v:.6f}: {exc}")
                continue
            for name, value in _defined(m):
                lines.append(f"{game},{name},{at},{_fmt(value)}")
                series.setdefault(f"{game}:{name}", []).append((v, value))
    chart = None
    if args.svg:
        from .svg import polyline_chart

        chart = polyline_chart(
            sorted(series.items()),
            title="metric sweep",
            x_label=args.var,
            y_label="value",
        )
    text = "".join(f"{line}\n" for line in lines)
    to_stdout = args.out == "-"
    files = [] if to_stdout else [(args.out, "", text)]
    if chart is not None:
        files.append((args.svg, None, chart))
    _write_files(files, text if to_stdout else None)

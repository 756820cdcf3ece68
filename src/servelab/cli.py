"""Command-line surface.

Subcommands: eval, sweep, fit, shape, compare, simulate.  Each prints
CSV on stdout, or JSON with --json, except sweep, which writes CSV to
--out (- for stdout) and optionally an SVG chart.  Exit codes: 0 success
(also when stdout's reader stops reading early), 2 usage error, 3 data
error, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import atexit
import os
import stat
import sys
import warnings

# Each command imports the modules it runs, so that a process compiles
# and loads only those; without a bytecode cache that is most of start-up.
from . import mc_backend
from .errors import ConsistencyError, RangeError, ServelabError, _clipped, _int_text, _shown
from .types import CUTOFFS, ORDERS, RuleKind, ServeProfile, ServeSchedule, schedule_for

__all__ = ["main", "entrypoint"]

_METRIC_ORDER = ("win_prob", "bp_prob", "expected_points", "expected_bps")
_MAX_SWEEP_POINTS = 100_001  # step 1e-5 over [0, 1]
_MAX_SIM_GAMES = 10**8  # about a minute of simulate at 1.5-1.8M games/s on two CPUs
# draws simulate may expect to make (--n times the expected points per game):
# about 1.5 minutes at the 10-11M draws/s two CPUs play, and above every --n
# for a game of at most 10 expected points (6.75 at p = 0.5)
_MAX_SIM_DRAWS = 10**9
_MESSAGE_MAX = 250  # longest refusal printed whole


class _UsageError(Exception):
    pass


class _StdoutClosed(Exception):
    """stdout's reader went away (`servelab ... | head`)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 2
        raise _UsageError(message)


def _within(parse, lo, hi):
    """The argparse type of a numeric flag, which states its range where it
    is declared: text read by parse (float, or errors._int_text for a
    decimal integer) and refused outside [lo, hi]."""
    noun = "a number" if parse is float else "an integer"

    def check(text: str):
        try:
            v = parse(text)
        except RangeError as exc:  # a well-formed integer too long for int()
            raise argparse.ArgumentTypeError(str(exc))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {_shown(text)}")
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo}, {hi}], got {v}")
        return v

    return check


_prob = _within(float, 0, 1)
_cutoff = _within(_int_text, CUTOFFS[0], CUTOFFS[-1])
_CUTOFF_HELP = f"single-serve cutoff for game C, {CUTOFFS[0]}..{CUTOFFS[-1]} (default 3)"


def _fmt(v, spec: str = ".6f") -> str:
    return "" if v is None else format(v, spec)


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with each inner quote doubled, when
    it holds a comma or a quote, as parse_stats reads it."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _defined(metrics) -> list:
    """(name, value) for each metric the game defines, in _METRIC_ORDER."""
    return [(n, getattr(metrics, n)) for n in _METRIC_ORDER if getattr(metrics, n) is not None]


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it, so a closed pipe shows here."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _StdoutClosed from None


def _emit(args, doc, lines: list[str]) -> None:
    """Print a command's result: `doc` as JSON under --json, else its CSV lines."""
    if args.json:
        import json

        _write_stdout(json.dumps(doc, indent=2) + "\n")
    else:
        _write_stdout("\n".join(lines) + "\n")


def _write_files(files: list[tuple[str, str | None, str]]) -> None:
    """Write each (path, newline, text) file, or none of them.

    Every file is opened before any is written, to append, which truncates
    nothing.  If one fails to open, those opened are closed, and those
    this call created removed, before the error goes on.  Then each file's
    contents are replaced by its text; a pipe or device, which cannot be
    truncated, just takes the text.
    """
    handles, created = [], []
    try:
        for path, newline, _ in files:
            existed = os.path.lexists(path)
            handles.append(open(path, "a", encoding="utf-8", newline=newline))
            if not existed:
                created.append(path)
    except OSError:
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


def _add_game_flags(p: argparse.ArgumentParser):
    p.add_argument("--game", required=True, choices=[k.value for k in RuleKind])
    p.add_argument("--p", type=_prob, help="per-point chance for A/T games")
    p.add_argument("--pf", type=_prob, help="full-serve chance for Bj/B/C games")
    p.add_argument("--ps", type=_prob, help="single-serve / receiving chance")
    p.add_argument("--x", type=_cutoff, default=None, help=_CUTOFF_HELP)
    p.add_argument("--order", type=_within(_int_text, ORDERS[0], ORDERS[-1]), default=None,
                   help=f"serve order variant for Bj/B, {ORDERS[0]} or {ORDERS[-1]} (default 1)")


def _resolve_game(args) -> tuple[RuleKind, ServeProfile, int, ServeSchedule]:
    kind = RuleKind(args.game)
    if kind.scalar:
        if args.p is None:
            raise _UsageError(f"--p is required for game {kind.value}")
        if args.pf is not None or args.ps is not None:
            raise _UsageError(f"game {kind.value} takes --p, not --pf/--ps")
        prof = ServeProfile(args.p, args.p)
    else:
        if args.pf is None or args.ps is None:
            raise _UsageError(f"--pf and --ps are required for game {kind.value}")
        if args.p is not None:
            raise _UsageError(f"game {kind.value} takes --pf/--ps, not --p")
        prof = ServeProfile(args.pf, args.ps)
    if args.x is not None and kind is not RuleKind.C:
        raise _UsageError("--x only applies to game C")
    if args.order is not None and kind not in (RuleKind.BJ, RuleKind.B):
        raise _UsageError("--order only applies to games Bj and B")
    x = 3 if args.x is None else args.x
    return kind, prof, x, schedule_for(kind, order=args.order or 1, x=x)


def _cmd_eval(args) -> None:
    from . import formulas
    from .engine import metrics_exact

    kind, prof, x, sched = _resolve_game(args)
    m = metrics_exact(sched, prof)
    closed = formulas.closed_metrics(kind, prof, x)
    worst, agree = formulas.engine_gap(closed, m)
    rows = [(name, closed.get(name), value) for name, value in _defined(m)]
    doc = {
        "game": kind.value,
        "profile": {"p_f": prof.p_f, "p_s": prof.p_s},
        "x": x if kind is RuleKind.C else None,
        "metrics": {n: {"closed_form": c, "engine": e} for n, c, e in rows},
        "max_disagreement": worst,
    }
    _emit(args, doc, ["metric,closed_form,engine",
                      *(f"{n},{_fmt(c)},{_fmt(e)}" for n, c, e in rows)])
    if not agree:
        raise ConsistencyError(f"closed form and engine disagree by {worst:.3e}")


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


def _cmd_sweep(args) -> None:
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
    files = [] if args.out == "-" else [(args.out, "", text)]
    if chart is not None:
        files.append((args.svg, None, chart))
    _write_files(files)
    if args.out == "-":
        _write_stdout(text)


def _stats_rows(path: str):
    from .atp import parse_stats

    rows = parse_stats(path)
    if not rows:
        raise _UsageError("stats file has no data rows")
    return rows


def _cmd_fit(args) -> None:
    from .atp import fit_report

    fit_rows, summary = fit_report(_stats_rows(args.csv))
    rows = [
        {
            "rank": r.stats.rank,
            "name": r.stats.name,
            "p_emp": r.p_emp,
            "predicted": r.predicted,
            "observed": r.stats.p_t_won,
            "residual": r.residual,
        }
        for r in fit_rows
    ]
    _emit(args, {"rows": rows, "summary": summary._asdict()}, [
        ",".join(rows[0]),
        *(f"{r['rank']},{_csv_field(r['name'])},{_fmt(r['p_emp'])},{_fmt(r['predicted'])},"
          f"{_fmt(r['observed'])},{r['residual']:+.6f}" for r in rows),
        f"# rows {summary.n_rows}",
        f"# max_abs_residual {summary.max_abs_residual:.6f}",
        f"# mean_residual {summary.mean_residual:+.6f}",
        f"# nonpositive_residuals {summary.nonpositive_count} of {summary.n_rows}",
    ])


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


def _cmd_shape(args) -> None:
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


def _cmd_compare(args) -> None:
    from .shaping import CompareRow, compare_table

    table = compare_table(_stats_rows(args.csv), args.x)
    _emit(args, {"x": args.x, "rows": [r._asdict() for r in table]}, [
        ",".join(CompareRow._fields),
        *(f"{r.rank}," + ",".join(_fmt(v) for v in r[1:]) for r in table),
        "# 3-decimal view",
        *(f"# {r.rank}," + ",".join(_fmt(v, ".3f") for v in r[1:]) for r in table),
    ])


def _cmd_simulate(args) -> None:
    from .engine import metrics_exact
    from .simulate import SimConfig, estimate_metrics

    kind, prof, _, sched = _resolve_game(args)
    cfg = SimConfig(n_games=args.n, seed=args.seed)
    m = metrics_exact(sched, prof)  # a singular profile fails here, before any draw
    draws = args.n * m.expected_points
    if not draws <= _MAX_SIM_DRAWS:  # and a near-singular one (or NaN) here
        raise RangeError(f"--n {args.n} at {m.expected_points:.4g} expected points a game "
                         f"needs about {draws:.3g} draws, over the budget of {_MAX_SIM_DRAWS:,}")
    res = estimate_metrics(sched, prof, cfg)
    rows = []
    for name, est in _defined(res):
        engine_v = getattr(m, name)
        z = (est.mean - engine_v) / est.std_err if est.std_err else None
        rows.append((name, est.mean, est.std_err, engine_v, z))
    doc = {
        "game": kind.value,
        "backend": mc_backend(),
        "n_games": res.n_games,
        "seed": args.seed,
        "metrics": {
            n: {"mc_mean": mean, "mc_std_err": se, "engine": ev, "z": z}
            for n, mean, se, ev, z in rows
        },
    }
    _emit(args, doc, ["metric,mc_mean,mc_std_err,engine,z", *(
        f"{n},{_fmt(mean)},{_fmt(se)},{_fmt(ev)},{_fmt(z, '+.3f')}"
        for n, mean, se, ev, z in rows
    )])


def build_parser() -> _Parser:
    parser = _Parser(prog="servelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("eval", help="closed-form and engine metrics for one game")
    _add_game_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="metric curves over a probability grid")
    p.add_argument("--games", required=True, help="comma list, e.g. A,T")
    p.add_argument("--var", choices=("p", "p_F"), default="p")
    p.add_argument("--start", type=_prob, required=True)
    p.add_argument("--stop", type=_prob, required=True)
    p.add_argument("--step", type=_prob, required=True)
    p.add_argument("--delta", type=_within(float, 0, 0.5), default=None,
                   help="offset in p_S = 1 - p_F + delta (p_F sweeps)")
    p.add_argument("--out", required=True, help="output CSV path, - for stdout")
    p.add_argument("--svg", default=None, help="optional SVG chart path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="model residuals for a stats table")
    p.add_argument("csv")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("shape", help="solve the single-serve cutoff")
    p.add_argument("csv")
    p.add_argument("--low", required=True, help="weaker player: rank or exact name")
    p.add_argument("--high", required=True, help="stronger player: rank or exact name")
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("compare", help="existing-vs-proposed table for a stats file")
    p.add_argument("csv")
    p.add_argument("--x", type=_cutoff, default=3, help=_CUTOFF_HELP)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo check against the engine")
    _add_game_flags(p)
    p.add_argument("--n", type=_within(_int_text, 1, _MAX_SIM_GAMES), default=10_000,
                   help=f"games to play, at most {_MAX_SIM_GAMES}")
    p.add_argument("--seed", type=_within(_int_text, 0, 2**64 - 1), default=0)
    p.set_defaults(func=_cmd_simulate)

    for name, p in sub.choices.items():
        if name != "sweep":  # sweep writes CSV to --out, never JSON
            p.add_argument("--json", action="store_true")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning (a duplicate rank, a skipped grid point) as one line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand; the exit code says how it ended (0, 2, 3 or 4).
    A refusal is one line on stderr, its message cut to its ends and its
    length when longer than _MESSAGE_MAX characters."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
        with warnings.catch_warnings():
            # every warning is a line on stderr, whatever -W or PYTHONWARNINGS asks
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except _UsageError as exc:
        code, prefix, message = 2, "usage error", str(exc)
    except _StdoutClosed:
        # the reader ended the read on purpose; point stdout at the null
        # device so that the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConsistencyError as exc:
        code, prefix, message = 4, "error", str(exc)
    except (ServelabError, OSError) as exc:  # an OSError may name a path of any length
        code, prefix, message = 3, "error", str(exc)
    else:
        return 0
    print(f"{prefix}: {_clipped(message, _MESSAGE_MAX, 'message')}", file=sys.stderr)
    return code


def entrypoint() -> None:
    """Run main() as the servelab command, and end the process with its code.

    The process leaves through os._exit once the exit handlers have run
    (simulate's reaps its shard workers) and stdout and stderr are flushed,
    so it skips the interpreter's teardown: a last garbage collection and
    the clearing of every loaded module, 6-8 ms of a command.  That
    loses nothing because every file a command writes is closed before
    main() returns (_write_files closes them) and the CLI starts no thread.
    A stream whose reader has gone (BrokenPipeError) takes nothing more and
    leaves the code as it is: the reader stopped reading on purpose.  Any
    other failed flush (a full disk) lost output, which is a data error.
    """
    code = main()
    atexit._run_exitfuncs()  # the call the interpreter's own shutdown makes
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # started with the descriptor closed
            continue
        try:
            stream.flush()
        except BrokenPipeError:
            pass
        except OSError:
            code = code or 3
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

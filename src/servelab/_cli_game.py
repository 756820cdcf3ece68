"""The eval and simulate subcommands: one game, by closed form and exact
engine, or by Monte Carlo against the engine."""

from __future__ import annotations

from . import mc_backend
from ._cli_shared import _UsageError, _defined, _emit, _fmt
from .errors import ConsistencyError, RangeError
from .types import RuleKind, ServeProfile, ServeSchedule, schedule_for

# draws simulate may expect to make (--n times the expected points per game):
# about 1.5 minutes at the 10-11M draws/s two CPUs play, and above every --n
# for a game of at most 10 expected points (6.75 at p = 0.5)
_MAX_SIM_DRAWS = 10**9


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


def cmd_eval(args) -> None:
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


def cmd_simulate(args) -> None:
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

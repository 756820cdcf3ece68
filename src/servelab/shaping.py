"""Solve for the single-serve cutoff x and build the existing-vs-proposed
comparison table.

The idea: take the target band for the server's game-win probability,
fixed at 0.60 to 0.75, invert the existing game's win curve to find the
per-point probabilities that band maps to, then ask how many early
points may keep the second serve so that a player's blended point chance
averages out to the target.
"""

from __future__ import annotations

from typing import NamedTuple

from . import formulas
from .atp import PlayerStats, p_emp
from .errors import ConsistencyError, DegenerateProfile, RangeError
from .types import CUTOFFS, RuleKind, ServeProfile, _is_number, rule_c

__all__ = [
    "ShapingSolution",
    "CompareRow",
    "invert_p_win_T",
    "solve_x",
    "recommend_cutoff",
    "compare_table",
]

_P_WIN_LOW, _P_WIN_HIGH = 0.60, 0.75  # target band for the server's game-win chance


class ShapingSolution(NamedTuple):
    p_trad: float  # point chance whose game-win value is the low target
    p_exc: float  # point chance whose game-win value is the high target
    x_low: float  # cutoff solving the weaker player onto p_trad
    x_high: float  # cutoff solving the stronger player onto p_exc
    x_recommended: int
    warning: str | None = None


def invert_p_win_T(target: float) -> float:
    """The unique p with p_win_T(p) = target, by bisection until the
    bracket is at most 1e-12 wide.

    p_win_T is strictly increasing on (0, 1), so plain bisection on
    [1e-6, 1 - 1e-6] suffices.  A target below p_win_T(1e-6), about
    1.5e-23, has its p below that bracket and raises RangeError.
    """
    if not _is_number(target):
        raise RangeError("target must be a number", target)
    if not (0.0 < target < 1.0):
        raise RangeError("target must lie in (0, 1)", target)
    lo, hi = 1e-6, 1.0 - 1e-6
    lowest = formulas.p_win_T(lo)
    if target < lowest:  # its p lies below the bracket
        raise RangeError(f"target must be at least p_win_T({lo}) = {lowest:.3g}", target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if formulas.p_win_T(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def solve_x(stats: PlayerStats, p_target: float) -> float:
    """Cutoff x mixing x full-serve points with single-serve points so
    the average point chance hits p_target.

    The game length entering the mix is the existing game's expected
    length at the target (an approximation: the new rule would change
    the length slightly).  The result is real-valued and not clamped;
    out-of-range values simply report that no cutoff in 0..6 works.
    """
    blended = p_emp(stats)
    denom = blended - stats.p_s_won
    if abs(denom) < 1e-12:
        raise DegenerateProfile(
            "blended and single-serve chances coincide; the cutoff has no effect"
        )
    return (p_target - stats.p_s_won) / denom * formulas.e_points_T(p_target)


def recommend_cutoff(low: PlayerStats, high: PlayerStats) -> ShapingSolution:
    """Cutoff recommendation from a weaker and a stronger player.

    The weaker player anchors the band's low end, the stronger its high
    end.  Each cutoff is rounded to the nearest integer; when the two
    disagree, the weaker player's value wins.  The warning says so, and
    says when the recommendation lies outside game C's cutoffs 0..6.
    """
    p_trad = invert_p_win_T(_P_WIN_LOW)
    p_exc = invert_p_win_T(_P_WIN_HIGH)
    x_low = solve_x(low, p_trad)
    x_high = solve_x(high, p_exc)
    r_low = round(x_low)
    r_high = round(x_high)
    notes = []
    if r_low != r_high:
        notes.append(
            f"rounded cutoffs disagree ({r_low} from {low.name!r}, "
            f"{r_high} from {high.name!r}); recommending the weaker player's {r_low}"
        )
    if r_low not in CUTOFFS:
        notes.append(f"cutoff {r_low} lies outside game C's {CUTOFFS[0]}..{CUTOFFS[-1]}")
    warning = "; ".join(notes) or None
    return ShapingSolution(
        p_trad=p_trad,
        p_exc=p_exc,
        x_low=x_low,
        x_high=x_high,
        x_recommended=r_low,
        warning=warning,
    )


class CompareRow(NamedTuple):
    """One player's metrics under the existing game (T columns) and the
    proposed game (C columns)."""

    rank: int
    p_emp: float
    p_s_won: float
    p_t: float
    p_c: float
    p_t_br: float
    p_c_br: float
    e_t: float
    e_c: float
    e_t_br: float
    e_c_br: float


def compare_table(rows: list[PlayerStats], x: int = 3) -> list[CompareRow]:
    """Existing-vs-proposed table over player rows at cutoff x.

    T metrics come from the closed forms at the blended chance; C(x)
    metrics from the exact engine at (p_F = blend, p_S = second-serve
    rate).  Where game C has closed forms (x = 3) they are cross-checked
    against the engine under `formulas.agrees` as a self-test.
    """
    from .engine import metrics_exact  # here, so `servelab shape` compiles no engine

    out = []
    sched = rule_c(x)
    for stats in rows:
        blended = p_emp(stats)
        prof = ServeProfile(p_f=blended, p_s=stats.p_s_won)
        mc = metrics_exact(sched, prof)
        worst, agree = formulas.engine_gap(formulas.closed_metrics(RuleKind.C, prof, x), mc)
        if not agree:
            raise ConsistencyError(
                f"closed C forms diverged from the engine by {worst:.3e} "
                f"for rank {stats.rank}"
            )
        t = formulas.closed_metrics(RuleKind.T, prof)
        out.append(
            CompareRow(
                rank=stats.rank,
                p_emp=blended,
                p_s_won=stats.p_s_won,
                p_t=t["win_prob"],
                p_c=mc.win_prob,
                p_t_br=t["bp_prob"],
                p_c_br=mc.bp_prob,
                e_t=t["expected_points"],
                e_c=mc.expected_points,
                e_t_br=t["expected_bps"],
                e_c_br=mc.expected_bps,
            )
        )
    return out

"""Ground-truth evaluator.

Exact probability propagation over the pre-tie score lattice (points
1..6, at most 4x4x2 states) with an analytic geometric-series closure of
the tied region, for arbitrary ServeSchedule.  All five games take the
same path: a deuce-type game has an empty prefix, so its whole mass
starts level and goes straight to the closure.  Also a generalized
absorbing-barrier random-walk utility.

The closed forms in formulas.py are validated against this module; on
any disagreement the engine is authoritative.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import RangeError, SingularProfile
from .types import GameMetrics, ServeProfile, ServeSchedule

__all__ = ["deuce_closure", "metrics_exact", "walk_expected_duration", "TieClosure"]

_MIN_DENOM = 1e-300


class TieClosure(NamedTuple):
    """Analytic resolution of the win-by-two region."""

    win: float
    expected_len: float
    bp_indicator: float | None
    bp_count: float | None


def deuce_closure(cycle: Sequence[float], with_bp: bool = False) -> TieClosure:
    """Resolve the tied region for a repeating cycle of 1 or 2 point chances.

    The region starts level; each pass through the cycle either decides
    the game (both points to one side) or returns to level, giving
    geometric-series closed forms.  With with_bp=True (only meaningful
    when F serves the whole cycle) the break-point fields are filled:
    the indicator is the chance the receiver ever reaches advantage, the
    count is the expected number of receiver-advantage points played.
    """
    if len(cycle) not in (1, 2):
        raise RangeError(f"cycle length must be 1 or 2, got {len(cycle)}")
    a = float(cycle[0])
    b = float(cycle[1]) if len(cycle) == 2 else a
    denom = a * b + (1.0 - a) * (1.0 - b)
    if denom < _MIN_DENOM:
        raise SingularProfile(
            f"tied-region cycle ({a}, {b}) never terminates (denominator 0)"
        )
    win = a * b / denom
    expected_len = 2.0 / denom
    bp_indicator = bp_count = None
    if with_bp:
        # first passage to receiver advantage: lose now, or hold one
        # point then win the next and try again from level
        bp_indicator = (1.0 - a) / ((1.0 - a) + a * b)
        bp_count = (1.0 - a) / denom
    return TieClosure(win, expected_len, bp_indicator, bp_count)


class LatticeMasses(NamedTuple):
    """Raw accumulators from one pre-tie propagation (before closure)."""

    win: float
    lose: float
    len_sum: float  # sum over absorbed paths of (points played * mass)
    bp_first: float  # mass whose first break-point state occurs pre-tie
    bp_visits: float  # occupancy-weighted count of break-point states
    tie_clean: float  # mass level after the prefix, never having faced a break point
    tie_seen: float  # mass level after the prefix, after at least one break point


def _lattice(sched: ServeSchedule, prof: ServeProfile) -> LatticeMasses:
    win = lose = len_sum = 0.0
    bp_first = bp_visits = 0.0
    states = {(0, 0, False): 1.0}
    for i, p in enumerate(sched.prefix_probs(prof)):
        nxt: dict[tuple[int, int, bool], float] = {}
        for (f, s, seen), m in states.items():
            at_bp = s == 3 and f <= 2
            if at_bp:
                bp_visits += m
                if not seen:
                    bp_first += m
            nseen = seen or at_bp
            wf = m * p
            ws = m - wf
            if f + 1 == 4:
                win += wf
                len_sum += (i + 1) * wf
            else:
                key = (f + 1, s, nseen)
                nxt[key] = nxt.get(key, 0.0) + wf
            if s + 1 == 4:
                lose += ws
                len_sum += (i + 1) * ws
            else:
                key = (f, s + 1, nseen)
                nxt[key] = nxt.get(key, 0.0) + ws
        states = nxt
    # what survives the prefix is level: 3:3 after six points, or the
    # starting 0:0 of a deuce-type game whose prefix is empty
    tie = [0.0, 0.0]  # indexed by bp-seen flag
    for (_, _, seen), m in states.items():
        tie[seen] += m
    return LatticeMasses(win, lose, len_sum, bp_first, bp_visits, tie[0], tie[1])


def metrics_exact(sched: ServeSchedule, prof: ServeProfile) -> GameMetrics:
    """Exact GameMetrics for any schedule.

    Every game runs through the same lattice: the prefix is propagated
    point by point and whatever stays level after it enters the tied
    region, which the deuce closure resolves.  Break-point fields are
    filled only when F serves every point of the schedule; otherwise
    they are None.
    """
    all_f = sched.all_f_served
    closure = deuce_closure(sched.cycle_probs(prof), with_bp=all_f)
    lat = _lattice(sched, prof)
    tie_total = lat.tie_clean + lat.tie_seen
    win = lat.win + tie_total * closure.win
    points = lat.len_sum + tie_total * (len(sched.prefix) + closure.expected_len)
    bp_prob = expected_bps = None
    if all_f:
        bp_prob = lat.bp_first + lat.tie_clean * closure.bp_indicator
        expected_bps = lat.bp_visits + tie_total * closure.bp_count
    return GameMetrics(
        win_prob=win,
        expected_points=points,
        bp_prob=bp_prob,
        expected_bps=expected_bps,
    )


def walk_expected_duration(n: int, p: float) -> float:
    """Expected steps for a +-1 walk from 0 to first hit of +n or -n.

    Up-step chance p.  Solved exactly over the interior states
    -n+1..n-1 by tridiagonal elimination; the fair-walk answer is n**2.
    """
    if not isinstance(n, int) or n < 1:
        raise RangeError(f"n must be an integer >= 1, got {n!r}")
    if n > 10_000:
        raise RangeError(f"n capped at 10000, got {n}")
    if not (0.0 < p < 1.0):
        raise RangeError(f"p must lie in (0, 1), got {p!r}")
    q = 1.0 - p
    m = 2 * n - 1
    # rows: -q*E[j-1] + E[j] - p*E[j+1] = 1, absorbing ends at zero
    c = [0.0] * m
    d = [0.0] * m
    c[0] = -p
    d[0] = 1.0
    for i in range(1, m):
        denom = 1.0 + q * c[i - 1]
        c[i] = -p / denom
        d[i] = (1.0 + q * d[i - 1]) / denom
    e = d[m - 1]
    for i in range(m - 2, n - 2, -1):
        e = d[i] - c[i] * e
    return e

"""Ground-truth evaluator.

Exact probability propagation over the pre-tie score lattice (points
1..6) with an analytic geometric-series closure of the tied region, for
arbitrary ServeSchedule.  Every six-point prefix has the same lattice
states, so the lattice is written out as straight-line arithmetic over
the six point chances, in a fixed operation order.  All five games
take the same path: a deuce-type game has an empty prefix, so its whole
mass starts level and goes straight to the closure.  The lattice returns
the six masses metrics_exact reads (win, len_sum, bp_first, bp_visits,
tie_clean, tie_seen) and deuce_closure its four values, both as plain
tuples, so metrics_exact builds only the GameMetrics it returns.

metrics_exact reads a profile once, as the float pair (p_F, p_S): the
ServeProfile checked it when it was built, so the pair is not checked
again.  The schedule's getters, built with the schedule, pick the
lattice's six chances and the cycle's two ends from that pair, and the
ends go to _closure, the arithmetic of deuce_closure without its input
checks.  Every coefficient in this arithmetic is a float literal: an int
would give the same bits, since it converts to a double exactly, but would
keep CPython from specializing the operation.  Also a generalized
absorbing-barrier random-walk utility.

The closed forms in formulas.py are validated against this module; on
any disagreement the engine is authoritative.
"""

from __future__ import annotations

from typing import Sequence

from .errors import RangeError, SingularProfile
from .types import GameMetrics, ServeProfile, ServeSchedule, _check_unit, _is_int, _is_number

__all__ = ["deuce_closure", "metrics_exact", "walk_expected_duration"]

_MIN_DENOM = 1e-300
_new = tuple.__new__


def deuce_closure(cycle: Sequence[float]) -> tuple[float, float, float, float]:
    """Resolve the tied region for a repeating cycle of 1 or 2 point chances.

    Returns (win, expected_len, bp_indicator, bp_count) as a plain tuple.
    The region starts level; each pass through the cycle either decides
    the game (both points to one side) or returns to level, giving
    geometric-series closed forms.  The break-point values mean something
    only when F serves the whole cycle: the indicator is the chance the
    receiver ever reaches advantage, the count is the expected number of
    receiver-advantage points played.
    """
    try:
        cycle = tuple(cycle)
    except TypeError:  # not iterable
        raise RangeError("cycle must be a sequence of 1 or 2 numbers", cycle) from None
    if len(cycle) not in (1, 2):
        raise RangeError("cycle length must be 1 or 2", len(cycle))
    for i, chance in enumerate(cycle):
        _check_unit(f"cycle[{i}]", chance)
    return _closure(float(cycle[0]), float(cycle[-1]))


def _closure(a: float, b: float) -> tuple[float, float, float, float]:
    """deuce_closure for the cycle ends a, b: floats in [0, 1], unchecked."""
    denom = a * b + (1.0 - a) * (1.0 - b)
    if denom < _MIN_DENOM:
        raise SingularProfile(
            f"tied-region cycle ({a}, {b}) never terminates (denominator 0)"
        )
    win = a * b / denom
    expected_len = 2.0 / denom
    # first passage to receiver advantage: lose now, or hold one point
    # then win the next and try again from level; for chances in [0, 1],
    # (1 - a) + a * b is 0 only at (a, b) = (1, 0), rejected above
    bp_indicator = (1.0 - a) / ((1.0 - a) + a * b)
    bp_count = (1.0 - a) / denom
    return win, expected_len, bp_indicator, bp_count


_LEVEL_START = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)  # _lattice's order


def _lattice(sched: ServeSchedule, pick: tuple[float, float]) -> tuple[float, ...]:
    """Propagate the six-point prefix at pick = (p_f, p_s); mXY is the
    mass at F X : S Y.

    Returns the plain 6-tuple (win, len_sum, bp_first, bp_visits,
    tie_clean, tie_seen): the mass won pre-tie, points x mass absorbed,
    the mass whose first break point is pre-tie, break-point visits, and
    the mass level after the prefix with no break point faced and with one.
    The mass lost pre-tie enters only len_sum.

    Written out state by state, since every six-point schedule has the
    same lattice.  At a break point (receiver at 3, F at most 2) the mass
    is split into fresh mXY and mXY_seen (a break point was faced
    earlier).  At each point a..d are the masses that F winning it moves
    out of each state; the rest (m - a, not m * (1 - p)) moves when F
    loses it.  The operations and their order are those of
    `dict_lattice` in tests/test_engine.py: F reaching 4, the interior
    states, then break points, fresh before seen.  Accumulators sum left
    to right (`len_sum = len_sum + a + b`, never `len_sum += a + b`), so
    every field is bit-identical to that reference.
    """
    if not sched.prefix:
        # a deuce-type game starts level, before any break point
        return _LEVEL_START
    p0, p1, p2, p3, p4, p5 = sched._pick_prefix(pick)
    # points 1-3 decide nothing
    m10, m01 = p0, 1.0 - p0
    a, b = m10 * p1, m01 * p1
    m20, m11, m02 = a, (m10 - a) + b, m01 - b
    a, b, c = m20 * p2, m11 * p2, m02 * p2
    m30, m21, m12, m03 = a, (m20 - a) + b, (m11 - b) + c, m02 - c
    # point 4: F wins from 3:0, or loses the break point at 0:3
    a, b, c, d = m30 * p3, m21 * p3, m12 * p3, m03 * p3
    win, len_sum = a, 4.0 * a + 4.0 * (m03 - d)
    bp_visits = bp_first = m03
    m31, m22, m13, m13_seen = (m30 - a) + b, (m21 - b) + c, m12 - c, d
    # point 5: F wins from 3:1, or loses a break point at 1:3
    a, b, c, d = m31 * p4, m22 * p4, m13 * p4, m13_seen * p4
    lost, lost_seen = m13 - c, m13_seen - d
    win += a
    len_sum = len_sum + 5.0 * a + 5.0 * lost + 5.0 * lost_seen
    bp_visits = bp_visits + m13 + m13_seen
    bp_first += m13
    m32, m23, m23_seen = (m31 - a) + b, m22 - b, c + d
    # point 6: F wins from 3:2, or loses a break point at 2:3; the rest
    # is level at 3:3
    a, c, d = m32 * p5, m23 * p5, m23_seen * p5
    lost, lost_seen = m23 - c, m23_seen - d
    win += a
    len_sum = len_sum + 6.0 * a + 6.0 * lost + 6.0 * lost_seen
    bp_visits = bp_visits + m23 + m23_seen
    bp_first += m23
    return win, len_sum, bp_first, bp_visits, m32 - a, c + d


def metrics_exact(sched: ServeSchedule, prof: ServeProfile) -> GameMetrics:
    """Exact GameMetrics for any schedule.

    Every game runs through the same lattice: the prefix is propagated
    point by point and whatever stays level after it enters the tied
    region, which the deuce closure resolves.  Break-point fields are
    filled only when F serves every point of the schedule; otherwise
    they are None.  Every field is a plain float.
    """
    pick = (float(prof.p_f), float(prof.p_s))
    a, b = sched._pick_ends(pick)
    c_win, c_len, c_bp_indicator, c_bp_count = _closure(a, b)
    win, len_sum, bp_first, bp_visits, tie_clean, tie_seen = _lattice(sched, pick)
    tie_total = tie_clean + tie_seen
    win = win + tie_total * c_win
    # a prefix is empty or six points long
    points = len_sum + tie_total * ((6.0 if sched.prefix else 0.0) + c_len)
    # tuple.__new__ is what GameMetrics._make calls
    if sched.all_f_served:
        return _new(GameMetrics, (win, points, bp_first + tie_clean * c_bp_indicator,
                                  bp_visits + tie_total * c_bp_count))
    return _new(GameMetrics, (win, points, None, None))


def walk_expected_duration(n: int, p: float) -> float:
    """Expected steps for a +-1 walk from 0 to first hit of +n or -n.

    Up-step chance p.  Solved exactly over the interior states
    -n+1..n-1 by tridiagonal elimination; the fair-walk answer is n**2.
    """
    if not _is_int(n) or n < 1:
        raise RangeError("n must be an integer >= 1", n)
    if n > 10_000:
        raise RangeError("n capped at 10000", n)
    if not _is_number(p):
        raise RangeError("p must be a number", p)
    if not (0.0 < p < 1.0):
        raise RangeError("p must lie in (0, 1)", p)
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

"""Ground-truth evaluator.

Exact probability propagation over the pre-tie score lattice (points
1..6) with an analytic geometric-series closure of the tied region, for
arbitrary ServeSchedule.  Every six-point prefix has the same lattice
states, so the lattice is written out as straight-line arithmetic over
the six point chances, in a fixed operation order.  A deuce-type game
(A, Bj) has an empty prefix, so its whole mass starts level, and
metrics_exact returns the closure's values without the lattice.  The
lattice returns the six masses metrics_exact reads (win, len_sum,
bp_first, bp_visits, tie_clean, tie_seen) and deuce_closure its four
values, both as plain tuples, so metrics_exact builds only the
GameMetrics it returns.

metrics_exact reads a profile as the float pair (p_F, p_S) that the
ServeProfile made when it checked its values, so the pair is neither
checked nor converted again.  The schedule's getters, built with the
schedule, pick the lattice's six chances and the cycle's two ends from
that pair, and the ends go to _closure, the arithmetic of deuce_closure
without its input checks.  This arithmetic keeps the rules stated above
formulas._tie_mass: float-literal coefficients, each repeated
subexpression evaluated once, each local assigned once, at most three
names per assignment.  Also a generalized absorbing-barrier random-walk
utility.

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
    a_b = a * b
    qa = 1.0 - a
    denom = a_b + qa * (1.0 - b)
    if denom < _MIN_DENOM:
        raise SingularProfile(
            f"tied-region cycle ({a}, {b}) never terminates (denominator 0)"
        )
    # win, expected_len, bp_indicator, bp_count; the indicator is the first
    # passage to receiver advantage: lose now, or hold one point then win
    # the next and try again from level.  For chances in [0, 1], qa + a_b
    # is 0 only at (a, b) = (1, 0), rejected above
    return a_b / denom, 2.0 / denom, qa / (qa + a_b), qa / denom


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
    earlier).  fXY is the mass that F winning the next point moves out of
    X:Y, and the rest (mXY - fXY, not mXY * (1 - p)) moves when F loses
    it; a state that only F's wins reach holds an fXY, so it gets no mXY
    of its own (m10 is p0, m20 f10, m30 f20, m13_seen f03).  These are the
    same operations on the same operands as `dict_lattice` in
    tests/test_engine.py, and every sum adds its terms left to right, as
    that reference accumulates them, so every field is bit-identical to it.
    """
    if not sched.prefix:
        # a deuce-type game starts level, before any break point
        # (metrics_exact skips this call for one; the tests make it)
        return _LEVEL_START
    p0, p1, p2, p3, p4, p5 = sched._pick_prefix(pick)
    # points 1-3 decide nothing
    m01 = 1.0 - p0
    f10, f01 = p0 * p1, m01 * p1
    m11, m02 = (p0 - f10) + f01, m01 - f01
    f20, f11, f02 = f10 * p2, m11 * p2, m02 * p2
    m21, m12, m03 = (f10 - f20) + f11, (m11 - f11) + f02, m02 - f02
    # point 4: F wins from 3:0, or loses the break point at 0:3
    f30, f21, f12 = f20 * p3, m21 * p3, m12 * p3
    f03 = m03 * p3
    m31, m22, m13 = (f20 - f30) + f21, (m21 - f21) + f12, m12 - f12
    # point 5: F wins from 3:1, or loses a break point at 1:3
    f31, f22, f13 = m31 * p4, m22 * p4, m13 * p4
    f13_seen = f03 * p4
    m32, m23, m23_seen = (m31 - f31) + f22, m22 - f22, f13 + f13_seen
    # point 6: F wins from 3:2, or loses a break point at 2:3; the rest
    # is level at 3:3
    f32, f23, f23_seen = m32 * p5, m23 * p5, m23_seen * p5
    len_sum = (4.0 * f30 + 4.0 * (m03 - f03)
               + 5.0 * f31 + 5.0 * (m13 - f13) + 5.0 * (f03 - f13_seen)
               + 6.0 * f32 + 6.0 * (m23 - f23) + 6.0 * (m23_seen - f23_seen))
    bp_first = m03 + m13  # the break points first faced at points 4 and 5
    return (f30 + f31 + f32, len_sum, bp_first + m23,
            bp_first + f03 + m23 + m23_seen, m32 - f32, f23 + f23_seen)


def metrics_exact(sched: ServeSchedule, prof: ServeProfile) -> GameMetrics:
    """Exact GameMetrics for any schedule.

    A six-point prefix is propagated point by point and whatever stays
    level after it enters the tied region, which the deuce closure
    resolves; a deuce-type game is the closure alone.  Break-point
    fields are filled only when F serves every point of the schedule;
    otherwise they are None.  Every field is a plain float.
    """
    pick = prof._pair
    a, b = sched._pick_ends(pick)
    c_win, c_len, c_bp_indicator, c_bp_count = _closure(a, b)
    # tuple.__new__ is what GameMetrics._make calls
    if not sched.prefix:
        # a deuce-type game: from _lattice's level start every sum below
        # would be 0.0 + 1.0 * x, which is x for the closure's non-negative
        # values, and 0.0 for a -0.0 win (a -0.0 chance makes a_b -0.0),
        # so the win keeps its 0.0 +
        level_win = 0.0 + c_win
        if sched.all_f_served:
            return _new(GameMetrics, (level_win, c_len, c_bp_indicator, c_bp_count))
        return _new(GameMetrics, (level_win, c_len, None, None))
    won, len_sum, bp_first, bp_visits, tie_clean, tie_seen = _lattice(sched, pick)
    tie_total = tie_clean + tie_seen
    win = won + tie_total * c_win
    points = len_sum + tie_total * (6.0 + c_len)
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

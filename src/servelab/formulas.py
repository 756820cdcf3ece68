"""Closed-form evaluators for every game variant.

One operation per published quantity: win probability, break-point
probability, expected number of points, expected number of break points,
for the A / Bj / T / B / C(3) games.  Validated against the exact engine
(see engine.py), which is the authoritative definition; the B and C(3)
polynomials below were derived by symbolic path enumeration and
cross-checked against the engine to 1e-12.

Conventions: p is F's per-point win chance where a single number suffices
(A, T); two-variable games take a ServeProfile (p_F, p_S) with q = 1 - p
complements computed at use sites.  `CLOSED_FORMS` is the one place that
says which game has which forms; `closed_metrics` evaluates them by game.
"""

from __future__ import annotations

import math

from .errors import SingularProfile
from .types import RuleKind, ServeProfile

__all__ = [
    "CLOSED_FORMS",
    "agrees",
    "closed_metrics",
    "engine_gap",
    "p_win_A",
    "p_bp_A",
    "e_points_A",
    "e_bp_A",
    "p_win_Bj",
    "e_points_Bj",
    "p_win_T",
    "p_win_T_omalley",
    "p_bp_T",
    "e_points_T",
    "e_bp_T",
    "p_win_B",
    "e_points_B",
    "p_win_C",
    "p_bp_C",
    "e_points_C",
    "e_bp_C",
]

_MIN_DENOM = 1e-300


def _closure_denom(a: float, b: float) -> float:
    d = a * b + (1.0 - a) * (1.0 - b)
    if d < _MIN_DENOM:
        raise SingularProfile(
            f"tied-region cycle ({a}, {b}) never terminates (denominator 0)"
        )
    return d


# ---------------------------------------------------------------- A-type

def p_win_A(p: float) -> float:
    """Chance F wins a deuce-type game serving every point."""
    q = 1.0 - p
    pp = p * p
    return pp / (pp + q * q)


def p_bp_A(p: float) -> float:
    """Chance at least one break point occurs in the A game."""
    q = 1.0 - p
    return q / (q + p * p)


def e_points_A(p: float) -> float:
    """Expected number of points in the A game."""
    q = 1.0 - p
    return 2.0 / (p * p + q * q)


def e_bp_A(p: float) -> float:
    """Expected number of break points in the A game."""
    q = 1.0 - p
    return q / (p * p + q * q)


# --------------------------------------------------------------- Bj-type

def p_win_Bj(prof: ServeProfile) -> float:
    """Chance F wins the alternating-serve deuce-type game."""
    pf, ps = prof.p_f, prof.p_s
    d = _closure_denom(pf, ps)
    return pf * ps / d


def e_points_Bj(prof: ServeProfile) -> float:
    """Expected number of points in the Bj game."""
    return 2.0 / _closure_denom(prof.p_f, prof.p_s)


# ---------------------------------------------------------------- T-type

def p_win_T(p: float) -> float:
    """Chance F wins the existing tennis game at per-point chance p."""
    q = 1.0 - p
    pre = p**4 * (1.0 + 4.0 * q + 10.0 * q * q)
    deuce = 20.0 * p**3 * q**3
    return pre + deuce * p * p / (p * p + q * q)


def p_win_T_omalley(p: float) -> float:
    """Alternative published form of p_win_T; identical function of p."""
    q = 1.0 - p
    return p**4 * (15.0 - 4.0 * p - 10.0 * p * p / (1.0 - 2.0 * p * q))


def p_bp_T(p: float) -> float:
    """Chance at least one break point occurs in the T game."""
    q = 1.0 - p
    q3 = q**3
    pre = q3 * (1.0 + 3.0 * p + 6.0 * p * p)
    # half of the 3:3 mass arrives without ever standing at a break point
    deuce_clean = 10.0 * p**3 * q3
    return pre + deuce_clean * q / (q + p * p)


def e_points_T(p: float) -> float:
    """Expected number of points in the T game."""
    q = 1.0 - p
    p3, q3, pp_qq = p**3, q**3, p * p + q * q
    end4 = p**4 + q**4
    end5 = 4.0 * p * q * (p3 + q3)
    end6 = 10.0 * p * p * q * q * pp_qq
    deuce = 20.0 * p3 * q3
    return 4.0 * end4 + 5.0 * end5 + 6.0 * end6 + deuce * (6.0 + 2.0 / pp_qq)


def e_bp_T(p: float) -> float:
    """Expected number of break points in the T game."""
    q = 1.0 - p
    q3 = q**3
    pre = q3 * (1.0 + 4.0 * p + 10.0 * p * p)
    deuce = 20.0 * p**3 * q3
    return pre + deuce * q / (p * p + q * q)


# ---------------------------------------------------------------- B-type
#
# The B and C(3) forms are polynomials in p_S, q_S, p_F, q_F (q = 1 - p),
# derived by enumerating every pre-3:3 path of the schedule and verified
# against the exact engine.  A bracketed pair is a monomial plus its twin on
# the complemented profile (p <-> q at both sources).  Coefficients multiply
# their bracket and terms add left to right: that grouping fixes every float
# operation, so regrouping would change results in the last place.
#
# The arithmetic rules of the exact path, here and in engine.py:
#
# - A subexpression that a function evaluates more than once, identical as
#   a tree (same operands, same left-to-right grouping), is evaluated once
#   into a local.  ps2 is ps**2, and a product's local names its factors
#   left to right: ps2_qs is ps2 * qs.  `**` stays `**`, since x**3 and
#   x * x * x can differ in the last place.  _tie_mass takes the powers and
#   products its caller has already formed.
# - Each local is assigned once, so a repeated tree is a repeated value.
# - One statement assigns at most three names: CPython stores up to three
#   values straight off its stack, but builds and unpacks a tuple for four.
# - Coefficients are float literals (9.0, not 9).  CPython specializes float
#   arithmetic only when both operands are floats, so an int coefficient
#   sends its operation down the generic path.  float arithmetic converts an
#   int operand to a double first, and every coefficient is below 2**53, so
#   the conversion is exact and 9 * x and 9.0 * x give the same bits.  `**`
#   exponents stay ints.
#
# tests/test_engine.py checks each rule but the naming on every function of
# the exact path.


def _tie_mass(ps_qs2, ps2_qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3):
    """Mass reaching the first 3:3 tie: three points at each source, F takes 3 of 6."""
    return (9.0 * (ps_qs2 * pf2 * qf + ps2_qs * pf * qf2)
            + (ps3 * qf3 + qs3 * pf3))


def p_win_B(prof: ServeProfile) -> float:
    """Chance F wins the complete alternating-serve game."""
    ps, pf = prof.p_s, prof.p_f
    d = _closure_denom(pf, ps)
    qs, qf = 1.0 - ps, 1.0 - pf
    ps2, qs2 = ps**2, qs**2
    pf2, qf2 = pf**2, qf**2
    ps3, qs3 = ps**3, qs**3
    pf3, qf3 = pf**3, qf**3
    ps2_pf2, ps2_qs, ps_qs2 = ps2 * pf2, ps2 * qs, ps * qs2
    pre = (ps2_pf2 + 2.0 * (ps * qs * pf3) + 2.0 * (ps2_pf2 * qf)
           + 6.0 * (ps2_qs * pf2 * qf) + 3.0 * (ps3 * pf * qf2)
           + ps_qs2 * pf3)
    tie = _tie_mass(ps_qs2, ps2_qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3)
    return pre + tie * pf * ps / d


def e_points_B(prof: ServeProfile) -> float:
    """Expected number of points in the complete alternating-serve game."""
    ps, pf = prof.p_s, prof.p_f
    d = _closure_denom(pf, ps)
    qs, qf = 1.0 - ps, 1.0 - pf
    ps2, qs2 = ps**2, qs**2
    pf2, qf2 = pf**2, qf**2
    ps3, qs3 = ps**3, qs**3
    pf3, qf3 = pf**3, qf**3
    ps_qs, ps2_pf2 = ps * qs, ps2 * pf2
    ps2_qs, ps_qs2 = ps2 * qs, ps * qs2
    # length-weighted absorption mass: 4 * end@4 + 5 * end@5 + 6 * end@6
    pre = (4.0 * (ps2_pf2 + qs2 * qf2)
           + 10.0 * (ps2_pf2 * qf + qs2 * pf * qf2)
           + 10.0 * (ps_qs * pf3 + ps_qs * qf3)
           + 18.0 * (ps3 * pf * qf2 + qs3 * pf2 * qf)
           + 36.0 * (ps2_qs * pf2 * qf + ps_qs2 * pf * qf2)
           + 6.0 * (ps_qs2 * pf3 + ps2_qs * qf3))
    tie = _tie_mass(ps_qs2, ps2_qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3)
    return pre + tie * (6.0 + 2.0 / d)


# ---------------------------------------------------------------- C-type
#
# C(3): points 1..3 resolve at p_F (two attempts), every later point at
# p_S (single attempt), F serving throughout so break points are defined.
# The tie cycle plays at p_S alone: ps * ps + qs * qs >= 1/2, never singular.


def p_win_C(prof: ServeProfile) -> float:
    """Chance F wins the C(3) game."""
    ps, pf = prof.p_s, prof.p_f
    qs, qf = 1.0 - ps, 1.0 - pf
    ps2, qs2 = ps**2, qs**2
    pf2, qf2 = pf**2, qf**2
    ps3, qs3 = ps**3, qs**3
    pf3, qf3 = pf**3, qf**3
    ps2_qs, ps_qs2 = ps2 * qs, ps * qs2
    pre = (ps * pf3 + ps * qs * pf3 + 3.0 * (ps2 * pf2 * qf) + ps_qs2 * pf3
           + 6.0 * (ps2_qs * pf2 * qf) + 3.0 * (ps3 * pf * qf2))
    tie = _tie_mass(ps_qs2, ps2_qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3)
    return pre + tie * ps * ps / (ps * ps + qs * qs)


def p_bp_C(prof: ServeProfile) -> float:
    """Chance at least one break point occurs in the C(3) game."""
    ps, pf = prof.p_s, prof.p_f
    qs, qf = 1.0 - ps, 1.0 - pf
    qs2, pf2, qf2 = qs**2, pf**2, qf**2
    # first arrival at a stand-one-point-from-break state (S at 3, F at <= 2)
    first = (qf**3 + 3.0 * (qs * pf * qf2) + 3.0 * (qs2 * pf2 * qf)
             + 3.0 * (ps * qs * pf * qf2))
    # mass reaching 3:3 without ever having faced a break point
    clean = (qs**3 * pf**3 + 6.0 * (ps * qs2 * pf2 * qf)
             + 3.0 * (ps**2 * qs * pf * qf2))
    return first + clean * qs / (qs + ps * ps)


def e_points_C(prof: ServeProfile) -> float:
    """Expected number of points in the C(3) game."""
    ps, pf = prof.p_s, prof.p_f
    qs, qf = 1.0 - ps, 1.0 - pf
    ps2, qs2 = ps**2, qs**2
    pf2, qf2 = pf**2, qf**2
    ps3, qs3 = ps**3, qs**3
    pf3, qf3 = pf**3, qf**3
    ps_qs, ps2_qs, ps_qs2 = ps * qs, ps2 * qs, ps * qs2
    pre = (4.0 * (ps * pf3 + qs * qf3)
           + 5.0 * (ps_qs * pf3 + ps_qs * qf3)
           + 15.0 * (ps2 * pf2 * qf + qs2 * pf * qf2)
           + 18.0 * (ps3 * pf * qf2 + qs3 * pf2 * qf)
           + 36.0 * (ps2_qs * pf2 * qf + ps_qs2 * pf * qf2)
           + 6.0 * (ps_qs2 * pf3 + ps2_qs * qf3))
    tie = _tie_mass(ps_qs2, ps2_qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3)
    return pre + tie * (6.0 + 2.0 / (ps * ps + qs * qs))


def e_bp_C(prof: ServeProfile) -> float:
    """Expected number of break points in the C(3) game."""
    ps, pf = prof.p_s, prof.p_f
    qs, qf = 1.0 - ps, 1.0 - pf
    ps2, qs2 = ps**2, qs**2
    pf2, qf2 = pf**2, qf**2
    ps3, qs3 = ps**3, qs**3
    pf3, qf3 = pf**3, qf**3
    # every occupancy of a break-point state before 3:3, counted per point
    visits = (qf3 + ps * qf3 + ps2 * qf3 + 3.0 * (qs * pf * qf2)
              + 6.0 * (ps * qs * pf * qf2) + 3.0 * (qs2 * pf2 * qf))
    tie = _tie_mass(ps * qs2, ps2 * qs, pf, qf, pf2, qf2, ps3, qs3, pf3, qf3)
    return visits + tie * qs / (ps * ps + qs * qs)


# ---------------------------------------------------------------- table
#
# Which GameMetrics fields have a closed form in each game.  Bj and B
# have no break-point forms (the serve alternates, so break points are
# undefined); C's forms hold only at its headline cutoff x = 3.

CLOSED_FORMS = {
    RuleKind.A: (("win_prob", p_win_A), ("bp_prob", p_bp_A),
                 ("expected_points", e_points_A), ("expected_bps", e_bp_A)),
    RuleKind.BJ: (("win_prob", p_win_Bj), ("expected_points", e_points_Bj)),
    RuleKind.T: (("win_prob", p_win_T), ("bp_prob", p_bp_T),
                 ("expected_points", e_points_T), ("expected_bps", e_bp_T)),
    RuleKind.B: (("win_prob", p_win_B), ("expected_points", e_points_B)),
    RuleKind.C: (("win_prob", p_win_C), ("bp_prob", p_bp_C),
                 ("expected_points", e_points_C), ("expected_bps", e_bp_C)),
}


def closed_metrics(kind: RuleKind, prof: ServeProfile, x: int = 3) -> dict[str, float]:
    """Every closed-form metric of game `kind`, keyed by GameMetrics field.

    A and T are functions of p = prof.p_f alone; the other games take the
    whole profile.  Game C has closed forms only at x = 3, so any other
    cutoff gives {}; x is ignored for the other games.
    """
    if kind is RuleKind.C and x != 3:
        return {}
    arg = prof.p_f if kind.scalar else prof
    return {field: fn(arg) for field, fn in CLOSED_FORMS[kind]}


def agrees(closed: float, engine: float) -> bool:
    """The closed-form/engine agreement rule: |closed - engine| <= 1e-9
    for values up to 1000, a relative 1e-12 beyond (huge expected lengths
    near a singular profile differ in the last place)."""
    return math.isclose(closed, engine, rel_tol=1e-12, abs_tol=1e-9)


def engine_gap(closed: dict[str, float], metrics) -> tuple[float, bool]:
    """Compare closed forms with the engine's GameMetrics, field by field.

    Returns the worst |closed - engine| over the fields `closed` names
    (0.0 when it names none) and whether every one of them `agrees`.
    """
    worst = 0.0
    for field, value in closed.items():
        worst = max(worst, abs(value - getattr(metrics, field)))
    return worst, all(agrees(v, getattr(metrics, f)) for f, v in closed.items())

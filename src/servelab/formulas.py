"""Closed-form evaluators for every game variant.

One operation per published quantity: win probability, break-point
probability, expected number of points, expected number of break points,
for the A / Bj / T / B / C(3) games.  Validated against the exact engine
(see engine.py), which is the authoritative definition; the monomial
tables below were derived by symbolic path enumeration and cross-checked
against the engine to 1e-12.

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
    return p * p / (p * p + q * q)


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
    d = _closure_denom(prof.p_f, prof.p_s)
    return prof.p_f * prof.p_s / d


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
    pre = q**3 * (1.0 + 3.0 * p + 6.0 * p * p)
    # half of the 3:3 mass arrives without ever standing at a break point
    deuce_clean = 10.0 * p**3 * q**3
    return pre + deuce_clean * q / (q + p * p)


def e_points_T(p: float) -> float:
    """Expected number of points in the T game."""
    q = 1.0 - p
    end4 = p**4 + q**4
    end5 = 4.0 * p * q * (p**3 + q**3)
    end6 = 10.0 * p * p * q * q * (p * p + q * q)
    deuce = 20.0 * p**3 * q**3
    return 4.0 * end4 + 5.0 * end5 + 6.0 * end6 + deuce * (6.0 + 2.0 / (p * p + q * q))


def e_bp_T(p: float) -> float:
    """Expected number of break points in the T game."""
    q = 1.0 - p
    pre = q**3 * (1.0 + 4.0 * p + 10.0 * p * p)
    deuce = 20.0 * p**3 * q**3
    return pre + deuce * q / (p * p + q * q)


# ---------------------------------------------------------------- B-type
#
# Monomial tables in the four-variable serve algebra.  An entry
# (coeff, (a, b, g, d), symmetric) is coeff * p_S^a q_S^b p_F^g q_F^d with
# q = 1 - p; a symmetric entry adds its twin with exponents (b, a, d, g),
# the same monomial on the complemented profile.  Derived by enumerating
# every pre-3:3 path of the alternating schedule and grouped with the swap
# symmetry; verified against the exact engine.

# mass reaching the first 3:3 tie: three points at each source, F takes 3 of 6
_TIE_MASS = (
    (9, (1, 2, 2, 1), True),
    (1, (3, 0, 0, 3), True),
)

_B_WIN_PRE = (
    (1, (2, 0, 2, 0), False),
    (2, (1, 1, 3, 0), False),
    (2, (2, 0, 2, 1), False),
    (6, (2, 1, 2, 1), False),
    (3, (3, 0, 1, 2), False),
    (1, (1, 2, 3, 0), False),
)

# length-weighted absorption mass: 4 * end@4 + 5 * end@5 + 6 * end@6
_B_LEN_PRE = (
    (4, (2, 0, 2, 0), True),
    (10, (2, 0, 2, 1), True),
    (10, (1, 1, 3, 0), True),
    (18, (3, 0, 1, 2), True),
    (36, (2, 1, 2, 1), True),
    (6, (1, 2, 3, 0), True),
)


def _tsum(terms, prof: ServeProfile) -> float:
    ps, pf = prof.p_s, prof.p_f
    qs, qf = 1.0 - ps, 1.0 - pf
    total = 0
    for coeff, (a, b, g, d), symmetric in terms:
        val = ps**a * qs**b * pf**g * qf**d
        if symmetric:
            val += ps**b * qs**a * pf**d * qf**g
        total += coeff * val
    return total


def p_win_B(prof: ServeProfile) -> float:
    """Chance F wins the complete alternating-serve game."""
    d = _closure_denom(prof.p_f, prof.p_s)
    tie = _tsum(_TIE_MASS, prof)
    return _tsum(_B_WIN_PRE, prof) + tie * prof.p_f * prof.p_s / d


def e_points_B(prof: ServeProfile) -> float:
    """Expected number of points in the complete alternating-serve game."""
    d = _closure_denom(prof.p_f, prof.p_s)
    tie = _tsum(_TIE_MASS, prof)
    return _tsum(_B_LEN_PRE, prof) + tie * (6.0 + 2.0 / d)


# ---------------------------------------------------------------- C-type
#
# C(3): points 1..3 resolve at p_F (two attempts), every later point at
# p_S (single attempt), F serving throughout so break points are defined.

_C_WIN_PRE = (
    (1, (1, 0, 3, 0), False),
    (1, (1, 1, 3, 0), False),
    (3, (2, 0, 2, 1), False),
    (1, (1, 2, 3, 0), False),
    (6, (2, 1, 2, 1), False),
    (3, (3, 0, 1, 2), False),
)

_C_LEN_PRE = (
    (4, (1, 0, 3, 0), True),
    (5, (1, 1, 3, 0), True),
    (15, (2, 0, 2, 1), True),
    (18, (3, 0, 1, 2), True),
    (36, (2, 1, 2, 1), True),
    (6, (1, 2, 3, 0), True),
)

# first arrival at a stand-one-point-from-break state (S at 3, F at <= 2)
_C_BP_FIRST = (
    (1, (0, 0, 0, 3), False),
    (3, (0, 1, 1, 2), False),
    (3, (0, 2, 2, 1), False),
    (3, (1, 1, 1, 2), False),
)

# mass reaching 3:3 without ever having faced a break point
_C_TIE_CLEAN = (
    (1, (0, 3, 3, 0), False),
    (6, (1, 2, 2, 1), False),
    (3, (2, 1, 1, 2), False),
)

# every occupancy of a break-point state before 3:3, counted per point
_C_BP_VISITS = (
    (1, (0, 0, 0, 3), False),
    (1, (1, 0, 0, 3), False),
    (1, (2, 0, 0, 3), False),
    (3, (0, 1, 1, 2), False),
    (6, (1, 1, 1, 2), False),
    (3, (0, 2, 2, 1), False),
)


def _c_tie_denom(prof: ServeProfile) -> float:
    ps = prof.p_s
    qs = 1.0 - ps
    return ps * ps + qs * qs  # >= 1/2, never singular


def p_win_C(prof: ServeProfile) -> float:
    """Chance F wins the C(3) game."""
    ps = prof.p_s
    tie = _tsum(_TIE_MASS, prof)
    return _tsum(_C_WIN_PRE, prof) + tie * ps * ps / _c_tie_denom(prof)


def p_bp_C(prof: ServeProfile) -> float:
    """Chance at least one break point occurs in the C(3) game."""
    ps = prof.p_s
    qs = 1.0 - ps
    clean = _tsum(_C_TIE_CLEAN, prof)
    return _tsum(_C_BP_FIRST, prof) + clean * qs / (qs + ps * ps)


def e_points_C(prof: ServeProfile) -> float:
    """Expected number of points in the C(3) game."""
    tie = _tsum(_TIE_MASS, prof)
    return _tsum(_C_LEN_PRE, prof) + tie * (6.0 + 2.0 / _c_tie_denom(prof))


def e_bp_C(prof: ServeProfile) -> float:
    """Expected number of break points in the C(3) game."""
    ps = prof.p_s
    qs = 1.0 - ps
    tie = _tsum(_TIE_MASS, prof)
    return _tsum(_C_BP_VISITS, prof) + tie * qs / _c_tie_denom(prof)


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
    arg = prof.p_f if kind in (RuleKind.A, RuleKind.T) else prof
    return {field: fn(arg) for field, fn in CLOSED_FORMS[kind]}


def agrees(closed: float, engine: float) -> bool:
    """The closed-form/engine agreement rule: |closed - engine| <= 1e-9
    for values up to 1000, a relative 1e-12 beyond (huge expected lengths
    near a singular profile differ in the last place)."""
    return math.isclose(closed, engine, rel_tol=1e-12, abs_tol=1e-9)

"""Domain vocabulary: probabilities, serve profiles, rule kinds, schedules.

All types are immutable values and safe to share between threads, and
the rule_* factories return shared ones: the 13 schedules A, Bj(1, 2),
T, B(1, 2) and C(0..6) are built once, at import, and a call looks its
schedule up.  One rule sorts the records, here and in the other modules:
an input, whose __init__ checks the values a caller gives it, derives
from _Record (ServeProfile, ServeSchedule and simulate.SimConfig); an
output, such as GameMetrics, is a typing.NamedTuple.  A _Record keeps
its fields in __slots__, __init__ writes each one once through
object.__setattr__, and any later assignment or deletion raises
AttributeError.

A schedule's source pattern is fixed when it is built, so ServeSchedule
builds with it the getters that map a profile's (p_F, p_S) pair to point
chances; a call reads its chances through them and tests no source.
A ServeProfile is checked once, in its __init__, and the engine reads it
without a second check.  ORDERS and CUTOFFS name the serve orders of Bj
and B and game C's cutoffs once, for the factories, the command line and
the shaping warning.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import NamedTuple

from .errors import RangeError, _shown

__all__ = [
    "PointSource",
    "RuleKind",
    "ServeProfile",
    "ServeSchedule",
    "GameMetrics",
    "rule_a",
    "rule_bj",
    "rule_t",
    "rule_b",
    "rule_c",
    "schedule_for",
]


_set = object.__setattr__  # how a _Record's __init__ writes its fields


class _Record:
    """Immutable value whose ==, hash and repr read its _fields in order.

    A subclass names its fields once, as `__slots__ = _fields = (...)`,
    and writes them in its own __init__ with _set before checking them.
    Equality holds only between instances of the same class; repr reads
    `Name(field=value, ...)`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()


def _is_number(value) -> bool:
    """The type rule for a chance: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and value.__class__ is not bool


def _is_int(value) -> bool:
    """The type rule for a count or an index: an int, but not a bool."""
    return isinstance(value, int) and value.__class__ is not bool


def _check_unit(name: str, value: float) -> None:
    if not _is_number(value):
        raise RangeError(f"{name} must be a number", value)
    if not 0.0 <= value <= 1.0:
        raise RangeError(f"{name} must lie in [0, 1]", value)


class PointSource(enum.Enum):
    """Which probability governs a point, and who serves it.

    F_FULL   - player F serves with both attempts available (resolves to p_F)
    F_SINGLE - player F serves but a first-serve fault loses the point
               (resolves to p_S)
    S_SERVE  - player S serves (also resolves to p_S: numerically the same
               weaker chance for F, semantically a different server)
    """

    F_FULL = "F_FULL"
    F_SINGLE = "F_SINGLE"
    S_SERVE = "S_SERVE"


class RuleKind(enum.Enum):
    """The five game variants the library evaluates.

    A  - deuce-type game, F serves every point
    BJ - deuce-type game, serve alternating every point
    T  - the existing tennis game (F serves throughout, two attempts)
    B  - complete game with the serve alternating every point
    C  - proposed game: second serve allowed only on the first x points
    """

    A = "A"
    BJ = "Bj"
    T = "T"
    B = "B"
    C = "C"

    @property
    def scalar(self) -> bool:
        """True for A and T: F serves every point with both attempts, so
        one point chance p (= p_F) is the whole profile."""
        return self is RuleKind.A or self is RuleKind.T


class ServeProfile(_Record):
    """The pair (p_F, p_S).

    p_f: chance F wins a point on a full (two-attempt) serve.
    p_s: chance F wins a point under the weaker condition, i.e. when S
         serves or when F is restricted to a single attempt.
    """

    __slots__ = _fields = ("p_f", "p_s")

    def __init__(self, p_f: float, p_s: float):
        _set(self, "p_f", p_f)
        _set(self, "p_s", p_s)
        _check_unit("p_f", p_f)
        _check_unit("p_s", p_s)


class ServeSchedule(_Record):
    """Per-point probability-source pattern for one game.

    Both fields are stored as tuples of PointSource, whatever sequence of
    PointSource they were given as.

    prefix: sources for points 1..6 (a complete game reaches 3:3 or is
        decided within six points, so six entries always suffice).  An
        empty prefix means a deuce-type game that starts directly in the
        tied region.
    deuce_cycle: repeating unit of length 1 or 2 applied at and after the
        first tie at 3:3 (or from the start, for deuce-type games).
    all_f_served: True when F serves every point, so break points are
        defined.  Derived from the two fields in __init__, it is not a
        field itself: ==, hash, repr and pickle read only those two.

    Two more derived slots map a (p_f, p_s) pair to point chances:
    _pick_prefix gives the prefix's chances and _pick_ends the cycle's
    two ends (cycle[0], cycle[-1]), equal for a one-point cycle.
    """

    _fields = ("prefix", "deuce_cycle")
    __slots__ = (*_fields, "all_f_served", "_pick_prefix", "_pick_ends")

    def __init__(
        self, prefix: tuple[PointSource, ...], deuce_cycle: tuple[PointSource, ...]
    ):
        try:
            prefix, deuce_cycle = tuple(prefix), tuple(deuce_cycle)
        except TypeError:  # not iterable
            raise RangeError("prefix and deuce_cycle must be sequences of PointSource",
                             (prefix, deuce_cycle)) from None
        _set(self, "prefix", prefix)
        _set(self, "deuce_cycle", deuce_cycle)
        if len(prefix) not in (0, 6):
            raise RangeError(
                f"prefix must cover points 1..6 or be empty, got length {len(prefix)}"
            )
        if len(deuce_cycle) not in (1, 2):
            raise RangeError("deuce cycle length must be 1 or 2", len(deuce_cycle))
        for src in prefix + deuce_cycle:
            if src.__class__ is not PointSource:
                raise RangeError("schedule entries must be PointSource", src)
        _set(self, "all_f_served", _S not in prefix and _S not in deuce_cycle)
        # a source indexes a (p_f, p_s) pair: 0 for F_FULL, 1 otherwise;
        # an empty prefix picks the empty slice, as itemgetter() takes no index
        picks = [0 if src is _F else 1 for src in prefix + deuce_cycle[:1] + deuce_cycle[-1:]]
        _set(self, "_pick_prefix", itemgetter(*picks[:-2]) if prefix else itemgetter(slice(0)))
        _set(self, "_pick_ends", itemgetter(*picks[-2:]))

    def prefix_probs(self, prof: ServeProfile) -> tuple[float, ...]:
        return self._pick_prefix((prof.p_f, prof.p_s))

    def cycle_probs(self, prof: ServeProfile) -> tuple[float, ...]:
        return self._pick_ends((prof.p_f, prof.p_s))[:len(self.deuce_cycle)]


_F = PointSource.F_FULL
_G = PointSource.F_SINGLE
_S = PointSource.S_SERVE


ORDERS = range(1, 3)  # the serve orders of games Bj and B
CUTOFFS = range(7)  # game C's cutoffs x: two serve attempts on the first x points

_RULE_A = ServeSchedule(prefix=(), deuce_cycle=(_F,))
_RULE_BJ = dict(zip(ORDERS, (
    ServeSchedule(prefix=(), deuce_cycle=(_F, _S)),
    ServeSchedule(prefix=(), deuce_cycle=(_S, _F)),
)))
_RULE_T = ServeSchedule(prefix=(_F,) * 6, deuce_cycle=(_F,))
_RULE_B = dict(zip(ORDERS, (
    ServeSchedule(prefix=(_F, _S, _F, _S, _F, _S), deuce_cycle=(_F, _S)),
    ServeSchedule(prefix=(_F, _S, _S, _F, _F, _S), deuce_cycle=(_S, _F)),
)))
_RULE_C = {
    x: ServeSchedule(prefix=(_F,) * x + (_G,) * (6 - x), deuce_cycle=(_G,))
    for x in CUTOFFS
}
# The factories look their value up by key, so any number equal to a key
# selects it, as it did when they built the schedule: rule_bj(1.0) is
# order 1 and rule_c(True) is x = 1.


def rule_a() -> ServeSchedule:
    """Deuce-type game, F serving every point."""
    return _RULE_A


def rule_bj(order: int = 1) -> ServeSchedule:
    """Deuce-type game with the serve alternating every point.

    order=1 starts with F's serve, order=2 with S's; both give the same
    metrics.
    """
    if order not in ORDERS:
        raise RangeError(f"order must be {ORDERS[0]} or {ORDERS[-1]}", order)
    return _RULE_BJ[order]


def rule_t() -> ServeSchedule:
    """The existing tennis game: F serves all points with two attempts."""
    return _RULE_T


def rule_b(order: int = 1) -> ServeSchedule:
    """Complete game with the serve alternating every point.

    order=1 is the plain alternation F,S,F,S,...  order=2 alternates in
    pairs after the opening point (F,S,S,F,F,S then S,F repeating), the
    way tie-break service order works; the two orders give identical
    metrics.
    """
    if order not in ORDERS:
        raise RangeError(f"order must be {ORDERS[0]} or {ORDERS[-1]}", order)
    return _RULE_B[order]


def rule_c(x: int = 3) -> ServeSchedule:
    """Proposed game: two serve attempts only on the first x points.

    From point x+1 on, F still serves but a first-serve fault loses the
    point, so those points resolve at p_S.  The headline proposal is x=3.
    """
    if not isinstance(x, int) or x not in CUTOFFS:
        raise RangeError(f"x must be an integer in {CUTOFFS[0]}..{CUTOFFS[-1]}", x)
    return _RULE_C[x]


def schedule_for(kind: RuleKind, order: int = 1, x: int = 3) -> ServeSchedule:
    """Canned schedule for a rule kind (order for Bj/B, x for C)."""
    if kind is RuleKind.A:
        return rule_a()
    if kind is RuleKind.BJ:
        return rule_bj(order)
    if kind is RuleKind.T:
        return rule_t()
    if kind is RuleKind.B:
        return rule_b(order)
    if kind is RuleKind.C:
        return rule_c(x)
    raise RangeError(f"unknown rule kind {_shown(kind)}")


class GameMetrics(NamedTuple):
    """The four outputs of one game evaluation.

    bp_prob / expected_bps are None for schedules where the serve changes
    hands (a break point is undefined there).  When present, the count is
    at least the indicator.
    """

    win_prob: float
    expected_points: float
    bp_prob: float | None = None
    expected_bps: float | None = None

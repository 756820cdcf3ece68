import copy
import enum
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from servelab.atp import FitRow, FitSummary, PlayerStats
from servelab.engine import deuce_closure, walk_expected_duration
from servelab.errors import RangeError, ServelabError
from servelab.formulas import p_win_C
from servelab.shaping import CompareRow, ShapingSolution, invert_p_win_T
from servelab.simulate import MetricEstimate, SimConfig, SimResult
from servelab.types import (
    CUTOFFS,
    ORDERS,
    GameMetrics,
    PointSource,
    RuleKind,
    ServeProfile,
    ServeSchedule,
    _check_unit,
    _Record,
    rule_a,
    rule_b,
    rule_bj,
    rule_c,
    rule_t,
    schedule_for,
)

F = PointSource.F_FULL
G = PointSource.F_SINGLE
S = PointSource.S_SERVE


class TestServeProfile:
    def test_valid(self):
        prof = ServeProfile(0.0, 1.0)
        assert prof.p_f == 0.0 and prof.p_s == 1.0

    @pytest.mark.parametrize("pf,ps", [(-0.1, 0.5), (1.1, 0.5), (0.5, -1e-9), (0.5, 2.0)])
    def test_out_of_range(self, pf, ps):
        with pytest.raises(RangeError):
            ServeProfile(pf, ps)

    @pytest.mark.parametrize("pf,ps", [
        ("a", 0.5), (0.5, None), (True, 0.5), (0.5, False),
        pytest.param(Decimal("0.6"), 0.6, id="Decimal-0.6"),
        pytest.param(0.6, Fraction(1, 2), id="0.6-Fraction"),
    ])
    def test_not_a_number(self, pf, ps):
        with pytest.raises(RangeError, match="must be a number"):
            ServeProfile(pf, ps)

    def test_numbers_stored_as_given(self):
        prof = ServeProfile(1, 0.25)
        assert (type(prof.p_f), prof.p_f, prof.p_s) == (int, 1, 0.25)

    def test_immutable(self):
        prof = ServeProfile(0.6, 0.5)
        with pytest.raises(Exception):
            prof.p_f = 0.9



class _Float(float):
    pass


# the type and range rule's edge values: each sign of zero, the least and
# the next-past-one floats, the non-finite ones, and the types besides an
# exact float that the fast path leaves to _check_unit
_UNIT_EDGES = [0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), math.nan, math.inf,
               -math.inf, _Float(0.25), _Float(-0.0), _Float(1.5), 0, 1, 2, True, False,
               Decimal("0.5"), None]


def _outcome(call, *args):
    """("ok", result) or (error class name, message)."""
    try:
        return "ok", call(*args)
    except Exception as exc:
        return exc.__class__.__name__, str(exc)


class TestProfileCheck:
    """ServeProfile accepts and refuses what _check_unit does, with its
    message, and keeps the float pair the engine reads out of the value."""

    @pytest.mark.parametrize("value", _UNIT_EDGES, ids=repr)
    @pytest.mark.parametrize("position", [0, 1])
    def test_same_verdict_as_check_unit(self, value, position):
        name = ServeProfile._fields[position]
        args = [0.5, 0.5]
        args[position] = value
        want = _outcome(_check_unit, name, value)
        got = _outcome(ServeProfile, *args)
        if want[0] != "ok":
            assert got == want
            return
        assert got[0] == "ok"
        prof = got[1]
        assert (prof.p_f, prof.p_s) == tuple(args)
        assert getattr(prof, name) is value  # stored as given
        pair = prof._pair
        assert [v.__class__ for v in pair] == [float, float]
        assert [v.hex() for v in pair] == [float(v).hex() for v in args]  # -0.0 stays -0.0

    def test_pair_is_not_a_field(self):
        prof = ServeProfile(1, 0.25)
        assert prof._pair == (1.0, 0.25) and prof._pair[0].__class__ is float
        assert prof._terms is None
        p_win_C(prof)  # fills _terms, which the B and C(3) forms share
        assert prof._terms is not None
        assert prof == ServeProfile(1, 0.25) and hash(prof) == hash(ServeProfile(1, 0.25))
        assert repr(prof) == "ServeProfile(p_f=1, p_s=0.25)"
        assert prof.__reduce__() == (ServeProfile, (1, 0.25))
        for twin in (pickle.loads(pickle.dumps(prof)), copy.copy(prof), copy.deepcopy(prof)):
            assert twin == prof and twin._pair == prof._pair and twin._terms is None
        with pytest.raises(AttributeError):
            prof._pair = (0.5, 0.5)
        with pytest.raises(AttributeError):
            prof._terms = None

class TestServeSchedule:
    def test_prefix_length_enforced(self):
        with pytest.raises(RangeError):
            ServeSchedule(prefix=(F, F, F), deuce_cycle=(F,))

    def test_cycle_length_enforced(self):
        with pytest.raises(RangeError):
            ServeSchedule(prefix=(F,) * 6, deuce_cycle=())
        with pytest.raises(RangeError):
            ServeSchedule(prefix=(F,) * 6, deuce_cycle=(F, S, F))

    def test_list_built_schedule_is_its_tuple_twin(self):
        sched = ServeSchedule(prefix=[F, S, F, S, F, S], deuce_cycle=[F, S])
        assert sched == rule_b(1) and hash(sched) == hash(rule_b(1))
        assert sched.prefix.__class__ is tuple and sched.deuce_cycle.__class__ is tuple
        assert repr(sched) == repr(rule_b(1))

    @pytest.mark.parametrize("prefix,cycle", [
        (("x",) * 6, (F,)),
        ((F,) * 6, ("F_FULL",)),
        ((), (F, 1)),
        ("FFFFFF", (F,)),
        (6, (F,)),
        ((), None),
    ], ids=["foreign-prefix", "foreign-cycle", "int-entry", "str", "int", "none"])
    def test_entries_must_be_point_sources(self, prefix, cycle):
        with pytest.raises(RangeError):
            ServeSchedule(prefix=prefix, deuce_cycle=cycle)

    def test_rule_a(self):
        sched = rule_a()
        assert not sched.prefix
        assert sched.deuce_cycle == (F,)
        assert sched.all_f_served

    def test_rule_bj_orders(self):
        assert rule_bj(1).deuce_cycle == (F, S)
        assert rule_bj(2).deuce_cycle == (S, F)
        assert not rule_bj(1).all_f_served
        with pytest.raises(RangeError):
            rule_bj(3)

    def test_rule_t(self):
        sched = rule_t()
        assert sched.prefix == (F,) * 6
        assert sched.deuce_cycle == (F,)
        assert sched.all_f_served

    def test_rule_b_orders(self):
        assert rule_b(1).prefix == (F, S, F, S, F, S)
        assert rule_b(1).deuce_cycle == (F, S)
        assert rule_b(2).prefix == (F, S, S, F, F, S)
        assert rule_b(2).deuce_cycle == (S, F)
        with pytest.raises(RangeError):
            rule_b(0)

    @pytest.mark.parametrize("x", range(7))
    def test_rule_c_prefix_composition(self, x):
        sched = rule_c(x)
        assert sched.prefix == (F,) * x + (G,) * (6 - x)
        assert sched.deuce_cycle == (G,)
        assert sched.all_f_served

    @pytest.mark.parametrize("x", [-1, 7, 2.5])
    def test_rule_c_rejects_bad_x(self, x):
        with pytest.raises(RangeError):
            rule_c(x)

    def test_schedule_for(self):
        assert schedule_for(RuleKind.A) == rule_a()
        assert schedule_for(RuleKind.BJ, order=2) == rule_bj(2)
        assert schedule_for(RuleKind.T) == rule_t()
        assert schedule_for(RuleKind.B, order=2) == rule_b(2)
        assert schedule_for(RuleKind.C, x=5) == rule_c(5)
        assert schedule_for(RuleKind.C) == rule_c(3)

    def test_scalar_games_resolve_every_point_at_p_f(self):
        prof = ServeProfile(0.8, 0.3)
        for kind in RuleKind:
            sched = schedule_for(kind)
            probs = sched.prefix_probs(prof) + sched.cycle_probs(prof)
            assert kind.scalar == (set(probs) == {0.8}), kind

    def test_prob_views(self):
        prof = ServeProfile(0.8, 0.3)
        assert rule_c(2).prefix_probs(prof) == (0.8, 0.8, 0.3, 0.3, 0.3, 0.3)
        assert rule_b(1).cycle_probs(prof) == (0.8, 0.3)


# each factory call with the schedule it stands for, built from literal sources
_RULES = [
    (rule_a, (), (), (F,)),
    (rule_bj, (1,), (), (F, S)),
    (rule_bj, (2,), (), (S, F)),
    (rule_t, (), (F, F, F, F, F, F), (F,)),
    (rule_b, (1,), (F, S, F, S, F, S), (F, S)),
    (rule_b, (2,), (F, S, S, F, F, S), (S, F)),
    (rule_c, (0,), (G, G, G, G, G, G), (G,)),
    (rule_c, (1,), (F, G, G, G, G, G), (G,)),
    (rule_c, (2,), (F, F, G, G, G, G), (G,)),
    (rule_c, (3,), (F, F, F, G, G, G), (G,)),
    (rule_c, (4,), (F, F, F, F, G, G), (G,)),
    (rule_c, (5,), (F, F, F, F, F, G), (G,)),
    (rule_c, (6,), (F, F, F, F, F, F), (G,)),
]


class TestSharedRules:
    """The rule_* factories return schedules built once, at import."""

    @pytest.mark.parametrize("factory,args,prefix,cycle", _RULES,
                             ids=[f"{r[0].__name__}{r[1]}" for r in _RULES])
    def test_equals_a_fresh_schedule(self, factory, args, prefix, cycle):
        fresh = ServeSchedule(prefix=prefix, deuce_cycle=cycle)
        shared = factory(*args)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert repr(shared) == repr(fresh)
        assert shared.all_f_served == fresh.all_f_served
        assert factory(*args) is shared

    @pytest.mark.parametrize("sched", [
        *(factory(*args) for factory, args, _, _ in _RULES),
        ServeSchedule(prefix=(), deuce_cycle=(G,)),
        ServeSchedule(prefix=(), deuce_cycle=(S,)),
        ServeSchedule(prefix=(F, F, F, F, F, S), deuce_cycle=(F,)),
        ServeSchedule(prefix=(G,) * 6, deuce_cycle=(F, G)),
        ServeSchedule(prefix=(S,) * 6, deuce_cycle=(G, S)),
        ServeSchedule(prefix=[F] * 6, deuce_cycle=[F]),
    ])
    def test_all_f_served(self, sched):
        assert sched.all_f_served == (S not in sched.prefix and S not in sched.deuce_cycle)

    def test_all_f_served_is_not_a_field(self):
        sched = ServeSchedule(prefix=(), deuce_cycle=(F, S))
        assert repr(sched) == f"ServeSchedule(prefix=(), deuce_cycle=({F!r}, {S!r}))"
        assert pickle.loads(pickle.dumps(sched)).all_f_served is False
        with pytest.raises(AttributeError):
            sched.all_f_served = True

    @pytest.mark.parametrize("call,message", [
        (lambda: rule_bj(3), "order must be 1 or 2, got 3"),
        (lambda: rule_b(0), "order must be 1 or 2, got 0"),
        (lambda: rule_c(7), "x must be an integer in 0..6, got 7"),
        (lambda: rule_c(1.5), "x must be an integer in 0..6, got 1.5"),
        (lambda: ServeProfile("0.5", 0.5), "p_f must be a number, got '0.5'"),
        (lambda: ServeProfile(0.5, 1.5), "p_s must lie in [0, 1], got 1.5"),
        (lambda: ServeSchedule((), None),
         "prefix and deuce_cycle must be sequences of PointSource, got ((), None)"),
        (lambda: ServeSchedule((F,) * 5, (F,)),
         "prefix must cover points 1..6 or be empty, got length 5"),
        (lambda: ServeSchedule((), ()), "deuce cycle length must be 1 or 2, got 0"),
        (lambda: ServeSchedule((), ("F",)), "schedule entries must be PointSource, got 'F'"),
        (lambda: schedule_for("C"), "unknown rule kind 'C'"),
        (lambda: deuce_closure(None), "cycle must be a sequence of 1 or 2 numbers, got None"),
        (lambda: deuce_closure((0.5,) * 3), "cycle length must be 1 or 2, got 3"),
        (lambda: deuce_closure((0.5, "0.5")), "cycle[1] must be a number, got '0.5'"),
        (lambda: deuce_closure((2, 0.5)), "cycle[0] must lie in [0, 1], got 2"),
        (lambda: walk_expected_duration(0, 0.5), "n must be an integer >= 1, got 0"),
        (lambda: walk_expected_duration(10_001, 0.5), "n capped at 10000, got 10001"),
        (lambda: walk_expected_duration(2, None), "p must be a number, got None"),
        (lambda: walk_expected_duration(2, 1.0), "p must lie in (0, 1), got 1.0"),
        (lambda: invert_p_win_T("0.6"), "target must be a number, got '0.6'"),
        (lambda: invert_p_win_T(1.0), "target must lie in (0, 1), got 1.0"),
        (lambda: invert_p_win_T(1e-30),
         "target must be at least p_win_T(1e-06) = 1.5e-23, got 1e-30"),
        (lambda: SimConfig(1.5, 0), "n_games must be an integer, got 1.5"),
        (lambda: SimConfig(0, 0), "n_games must be >= 1, got 0"),
        (lambda: SimConfig(1, 2**64), "seed must fit in 64 bits"),
        (lambda: SimConfig(1, 0, first_game=-1), "first_game must be >= 0, got -1"),
        (lambda: SimConfig(2, 0, first_game=2**64 - 1),
         "game indices must fit in 64 bits: first_game + n_games must be at most 2**64, "
         "got 18446744073709551617"),
        (lambda: ServeProfile(10**5000, 0.5), "p_f must lie in [0, 1], got <int too long to print>"),
        (lambda: rule_bj((10**5000, 0.5)), "order must be 1 or 2, got <tuple too long to print>"),
        (lambda: ServeProfile("x" * 100_000, 0.5),
         "p_f must be a number, got '" + "x" * 49 + "..." + "x" * 49
         + "' (a repr of 100002 characters)"),
        (lambda: ServeProfile(10**4000, 0.5),
         "p_f must lie in [0, 1], got 1" + "0" * 49 + "..." + "0" * 50
         + " (a repr of 4001 characters)"),
        (lambda: ServeProfile(0.5, "y" * 199),  # a repr of 201 characters, one past the cap
         "p_s must be a number, got '" + "y" * 49 + "..." + "y" * 49
         + "' (a repr of 201 characters)"),
        (lambda: ServeProfile(0.5, "y" * 198),
         "p_s must be a number, got '" + "y" * 198 + "'"),
    ])
    def test_bad_arguments_keep_their_messages(self, call, message):
        with pytest.raises(RangeError) as info:
            call()
        assert str(info.value) == message

    def test_range_error_pickles_with_its_message(self):
        with pytest.raises(RangeError) as info:
            rule_c(7)
        copy = pickle.loads(pickle.dumps(info.value))
        assert copy.__class__ is RangeError
        assert str(copy) == str(info.value) == "x must be an integer in 0..6, got 7"
        assert str(RangeError("plain message")) == "plain message"

    def test_equal_numbers_select_the_same_rule(self):
        assert rule_bj(1.0) is rule_bj(1)
        assert rule_b(2.0) is rule_b(2)
        assert rule_c(True) is rule_c(1)



class _Order(enum.IntEnum):
    FIRST = 1
    SECOND = 2


# every kind of value a caller might pass as an order or a cutoff
_FACTORY_INPUTS = [*range(8), -1, True, False, 1.0, 2.0, 1.5, Decimal(1), Decimal("1.5"),
                   Fraction(2), Fraction(1, 2), _Order.SECOND, math.nan, math.inf, -math.inf,
                   None, "1", [1], 10**5000]
# (factory, its rule before it became one lookup, the refusal's words)
_FACTORY_RULES = [
    (rule_bj, lambda order: order in ORDERS, "order must be 1 or 2"),
    (rule_b, lambda order: order in ORDERS, "order must be 1 or 2"),
    (rule_c, lambda x: isinstance(x, int) and x in CUTOFFS, "x must be an integer in 0..6"),
]


class TestFactoryLookup:
    """Each rule factory is one lookup, held to the rule it replaced: it
    selects the schedule of an equal int, or refuses with its message."""

    @pytest.mark.parametrize("factory,accepts,words", _FACTORY_RULES,
                             ids=[rule[0].__name__ for rule in _FACTORY_RULES])
    @pytest.mark.parametrize("value", _FACTORY_INPUTS,
                             ids=[f"{v.__class__.__name__}-{i}"
                                  for i, v in enumerate(_FACTORY_INPUTS)])
    def test_same_as_the_old_rule(self, factory, accepts, words, value):
        if accepts(value):
            assert factory(value) is factory(int(value))
            return
        with pytest.raises(RangeError) as info:
            factory(value)
        assert str(info.value) == str(RangeError(words, value))


_HUGE = 10**5000  # past the int repr limit, sys.get_int_max_str_digits()
# values no public callable takes, and those it takes only in a narrow range
_ODD_VALUES = [_HUGE, -_HUGE, (_HUGE, 0.5), 2**64, math.nan, math.inf, -math.inf,
               "0.5", None, True, Decimal("0.5"), "x" * 100_000, 10**4000]
_MESSAGE_MAX = 300  # longest refusal message, whatever the value
# (callable, arguments it accepts); each position in turn gets each odd value
_REFUSERS = [
    (ServeProfile, (0.6, 0.4)),
    (ServeSchedule, ((), (F,))),
    (rule_bj, (1,)),
    (rule_b, (1,)),
    (rule_c, (3,)),
    (schedule_for, (RuleKind.C, 1, 3)),
    (deuce_closure, ((0.6, 0.4),)),
    (walk_expected_duration, (3, 0.5)),
    (invert_p_win_T, (0.7,)),
    (SimConfig, (10, 3, 0)),
]
_REFUSER_POSITIONS = [(call, good, i) for call, good in _REFUSERS for i in range(len(good))]


class TestRefusals:
    """A public callable given any value returns or raises a ServelabError,
    whose message stays short however long the value."""

    @pytest.mark.parametrize("call,good,position", _REFUSER_POSITIONS,
                             ids=[f"{c.__name__}[{i}]" for c, _, i in _REFUSER_POSITIONS])
    def test_nothing_but_a_servelab_error_escapes(self, call, good, position):
        escaped, long = [], []
        for n, value in enumerate(_ODD_VALUES):
            args = list(good)
            args[position] = value
            try:
                call(*args)
            except ServelabError as exc:
                if len(str(exc)) > _MESSAGE_MAX:
                    long.append((n, len(str(exc))))
            except Exception as exc:  # any other class is the failure
                escaped.append((n, exc.__class__.__name__))
        assert escaped == []  # (index into _ODD_VALUES, exception class)
        assert long == []  # (index into _ODD_VALUES, message length)


class TestRecordRule:
    """Inputs, whose constructors check what a caller passes, are _Records;
    outputs are NamedTuples."""

    def test_only_checked_inputs_are_records(self):
        assert {cls.__name__ for cls in _Record.__subclasses__()} == {
            "ServeProfile", "ServeSchedule", "SimConfig"}

    def test_game_metrics_is_a_named_tuple(self):
        m = GameMetrics(0.5, 6.75)
        win, points, bp, bps = m
        assert (win, points, bp, bps) == m == (0.5, 6.75, None, None)


_EST = MetricEstimate(0.5, 0.01)
_STATS = PlayerStats(1, "x", 0.6, 0.7, 0.5, 0.8)
# (class, required fields, defaulted fields) for every value record, each
# dict in declaration order
_RECORDS = [
    (ServeProfile, {"p_f": 0.6, "p_s": 0.4}, {}),
    (ServeSchedule, {"prefix": (), "deuce_cycle": (F, S)}, {}),
    (GameMetrics, {"win_prob": 0.5, "expected_points": 6.75},
     {"bp_prob": None, "expected_bps": None}),
    (SimConfig, {"n_games": 10, "seed": 3}, {"first_game": 0}),
    (MetricEstimate, {"mean": 0.5, "std_err": None}, {}),
    (SimResult, {"win_prob": _EST, "expected_points": _EST, "bp_prob": None,
                 "expected_bps": None, "n_games": 4, "truncated_games": 0}, {}),
    (PlayerStats, {"rank": 2, "name": "y", "p_f_in": 0.6, "p_f_won": 0.7,
                   "p_s_won": 0.5, "p_t_won": 0.8}, {}),
    (FitRow, {"stats": _STATS, "p_emp": 0.66, "predicted": 0.8, "residual": 0.0}, {}),
    (FitSummary, {"max_abs_residual": 0.1, "mean_residual": -0.01,
                  "nonpositive_count": 1, "n_rows": 2}, {}),
    (ShapingSolution, {"p_trad": 0.5, "p_exc": 0.6, "x_low": 2.5, "x_high": 3.5,
                       "x_recommended": 2}, {"warning": None}),
    (CompareRow, dict(zip(("rank", "p_emp", "p_s_won", "p_t", "p_c", "p_t_br", "p_c_br",
                           "e_t", "e_c", "e_t_br", "e_c_br"), (1,) + (0.5,) * 10)), {}),
]


class TestRecords:
    """Every value record is immutable, compares and hashes by its fields,
    takes keywords and defaults, and shows as Name(field=value, ...)."""

    @pytest.mark.parametrize("cls,required,defaults", _RECORDS,
                             ids=[rec[0].__name__ for rec in _RECORDS])
    def test_immutable_value(self, cls, required, defaults):
        fields = {**required, **defaults}
        rec = cls(**required)
        assert {name: getattr(rec, name) for name in fields} == fields
        twin = cls(*fields.values())
        assert rec == twin and hash(rec) == hash(twin)
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(rec) == f"{cls.__name__}({shown})"
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert pickle.loads(pickle.dumps(rec)) == rec

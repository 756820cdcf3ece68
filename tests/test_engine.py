"""Engine checks against independent path-enumeration / series oracles."""

import ast
import hashlib
import inspect
import pickle
import re
import textwrap
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servelab import engine, formulas as fm
from servelab.engine import deuce_closure, metrics_exact, walk_expected_duration
from servelab.errors import RangeError, SingularProfile
from servelab.types import (
    GameMetrics,
    PointSource,
    ServeProfile,
    ServeSchedule,
    rule_a,
    rule_b,
    rule_bj,
    rule_c,
    rule_t,
)

_SCHEDULES = (rule_a(), rule_bj(1), rule_bj(2), rule_t(), rule_b(1), rule_b(2),
              *(rule_c(x) for x in range(7)))
_EDGE_PROBS = (0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 1e-300)
_prob = st.one_of(st.sampled_from(_EDGE_PROBS), st.floats(min_value=0.0, max_value=1.0))


def brute_tie(a, b, with_bp=False, passes=20000):
    """Resolve the tied region by literally iterating cycle passes.

    Independent of deuce_closure: no geometric-series algebra, just mass
    bookkeeping until the residual is far below double precision.
    """
    level_clean, level_seen = 1.0, 0.0
    win = lose = length = 0.0
    bp_first = bp_count = 0.0
    for k in range(1, passes + 1):
        up_c = level_clean * a
        dn_c = level_clean * (1.0 - a)
        up_s = level_seen * a
        dn_s = level_seen * (1.0 - a)
        if with_bp:
            bp_count += dn_c + dn_s
            bp_first += dn_c
        w = (up_c + up_s) * b
        l = (dn_c + dn_s) * (1.0 - b)
        win += w
        lose += l
        length += 2 * k * (w + l)
        level_clean = up_c * (1.0 - b)
        level_seen = up_s * (1.0 - b) + (dn_c + dn_s) * b
        if not with_bp:
            level_clean += level_seen
            level_seen = 0.0
    return win, length, bp_first, bp_count


def chances(sources, prof):
    """Point chances for a run of sources: p_F for F_FULL, p_S otherwise.
    The references below read their chances here, not from the schedule."""
    return tuple(prof.p_f if src is PointSource.F_FULL else prof.p_s for src in sources)


class LatticeMasses(NamedTuple):
    """Raw accumulators from one pre-tie propagation (before closure)."""

    win: float
    lose: float
    len_sum: float  # sum over absorbed paths of (points played * mass)
    bp_first: float  # mass whose first break-point state occurs pre-tie
    bp_visits: float  # occupancy-weighted count of break-point states
    tie_clean: float  # mass level after the prefix, never having faced a break point
    tie_seen: float  # mass level after the prefix, after at least one break point


# the fields engine._lattice returns, in its order; it drops `lose`
_ENGINE_LATTICE = ("win", "len_sum", "bp_first", "bp_visits", "tie_clean", "tie_seen")


def dict_lattice(probs):
    """Reference pre-tie lattice: point-by-point propagation over a dict.

    States are (f, s, seen) keys, seen meaning a break point was faced
    before this state.  engine._lattice must reproduce it bit for bit.
    """
    win = lose = len_sum = 0.0
    bp_first = bp_visits = 0.0
    states = {(0, 0, False): 1.0}
    for i, p in enumerate(probs):
        nxt = {}
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
    tie = [0.0, 0.0]  # indexed by the seen flag
    for (_, _, seen), m in states.items():
        tie[seen] += m
    return LatticeMasses(win, lose, len_sum, bp_first, bp_visits, tie[0], tie[1])


def composed_metrics(sched, prof):
    """metrics_exact composed from dict_lattice and deuce_closure, with the
    engine's formulas in their order: any change to that order, or to
    either part, shows as a difference in the last bit."""
    c_win, c_len, c_bp_indicator, c_bp_count = deuce_closure(chances(sched.deuce_cycle, prof))
    lat = dict_lattice(chances(sched.prefix, prof))
    tie_total = lat.tie_clean + lat.tie_seen
    win = lat.win + tie_total * c_win
    points = lat.len_sum + tie_total * (len(sched.prefix) + c_len)
    bp_prob = expected_bps = None
    if PointSource.S_SERVE not in sched.prefix + sched.deuce_cycle:
        bp_prob = lat.bp_first + lat.tie_clean * c_bp_indicator
        expected_bps = lat.bp_visits + tie_total * c_bp_count
    return GameMetrics(win, points, bp_prob, expected_bps)


def brute_metrics(sched, prof):
    """Full-game oracle: recursive path enumeration plus brute_tie."""
    probs = chances(sched.prefix, prof)
    acc = {"win": 0.0, "lose": 0.0, "len": 0.0, "bp_first": 0.0,
           "bp_visits": 0.0, "tie_clean": 0.0, "tie_seen": 0.0}

    def walk(i, f, s, seen, mass):
        if f == 4:
            acc["win"] += mass
            acc["len"] += i * mass
            return
        if s == 4:
            acc["lose"] += mass
            acc["len"] += i * mass
            return
        if f == 3 and s == 3:
            acc["tie_seen" if seen else "tie_clean"] += mass
            return
        if s == 3 and f <= 2:
            acc["bp_visits"] += mass
            if not seen:
                acc["bp_first"] += mass
            seen = True
        p = probs[i]
        walk(i + 1, f + 1, s, seen, mass * p)
        walk(i + 1, f, s + 1, seen, mass * (1.0 - p))

    if probs:
        walk(0, 0, 0, False, 1.0)
    else:
        acc["tie_clean"] = 1.0
    cyc = chances(sched.deuce_cycle, prof)
    a = cyc[0]
    b = cyc[1] if len(cyc) == 2 else a
    all_f = sched.all_f_served
    t_win, t_len, t_first, t_count = brute_tie(a, b, with_bp=all_f)
    tie = acc["tie_clean"] + acc["tie_seen"]
    base = 0.0 if not sched.prefix else 6.0
    win = acc["win"] + tie * t_win
    points = acc["len"] + tie * (base + t_len)
    bp = bps = None
    if all_f:
        bp = acc["bp_first"] + acc["tie_clean"] * t_first
        bps = acc["bp_visits"] + tie * t_count
    return win, points, bp, bps


_F, _G, _S = PointSource.F_FULL, PointSource.F_SINGLE, PointSource.S_SERVE


class TestPointChances:
    """The schedule's getters give what the per-source mapping gives."""

    @pytest.mark.parametrize("sched", [
        *_SCHEDULES,
        ServeSchedule([_G, _F, _S, _G, _G, _F], [_G, _S]),
        ServeSchedule([], [_G]),
    ])
    def test_getters_match_the_mapping(self, sched):
        for prof in (ServeProfile(0.8, 0.3), ServeProfile(1, 0), ServeProfile(0.0, 1.0)):
            want = chances(sched.prefix, prof), chances(sched.deuce_cycle, prof)
            for got in (sched, pickle.loads(pickle.dumps(sched))):
                prefix, cycle = got.prefix_probs(prof), got.cycle_probs(prof)
                assert (prefix, cycle) == want  # values and lengths
                assert prefix.__class__ is tuple and cycle.__class__ is tuple
                assert all(a is b for a, b in zip(prefix + cycle, want[0] + want[1]))


class TestDeuceClosure:
    def test_single_cycle_matches_fixed_server_forms(self):
        c_win, c_len, c_bp_indicator, c_bp_count = deuce_closure((0.55,))
        assert c_win == pytest.approx(fm.p_win_A(0.55), abs=1e-15)
        assert c_len == pytest.approx(fm.e_points_A(0.55), abs=1e-15)
        assert c_bp_indicator == pytest.approx(fm.p_bp_A(0.55), abs=1e-15)
        assert c_bp_count == pytest.approx(fm.e_bp_A(0.55), abs=1e-15)

    @pytest.mark.parametrize("a,b", [(0.55, 0.55), (0.7, 0.4), (0.31, 0.86)])
    def test_against_series_iteration(self, a, b):
        c_win, c_len, c_bp_indicator, c_bp_count = deuce_closure((a, b))
        win, length, first, count = brute_tie(a, b, with_bp=True)
        assert c_win == pytest.approx(win, abs=1e-12)
        assert c_len == pytest.approx(length, abs=1e-12)
        assert c_bp_indicator == pytest.approx(first, abs=1e-12)
        assert c_bp_count == pytest.approx(count, abs=1e-12)

    def test_order_of_cycle_probs_does_not_change_win(self):
        assert deuce_closure((0.7, 0.4))[0] == pytest.approx(
            deuce_closure((0.4, 0.7))[0], abs=1e-15
        )

    def test_singular_cycle(self):
        with pytest.raises(SingularProfile):
            deuce_closure((1.0, 0.0))

    @pytest.mark.parametrize("cycle", [(), (0.5, 0.5, 0.5)])
    def test_bad_cycle_length(self, cycle):
        with pytest.raises(RangeError):
            deuce_closure(cycle)

    @pytest.mark.parametrize("cycle", [(2.0, 0.5), (1.5,), (-0.5, 0.2), (float("nan"),),
                                       (10**400,)])
    def test_chance_outside_unit_interval(self, cycle):
        with pytest.raises(RangeError):
            deuce_closure(cycle)

    @pytest.mark.parametrize("cycle", ["ab", None, 5, (None,), ("0.5",), (True,)],
                             ids=["str", "none", "int", "none-entry", "str-entry", "bool-entry"])
    def test_not_a_sequence_of_numbers(self, cycle):
        with pytest.raises(RangeError):
            deuce_closure(cycle)


class TestMetricsExact:
    def test_existing_game_matches_closed_forms(self):
        for i in range(1, 20):
            p = i / 20
            prof = ServeProfile(p, p)
            m = metrics_exact(rule_t(), prof)
            assert m.win_prob == pytest.approx(fm.p_win_T(p), abs=1e-12)
            assert m.expected_points == pytest.approx(fm.e_points_T(p), abs=1e-12)
            assert m.bp_prob == pytest.approx(fm.p_bp_T(p), abs=1e-12)
            assert m.expected_bps == pytest.approx(fm.e_bp_T(p), abs=1e-12)

    def test_deuce_games_match_closed_forms(self):
        prof = ServeProfile(0.64, 0.47)
        a = metrics_exact(rule_a(), prof)
        assert a.win_prob == pytest.approx(fm.p_win_A(0.64), abs=1e-15)
        assert a.expected_points == pytest.approx(fm.e_points_A(0.64), abs=1e-15)
        bj = metrics_exact(rule_bj(), prof)
        assert bj.win_prob == pytest.approx(fm.p_win_Bj(prof), abs=1e-15)
        assert bj.expected_points == pytest.approx(fm.e_points_Bj(prof), abs=1e-15)
        assert bj.bp_prob is None

    @pytest.mark.parametrize(
        "sched,prof",
        [
            (rule_t(), ServeProfile(0.62, 0.62)),
            (rule_c(3), ServeProfile(0.696, 0.55)),
            (rule_c(0), ServeProfile(0.8, 0.3)),
            (rule_c(6), ServeProfile(0.8, 0.3)),
            (rule_b(1), ServeProfile(0.7, 0.35)),
            (rule_b(2), ServeProfile(0.7, 0.35)),
            (rule_bj(1), ServeProfile(0.6, 0.45)),
            (rule_a(), ServeProfile(0.57, 0.57)),
            (rule_bj(2), ServeProfile(0.6, 0.45)),
        ],
    )
    def test_against_path_enumeration(self, sched, prof):
        m = metrics_exact(sched, prof)
        win, points, bp, bps = brute_metrics(sched, prof)
        assert m.win_prob == pytest.approx(win, abs=1e-12)
        assert m.expected_points == pytest.approx(points, abs=1e-12)
        if bp is None:
            assert m.bp_prob is None
        else:
            assert m.bp_prob == pytest.approx(bp, abs=1e-12)
            assert m.expected_bps == pytest.approx(bps, abs=1e-12)

    def test_certain_server(self):
        m = metrics_exact(rule_t(), ServeProfile(1.0, 1.0))
        assert m.win_prob == 1.0
        assert m.expected_points == 4.0
        assert m.bp_prob == 0.0
        assert m.expected_bps == 0.0

    def test_hopeless_server(self):
        m = metrics_exact(rule_t(), ServeProfile(0.0, 0.5))
        assert m.win_prob == 0.0
        assert m.expected_points == 4.0
        # the one break point at 0:3 is both first and only
        assert m.bp_prob == 1.0
        assert m.expected_bps == 1.0

    def test_frozen_reference_values(self):
        m = metrics_exact(rule_t(), ServeProfile(0.696, 0.696))
        assert m.win_prob == pytest.approx(0.895958, abs=5e-7)
        assert m.expected_points == pytest.approx(5.861318, abs=5e-7)
        c = metrics_exact(rule_c(3), ServeProfile(0.696, 0.55))
        assert c.win_prob == pytest.approx(0.749280, abs=5e-7)
        assert c.bp_prob == pytest.approx(0.345079, abs=5e-7)

    def test_mass_conservation(self):
        for sched in (rule_a(), rule_bj(1), rule_bj(2), rule_t(), rule_b(1), rule_b(2),
                      rule_c(0), rule_c(3), rule_c(6)):
            for prof in (ServeProfile(0.7, 0.3), ServeProfile(0.05, 0.95),
                         ServeProfile(0.5, 0.5)):
                win, _, _, _, tie_clean, tie_seen = engine._lattice(sched, (prof.p_f, prof.p_s))
                lose = dict_lattice(chances(sched.prefix, prof)).lose
                total = win + lose + tie_clean + tie_seen
                assert total == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(sched=st.sampled_from(_SCHEDULES), pf=_prob, ps=_prob)
    def test_lattice_is_bit_identical_to_dict_propagation(self, sched, pf, ps):
        prof = ServeProfile(pf, ps)
        got = engine._lattice(sched, (pf, ps))
        want = dict_lattice(chances(sched.prefix, prof))
        assert len(got) == len(_ENGINE_LATTICE)
        for name, value in zip(_ENGINE_LATTICE, got):
            assert value == getattr(want, name), name

    @settings(max_examples=400, deadline=None)
    @given(sched=st.sampled_from(_SCHEDULES), pf=_prob, ps=_prob)
    def test_bit_identical_to_composed_reference(self, sched, pf, ps):
        prof = ServeProfile(pf, ps)
        try:
            want = composed_metrics(sched, prof)
        except SingularProfile as exc:
            with pytest.raises(SingularProfile, match=re.escape(str(exc))):
                metrics_exact(sched, prof)
            return
        got = metrics_exact(sched, prof)
        for name in GameMetrics._fields:
            assert getattr(got, name) == getattr(want, name), name

    # deuce-type games: the three rule schedules and one of each other cycle
    _DEUCE = (rule_a(), rule_bj(1), rule_bj(2), ServeSchedule((), (_G,)),
              ServeSchedule((), (_S,)), ServeSchedule((), (_F, _G)), ServeSchedule((), (_G, _S)))
    _DEUCE_IDS = ("A", "Bj1", "Bj2", "G", "S", "FG", "GS")

    @pytest.mark.parametrize("sched", _DEUCE, ids=_DEUCE_IDS)
    def test_deuce_games_skip_the_lattice(self, monkeypatch, sched):
        def no_lattice(*args):
            raise AssertionError("_lattice called")

        monkeypatch.setattr(engine, "_lattice", no_lattice)
        for pf in (0.0, 0.3, 0.64, 1.0):
            prof = ServeProfile(pf, 0.47)
            got = metrics_exact(sched, prof)
            assert got == composed_metrics(sched, prof)

    @pytest.mark.parametrize("sched", _DEUCE, ids=_DEUCE_IDS)
    def test_deuce_games_keep_the_sign_of_a_zero(self, sched):
        # a -0.0 chance makes the closure's win -0.0, and the lattice's
        # level start added it to 0.0; float.hex tells the two zeros apart
        for pf, ps in ((-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0)):
            prof = ServeProfile(pf, ps)
            try:
                want = composed_metrics(sched, prof)
            except SingularProfile:
                with pytest.raises(SingularProfile):
                    metrics_exact(sched, prof)
                continue
            got = metrics_exact(sched, prof)
            assert [None if v is None else v.hex() for v in got] == [
                None if v is None else v.hex() for v in want]

    def test_alternation_order_is_irrelevant(self):
        for i in range(1, 10):
            for j in range(1, 10):
                prof = ServeProfile(i / 10, j / 10)
                b1 = metrics_exact(rule_b(1), prof)
                b2 = metrics_exact(rule_b(2), prof)
                assert abs(b1.win_prob - b2.win_prob) <= 1e-14
                assert abs(b1.expected_points - b2.expected_points) <= 1e-14
                j1 = metrics_exact(rule_bj(1), prof)
                j2 = metrics_exact(rule_bj(2), prof)
                assert abs(j1.win_prob - j2.win_prob) <= 1e-14
                assert abs(j1.expected_points - j2.expected_points) <= 1e-14

    def test_more_full_serve_points_help_the_server(self):
        prof = ServeProfile(0.8, 0.45)
        wins = [metrics_exact(rule_c(x), prof).win_prob for x in range(7)]
        assert all(b > a for a, b in zip(wins, wins[1:]))

    def test_no_full_serve_points_reduces_to_existing_game_at_p_s(self):
        prof = ServeProfile(0.8, 0.45)
        m = metrics_exact(rule_c(0), prof)
        assert m.win_prob == pytest.approx(fm.p_win_T(0.45), abs=1e-12)
        assert m.bp_prob == pytest.approx(fm.p_bp_T(0.45), abs=1e-12)
        assert m.expected_points == pytest.approx(fm.e_points_T(0.45), abs=1e-12)
        assert m.expected_bps == pytest.approx(fm.e_bp_T(0.45), abs=1e-12)

    def test_count_dominates_indicator(self):
        for i in range(1, 10):
            prof = ServeProfile(i / 10, max(0.05, i / 10 - 0.1))
            m = metrics_exact(rule_c(3), prof)
            assert m.expected_bps >= m.bp_prob - 1e-14

    def test_singular_profile_propagates(self):
        with pytest.raises(SingularProfile):
            metrics_exact(rule_b(1), ServeProfile(1.0, 0.0))

    @pytest.mark.parametrize("sched", _SCHEDULES)
    def test_float_subclass_chances_give_plain_floats(self, sched):
        np = pytest.importorskip("numpy")
        m = metrics_exact(sched, ServeProfile(np.float64(0.6), np.float64(0.45)))
        assert m == metrics_exact(sched, ServeProfile(0.6, 0.45))
        for name, value in zip(GameMetrics._fields, m):
            assert value is None or value.__class__ is float, name


# float.hex() of the four metrics_exact fields ("None" for a field that is
# None), one string per schedule in _SCHEDULES order, at the profiles that
# tests/test_formulas.py pins; a call that raises is pinned by its
# exception's type name.  The composed-reference checks above hold the engine
# to code it mirrors, so a last-place change made in both passes them; these
# values were taken before the engine's arithmetic was last rewritten, and
# fail on it.
_GOLDEN_ENGINE = {
    (0.63, 0.52): (
        "0x1.7cb0de86796e0p-1 0x1.df9492f18444ap+1 0x1.ee0a7b4f58d3cp-2 0x1.62e3b46b0ad6ap-1",
        "0x1.4c026eab7a393p-1 0x1.fabae1cc8427cp+1 None None",
        "0x1.4c026eab7a393p-1 0x1.fabae1cc8427cp+1 None None",
        "0x1.96e021f03ec38p-1 0x1.943c3d4ef98d2p+2 0x1.4ffe717a0c776p-2 0x1.1c1ec6de78f6ap-1",
        "0x1.5d9b632f408d8p-1 0x1.a772db7a7b090p+2 None None",
        "0x1.5d9b632f408d8p-1 0x1.a772db7a7b091p+2 None None",
        "0x1.1989e737021bcp-1 0x1.af48e2f1de0ccp+2 0x1.1fbf791e19ebdp-1 0x1.e020b3a2bb9b7p-1",
        "0x1.2b06bf78bcca2p-1 0x1.ae177497ee3eep+2 0x1.0c7db1a08e975p-1 0x1.bbb1f119cc059p-1",
        "0x1.3c543dcf6ed98p-1 0x1.ab5c1024806d4p+2 0x1.f1c763b2a04e0p-2 0x1.97a5d48fd9100p-1",
        "0x1.4d47655100422p-1 0x1.a71ccb04923b3p+2 0x1.ca5fb85075e58p-2 0x1.7455ecec94cbbp-1",
        "0x1.5db6c0355dcffp-1 0x1.a1693b74343d0p+2 0x1.a34aaee96ba80p-2 0x1.580a156146056p-1",
        "0x1.6d7c739a4beddp-1 0x1.9c35b2440702bp+2 0x1.7d0bc004fe8f8p-2 0x1.462856d3c5af4p-1",
        "0x1.7c7823cc98e6cp-1 0x1.983ce5125c438p+2 0x1.6461ba4b8a452p-2 0x1.3e881488e4401p-1",
    ),
    (0.5, 0.5): (
        "0x1.0000000000000p-1 0x1.0000000000000p+2 0x1.5555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
    ),
    (0.3, 0.7): (
        "0x1.3dcb08d3dcb09p-3 0x1.b9611a7b9611bp+1 0x1.c5abbf309b8b6p-1 0x1.34f72c234f72cp+0",
        "0x1.fffffffffffffp-2 0x1.30c30c30c30c3p+2 None None",
        "0x1.fffffffffffffp-2 0x1.30c30c30c30c3p+2 None None",
        "0x1.965e4f4817a92p-4 0x1.75372062fb61ap+2 0x1.d6847aee05ae2p-1 0x1.496e6fc74707cp+0",
        "0x1.ffffffffffffep-2 0x1.cf5a9980a2479p+2 None None",
        "0x1.ffffffffffffep-2 0x1.cf5a9980a247ap+2 None None",
        "0x1.cd343616fd0aep-1 0x1.75372062fb61bp+2 0x1.96033bb61d484p-3 0x1.52a3ecbc13b7dp-2",
        "0x1.ac80c73abc946p-1 0x1.957a786c22680p+2 0x1.3e3ef8765acd8p-2 0x1.1652bd3c36114p-1",
        "0x1.7cda6784c50c6p-1 0x1.aba825da49de8p+2 0x1.d43d8ee71754ap-2 0x1.b527fc456f2bdp-1",
        "0x1.3d8adab9f559ap-1 0x1.afe5c91d14e3cp+2 0x1.3cdaf3d444eccp-1 0x1.44189374bc6a8p+0",
        "0x1.e802f5de0a383p-2 0x1.9b7a45cd2e6d0p+2 0x1.8270887f54a4ep-1 0x1.499466fe43425p+0",
        "0x1.5ba0a5269595ep-2 0x1.84c985f06f694p+2 0x1.b43850b9b51bcp-1 0x1.3212d77318fc5p+0",
        "0x1.d0ca9e860f87cp-3 0x1.75372062fb61ap+2 0x1.be825d63007aep-1 0x1.28bb00eb06915p+0",
    ),
    (0.9, 0.1): (
        "0x1.f9c18f9c18f9cp-1 0x1.3831f3831f383p+1 0x1.c21c21c21c21ap-4 0x1.f3831f3831f36p-4",
        "0x1.0000000000001p-1 0x1.638e38e38e38ep+3 None None",
        "0x1.0000000000001p-1 0x1.638e38e38e38ep+3 None None",
        "0x1.ff423bbacbab4p-1 0x1.1d768de1a64ebp+2 0x1.32be96d1427abp-7 0x1.da6aad02d3c57p-7",
        "0x1.0000000000001p-1 0x1.8c73992517704p+3 None None",
        "0x1.0000000000000p-1 0x1.8c73992517702p+3 None None",
        "0x1.7b888a68a96b4p-10 0x1.1d768de1a64ecp+2 0x1.ff4f09d45a191p-1 0x1.1c085a1271265p+0",
        "0x1.187e7c06e19bbp-7 0x1.59930be0ded2ap+2 0x1.fbcf0641e6c81p-1 0x1.1a027525460abp+0",
        "0x1.78f9d1edd25e8p-5 0x1.9ab88511eeb79p+2 0x1.e8f2813aeb21dp-1 0x1.0f5ae1998523ep+0",
        "0x1.b15b573eab368p-3 0x1.cd14e3bcd35aap+2 0x1.9423ae5d4ddecp-1 0x1.c083126e978d4p-1",
        "0x1.6e1189f38736dp-1 0x1.502c6fc556588p+2 0x1.2437152869df6p-2 0x1.4533d1c3e0f31p-2",
        "0x1.da708ede54b49p-1 0x1.258e219652bd3p+2 0x1.2cd8dec1f1092p-4 0x1.5e9e1b089a022p-4",
        "0x1.f7f9d064fd47dp-1 0x1.1d768de1a64ebp+2 0x1.025fb69224badp-6 0x1.d642c13b3650ap-6",
    ),
    (0.2, 0.8): (
        "0x1.e1e1e1e1e1e1ep-5 0x1.7878787878786p+1 0x1.e79e79e79e79ep-1 0x1.2d2d2d2d2d2d2p+0",
        "0x1.0000000000001p-1 0x1.9000000000000p+2 None None",
        "0x1.0000000000001p-1 0x1.9000000000000p+2 None None",
        "0x1.64d301b377aaap-6 0x1.457cc88f3726dp+2 0x1.f6515db66b94ap-1 0x1.3907e0f77ea9bp+0",
        "0x1.0000000000002p-1 0x1.0989374bc6a80p+3 None None",
        "0x1.0000000000002p-1 0x1.0989374bc6a80p+3 None None",
        "0x1.f4d967f26442cp-1 0x1.457cc88f3726cp+2 0x1.152fa27086e0ep-4 0x1.be07c2205594bp-4",
        "0x1.e2584f4c6e6dcp-1 0x1.78ef34d6a161ep+2 0x1.5650fdd7bffe3p-3 0x1.288ce703afb7dp-2",
        "0x1.b6dc222cd31f6p-1 0x1.a64f450796f32p+2 0x1.78612639b5efbp-2 0x1.6db3551fe0636p-1",
        "0x1.5e9e1b089a028p-1 0x1.b6ae7d566cf43p+2 0x1.55a33a40bf7d7p-1 0x1.9374bc6a7ef9dp+0",
        "0x1.ac7873893eb2cp-2 0x1.7f9a39f86f380p+2 0x1.b647a118fe4f9p-1 0x1.5f3223cdc9b12p+0",
        "0x1.b13165d3996fdp-3 0x1.56d5cfaacd9eap+2 0x1.e397e0330e401p-1 0x1.2d77318fc5048p+0",
        "0x1.81464acc3b3bcp-4 0x1.457cc88f3726dp+2 0x1.e75692e6edb76p-1 0x1.2686c85188d4ap+0",
    ),
    (0.45, 0.62): (
        "0x1.9a9d260511be0p-2 0x1.faee41e6a7496p+1 0x1.763822051a5d9p-1 0x1.16cfd7720f353p+0",
        "0x1.24b8a7de6d1d6p-1 0x1.064b8a7de6d1dp+2 None None",
        "0x1.24b8a7de6d1d6p-1 0x1.064b8a7de6d1dp+2 None None",
        "0x1.81e55be5450e3p-2 0x1.ab941cec66688p+2 0x1.686a8251fee39p-1 0x1.220c1c0c266dep+0",
        "0x1.2d639d31ee9bap-1 0x1.b2dfab668a160p+2 None None",
        "0x1.2d639d31ee9b9p-1 0x1.b2dfab668a15fp+2 None None",
        "0x1.8d3de06ae72bfp-1 0x1.980b2de6d3cb0p+2 0x1.64ddb4a1fc68bp-2 0x1.2dfed9d933dd0p-1",
        "0x1.77b759199578dp-1 0x1.a1fb7ac330dfcp+2 0x1.9fcd965259f7cp-2 0x1.66a43df29199bp-1",
        "0x1.5ff43f97d4300p-1 0x1.a90125c66fd1fp+2 0x1.ddb1c1bf724cdp-2 0x1.a52c661f9bb7ap-1",
        "0x1.464a30ce77c82p-1 0x1.aca5c971f522cp+2 0x1.0e48e0baf9aa7p-1 0x1.e8b6064c73f13p-1",
        "0x1.2b3abfbe0cd4cp-1 0x1.ac97d9ce42420p+2 0x1.2d193d069582dp-1 0x1.04e8298a9f75dp+0",
        "0x1.0f6afbfeff440p-1 0x1.aaa3e27632518p+2 0x1.4a57969ab5181p-1 0x1.07340b7fa094cp+0",
        "0x1.e71938b8c3500p-2 0x1.a81e97202bd7cp+2 0x1.5644fec6f10e7p-1 0x1.05499f0b0c4cbp+0",
    ),
    (0.696, 0.55): (
        "0x1.adf88eed0e0f4p-1 0x1.bbcdab4d0ef7fp+1 0x1.8ad6559366237p-2 0x1.0dd51c6000e8cp-1",
        "0x1.79336fbdc86ccp-1 0x1.ecafca654bdfap+1 None None",
        "0x1.79336fbdc86ccp-1 0x1.ecafca654bdfap+1 None None",
        "0x1.cabb050d07f94p-1 0x1.771fd3d20efd6p+2 0x1.a3b50c89e5c5fp-3 0x1.5e74f9b7be11cp-2",
        "0x1.92174f9f44be0p-1 0x1.986739ee1cb28p+2 None None",
        "0x1.92174f9f44be0p-1 0x1.986739ee1cb28p+2 None None",
        "0x1.3f0d520d5d790p-1 0x1.ab941cec66688p+2 0x1.fd7a31a282f78p-2 0x1.acc5f45413d6cp-1",
        "0x1.557e69b13f59ep-1 0x1.a7aefbc4d4d4ep+2 0x1.c9446c9a80036p-2 0x1.7ae71520c88d8p-1",
        "0x1.6b2429ebd8a15p-1 0x1.a12ae548c207cp+2 0x1.94d2014344e9fp-2 0x1.4acc149e9060ap-1",
        "0x1.7fa19c7a26e3ep-1 0x1.982abbf4ddffcp+2 0x1.615c48c977b71p-2 0x1.1d4387d41b5aep-1",
        "0x1.92a559c3c6890p-1 0x1.8ced6482afd6bp+2 0x1.3028f505bcfd4p-2 0x1.ef5a21748357dp-2",
        "0x1.a3f15e689203cp-1 0x1.8399167f45967p+2 0x1.025085533739cp-2 0x1.bc76536afb0b9p-2",
        "0x1.b3605d43f9b3fp-1 0x1.7d1a950df4b1fp+2 0x1.ccea474b82423p-3 0x1.a5154e39716eap-2",
    ),
    (0.666, 0.52): (
        "0x1.991b9b7ccac80p-1 0x1.cd2b0ef02b44cp+1 0x1.b7dc3b52101b2p-2 0x1.340f7373607ccp-1",
        "0x1.5dfbe0784ca48p-1 0x1.f94a2d3170034p+1 None None",
        "0x1.5dfbe0784ca48p-1 0x1.f94a2d3170034p+1 None None",
        "0x1.b5bddce88883dp-1 0x1.850a4313ade8dp+2 0x1.085731bf60d34p-2 0x1.bca927f95b938p-2",
        "0x1.72b7cf047632fp-1 0x1.a345faf0e8674p+2 None None",
        "0x1.72b7cf047632fp-1 0x1.a345faf0e8674p+2 None None",
        "0x1.1989e737021bcp-1 0x1.af48e2f1de0ccp+2 0x1.1fbf791e19ebdp-1 0x1.e020b3a2bb9b7p-1",
        "0x1.30bfe5aa2d15dp-1 0x1.adb37f0622178p+2 0x1.06304fc1f1488p-1 0x1.afc58c32ccbd6p-1",
        "0x1.47a27980a6795p-1 0x1.a968152fd6c24p+2 0x1.d80b797169472p-2 0x1.80182d894fd8ap-1",
        "0x1.5dcd1f1ae9848p-1 0x1.a274deff2f550p+2 0x1.a3a33bae56278p-2 0x1.51e9ff3299814p-1",
        "0x1.72e010b309b08p-1 0x1.9905940c0af66p+2 0x1.7069398656763p-2 0x1.2bcffd9f2c121p-1",
        "0x1.8688d4bf60b7dp-1 0x1.90acdef7abb38p+2 0x1.3f896b7ca813bp-2 0x1.125053c4bf783p-1",
        "0x1.9889c8c20fe20p-1 0x1.8a8b8717dc051p+2 0x1.200596a9a083bp-2 0x1.068b302b82a42p-1",
    ),
    (0.626, 0.51): (
        "0x1.7951d8b5339afp-1 0x1.e16d6c34a425cp+1 0x1.f40cb3a8d7746p-2 0x1.681b937f708adp-1",
        "0x1.45486689df6fep-1 0x1.fd6eb5b98909ap+1 None None",
        "0x1.45486689df6fep-1 0x1.fd6eb5b98909ap+1 None None",
        "0x1.9313409c008bbp-1 0x1.95c8928a76e9ap+2 0x1.584cb20ac9105p-2 0x1.233e26123809dp-1",
        "0x1.5574cbe205b3ap-1 0x1.a96852134524ap+2 None None",
        "0x1.5574cbe205b3ap-1 0x1.a96852134524ap+2 None None",
        "0x1.0ccad5bd09826p-1 0x1.afd226275801ep+2 0x1.2a997d8a4f25ap-1 0x1.f0579a2a9e39cp-1",
        "0x1.1f52991a61fe8p-1 0x1.af30ba698adb4p+2 0x1.1686a8497190fp-1 0x1.ca8673f3f4180p-1",
        "0x1.31bfeff6c5a6ep-1 0x1.acd7160e82066p+2 0x1.01f8d6fdb7b84p-1 0x1.a4eb3ad95cf4ap-1",
        "0x1.43dfe3ae2fa9fp-1 0x1.a8c8cccfb3e32p+2 0x1.da6daecff6089p-2 0x1.7fedf0a6f78b2p-1",
        "0x1.55807057133afp-1 0x1.a31548dca04bep+2 0x1.b11ccbdf8a419p-2 0x1.624be8f91b984p-1",
        "0x1.667342b2f2ee6p-1 0x1.9dc7eed9fb5bcp+2 0x1.8898f1e914dc2p-2 0x1.4f95cd26ee4edp-1",
        "0x1.7690556eec1b0p-1 0x1.99ae40f0eacb2p+2 0x1.6df8c3ea12a75p-2 0x1.478c6e0c343d8p-1",
    ),
    (0.608, 0.49): (
        "0x1.69a9877780040p-1 0x1.e92d4d3c34387p+1 0x1.0781dc55c8f9bp-1 0x1.7f83c5c4b4348p-1",
        "0x1.3264c993264c9p-1 0x1.011c5808e2c05p+2 None None",
        "0x1.3264c993264c9p-1 0x1.011c5808e2c05p+2 None None",
        "0x1.811c3e880d0d5p-1 0x1.9c531d52331e8p+2 0x1.7e595b3c2b32fp-2 0x1.43b2b94c1d65ep-1",
        "0x1.3e6ceb17266f7p-1 0x1.ad8a21c94e9bep+2 None None",
        "0x1.3e6ceb17266f8p-1 0x1.ad8a21c94e9bfp+2 None None",
        "0x1.e66a5485ecfb3p-2 0x1.afd226275801ep+2 0x1.3fecc90c4873ap-1 0x1.07859a54f0399p+0",
        "0x1.060eb79d810d7p-1 0x1.b0765a5f970a6p+2 0x1.2c1bdf55d376cp-1 0x1.ea1556b71708dp-1",
        "0x1.19039cbe04ffdp-1 0x1.af53066353c06p+2 0x1.179b0f781e1f8p-1 0x1.c4e9dbb896d34p-1",
        "0x1.2bde34794f825p-1 0x1.ac64664960778p+2 0x1.02af243617d6cp-1 0x1.9ff1f376873cbp-1",
        "0x1.3e67d5bc30749p-1 0x1.a7b363159711bp+2 0x1.db4cb9ba26b52p-2 0x1.82bb8c400a826p-1",
        "0x1.506bd01e9eab3p-1 0x1.a3177ebd8a8dap+2 0x1.b1a1aa7a48392p-2 0x1.70c31e4420e0bp-1",
        "0x1.61ba8caebfb4bp-1 0x1.9f6307b4d4ee6p+2 0x1.95420036e5467p-2 0x1.69343feaae5e6p-1",
    ),
    (0.0, 0.0): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+1 None None",
        "0x0.0p+0 0x1.0000000000000p+1 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
    ),
    (1.0, 1.0): (
        "0x1.0000000000000p+0 0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+1 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+1 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
    ),
    (0.0, 0.5): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.6000000000000p+2 None None",
        "0x0.0p+0 0x1.6000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.6000000000000p-2 0x1.b000000000000p+2 0x1.8aaaaaaaaaaabp-1 0x1.5000000000000p+0",
        "0x1.8000000000000p-3 0x1.9000000000000p+2 0x1.d555555555555p-1 0x1.a000000000000p+0",
        "0x1.0000000000000p-4 0x1.5000000000000p+2 0x1.0000000000000p+0 0x1.e000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
    ),
    (1.0, 0.5): (
        "0x1.0000000000000p+0 0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.6000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.6000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.5000000000000p-1 0x1.b000000000000p+2 0x1.c000000000000p-2 0x1.6000000000000p-1",
        "0x1.a000000000000p-1 0x1.9000000000000p+2 0x1.0000000000000p-2 0x1.8000000000000p-2",
        "0x1.e000000000000p-1 0x1.5000000000000p+2 0x1.5555555555555p-4 0x1.0000000000000p-3",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
    ),
    (0.5, 0.0): (
        "0x1.0000000000000p-1 0x1.0000000000000p+2 0x1.5555555555555p-1 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.7000000000000p+2 None None",
        "0x0.0p+0 0x1.7000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.2000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.4000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.6800000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.0000000000000p-4 0x1.8000000000000p+2 0x1.e000000000000p-1 0x1.0000000000000p+0",
        "0x1.8000000000000p-3 0x1.8800000000000p+2 0x1.a000000000000p-1 0x1.0000000000000p+0",
        "0x1.6000000000000p-2 0x1.8800000000000p+2 0x1.5000000000000p-1 0x1.0000000000000p+0",
    ),
    (0.5, 1.0): (
        "0x1.0000000000000p-1 0x1.0000000000000p+2 0x1.5555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.0000000000000p+0 0x1.7000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.7000000000000p+2 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.2000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.4000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.6800000000000p+2 0x1.0000000000000p-3 0x1.8000000000000p-2",
        "0x1.e000000000000p-1 0x1.8000000000000p+2 0x1.4000000000000p-2 0x1.4000000000000p-1",
        "0x1.a000000000000p-1 0x1.8800000000000p+2 0x1.0000000000000p-1 0x1.6000000000000p-1",
        "0x1.5000000000000p-1 0x1.8800000000000p+2 0x1.0000000000000p-1 0x1.6000000000000p-1",
    ),
    (1e-300, 0.5): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.56e1fc2f8f359p-997 0x1.0000000000000p+2 None None",
        "0x1.56e1fc2f8f359p-997 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.56e1fc2f8f359p-998 0x1.6000000000000p+2 None None",
        "0x1.56e1fc2f8f359p-998 0x1.6000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x1.6000000000000p-2 0x1.b000000000000p+2 0x1.8aaaaaaaaaaabp-1 0x1.5000000000000p+0",
        "0x1.8000000000000p-3 0x1.9000000000000p+2 0x1.d555555555555p-1 0x1.a000000000000p+0",
        "0x1.0000000000000p-4 0x1.5000000000000p+2 0x1.0000000000000p+0 0x1.e000000000000p+0",
        "0x1.56e1fc2f8f359p-998 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
    ),
    (0.5, 5e-324): (
        "0x1.0000000000000p-1 0x1.0000000000000p+2 0x1.5555555555555p-1 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 None None",
        "0x1.0000000000000p-1 0x1.b000000000000p+2 0x1.3555555555555p-1 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.7000000000000p+2 None None",
        "0x0.0p+0 0x1.7000000000000p+2 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.2000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.4000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.6800000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.0000000000000p-4 0x1.8000000000000p+2 0x1.e000000000000p-1 0x1.0000000000000p+0",
        "0x1.8000000000000p-3 0x1.8800000000000p+2 0x1.a000000000000p-1 0x1.0000000000000p+0",
        "0x1.6000000000000p-2 0x1.8800000000000p+2 0x1.5000000000000p-1 0x1.0000000000000p+0",
    ),
    (0.9999999999999999, 1e-300): (
        "0x1.0000000000000p+0 0x1.0000000000001p+1 0x1.0000000000001p-53 0x1.0000000000001p-53",
        "0x1.56e1fc2f8f358p-944 0x1.0000000000000p+54 None None",
        "0x1.56e1fc2f8f358p-944 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.a000000000001p-156 0x1.3000000000001p-155",
        "0x1.56e1fc2f8f358p-944 0x1.0000000000000p+54 None None",
        "0x1.56e1fc2f8f358p-944 0x1.0000000000000p+54 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.4000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.7ffffffffffffp+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.01297d23ab681p-995 0x1.fffffffffffffp+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.ffffffffffffcp-1 0x1.0000000000002p+2 0x1.0000000000000p-51 0x1.0000000000000p-51",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.6000000000001p-103 0x1.6000000000001p-103",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.d000000000000p-155 0x1.8000000000000p-154",
    ),
    (5e-324, 0.9999999999999999): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.a000000000001p-156 0x1.3000000000001p-155",
        "0x1.0000000000000p+0 0x1.4000000000001p+2 0x1.c000000000001p-104 0x1.6000000000001p-103",
        "0x1.0000000000000p+0 0x1.8000000000001p+2 0x1.8000000000000p-52 0x1.8000000000000p-51",
        "0x1.ffffffffffffdp-1 0x1.fffffffffffffp+2 0x1.0000000000000p+0 0x1.8000000000000p+1",
        "0x0.0000000000004p-1022 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
    ),
    (0.9999999999999999, 5e-324): (
        "0x1.0000000000000p+0 0x1.0000000000001p+1 0x1.0000000000001p-53 0x1.0000000000001p-53",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.a000000000001p-156 0x1.3000000000001p-155",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x1.0000000000000p-1021 0x1.0000000000000p+54 None None",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.4000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.7ffffffffffffp+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0000000000003p-1022 0x1.fffffffffffffp+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.ffffffffffffcp-1 0x1.0000000000002p+2 0x1.0000000000000p-51 0x1.0000000000000p-51",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.6000000000001p-103 0x1.6000000000001p-103",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x1.d000000000000p-155 0x1.8000000000000p-154",
    ),
    (1.0, 0.0): (
        "0x1.0000000000000p+0 0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0",
        "SingularProfile",
        "SingularProfile",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "SingularProfile",
        "SingularProfile",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.4000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.8000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+3 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
    ),
    (0.0, 1.0): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "SingularProfile",
        "SingularProfile",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "SingularProfile",
        "SingularProfile",
        "0x1.0000000000000p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.4000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.8000000000000p+2 0x0.0p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+3 0x1.0000000000000p+0 0x1.8000000000000p+1",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x1.0000000000000p+0 0x1.0000000000000p+0",
    ),
}


def _engine_row(pf: float, ps: float) -> tuple[str, ...]:
    prof = ServeProfile(pf, ps)
    row = []
    for sched in _SCHEDULES:
        try:
            m = metrics_exact(sched, prof)
        except Exception as exc:  # the exception type is what is pinned
            row.append(type(exc).__name__)
            continue
        row.append(" ".join("None" if v is None else v.hex() for v in m))
    return tuple(row)


class TestGoldenBits:
    @pytest.mark.parametrize("pf,ps", list(_GOLDEN_ENGINE), ids=repr)
    def test_bit_identical(self, pf, ps):
        assert _engine_row(pf, ps) == _GOLDEN_ENGINE[pf, ps]

    def test_bit_identical_on_a_grid(self):
        digest = hashlib.sha256()
        for i in range(41):
            for j in range(41):
                digest.update(" | ".join(_engine_row(i / 40, j / 40)).encode() + b"\n")
        assert digest.hexdigest() == (
            "685528daf337896cc46891ee530d941e3c00ee60fb7fd70b23f1d2e7267e6b66")


def _int_operands(fn) -> list[str]:
    """Every int literal that is a direct operand of +, -, * or / in fn."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if not isinstance(node, ast.BinOp) or not isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            continue
        for side in (node.left, node.right):
            if isinstance(side, ast.UnaryOp) and isinstance(side.op, (ast.UAdd, ast.USub)):
                side = side.operand
            if isinstance(side, ast.Constant) and type(side.value) is int:
                found.append(ast.unparse(node))
    return found


_FLOAT_PATH = (engine._lattice, engine._closure, engine.metrics_exact,
               *(fn for forms in fm.CLOSED_FORMS.values() for _, fn in forms),
               fm._tie_mass, fm._terms, fm._closure_denom)


class TestFloatFastPath:
    # an int literal operand gives the same bits but keeps CPython from
    # specializing the float operation (see the note above
    # formulas._tie_mass); `**` exponents are exempt
    @pytest.mark.parametrize("fn", _FLOAT_PATH, ids=lambda fn: fn.__qualname__)
    def test_no_int_literal_operand(self, fn):
        assert _int_operands(fn) == []


def _rule_breaks(fn) -> list[str]:
    """Where fn breaks the arithmetic rules stated above formulas._tie_mass:
    more than three names bound from one tuple display, a local (parameters
    included) assigned twice, or an identical BinOp tree evaluated twice."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []
    bound = set()
    trees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        else:
            names = []
        for name in names:
            if name in bound:
                found.append(f"{name} assigned twice")
            bound.add(name)
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and any(isinstance(t, ast.Tuple) and len(t.elts) > 3 for t in node.targets)):
            found.append(f"tuple binding {ast.unparse(node)}")
        if isinstance(node, ast.BinOp):
            dump = ast.dump(node)
            if dump in trees:
                found.append(f"{ast.unparse(node)} evaluated twice")
            trees.add(dump)
    return found


class TestArithmeticRules:
    # each local assigned once, so a repeated tree is a repeated value
    @pytest.mark.parametrize("fn", _FLOAT_PATH, ids=lambda fn: fn.__qualname__)
    def test_each_value_evaluated_once(self, fn):
        assert _rule_breaks(fn) == []


def walk_oracle(n, p):
    """Exact rational solve of the absorbing-walk expectation system."""
    pr = Fraction(p)
    q = 1 - pr
    m = 2 * n - 1
    rows = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for j in range(m):
        rows[j][j] = Fraction(1)
        if j > 0:
            rows[j][j - 1] = -q
        if j < m - 1:
            rows[j][j + 1] = -pr
        rows[j][m] = Fraction(1)
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [v / inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return float(rows[n - 1][m])


class TestWalk:
    def test_fair_walk_square_law(self):
        for n in range(1, 11):
            assert walk_expected_duration(n, 0.5) == pytest.approx(n * n, abs=1e-10)

    def test_two_step_walk_is_the_deuce_game(self):
        assert walk_expected_duration(2, 0.7) == pytest.approx(
            fm.e_points_A(0.7), abs=1e-12
        )

    @pytest.mark.parametrize("n,p", [(1, 0.3), (2, 0.7), (3, 0.41), (4, 0.9), (5, 0.5)])
    def test_against_exact_rational_solve(self, n, p):
        assert walk_expected_duration(n, p) == pytest.approx(
            walk_oracle(n, p), rel=1e-10
        )

    def test_biased_walk_is_faster(self):
        assert walk_expected_duration(6, 0.8) < walk_expected_duration(6, 0.5)

    @pytest.mark.parametrize("n", [0, -3, 2.5, "4", 10_001, True])
    def test_bad_n(self, n):
        with pytest.raises(RangeError):
            walk_expected_duration(n, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4, "0.5", None])
    def test_bad_p(self, p):
        with pytest.raises(RangeError):
            walk_expected_duration(3, p)

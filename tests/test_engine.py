"""Engine checks against independent path-enumeration / series oracles."""

import pickle
import re
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

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servelab import engine, formulas as fm
from servelab.errors import SingularProfile
from servelab.types import RuleKind, ServeProfile, rule_b, rule_c, schedule_for

probs = st.floats(min_value=0.01, max_value=0.99)


def grid(lo=0.0, hi=1.0, n=100):
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


class TestDeuceTypeFixedServer:
    def test_win_anchors(self):
        assert fm.p_win_A(0.5) == pytest.approx(0.5, abs=1e-15)
        assert fm.p_win_A(1.0) == 1.0
        assert fm.p_win_A(0.696) == pytest.approx(
            0.696**2 / (0.696**2 + 0.304**2), abs=1e-15
        )

    def test_bp_anchors(self):
        assert fm.p_bp_A(0.0) == 1.0
        assert fm.p_bp_A(1.0) == 0.0
        assert fm.p_bp_A(0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_points_anchors(self):
        assert fm.e_points_A(0.5) == pytest.approx(4.0, abs=1e-15)
        assert fm.e_points_A(1.0) == pytest.approx(2.0, abs=1e-15)
        assert fm.e_points_A(0.696) == pytest.approx(
            2 / (0.696**2 + 0.304**2), abs=1e-15
        )

    def test_bp_count_anchors(self):
        assert fm.e_bp_A(1.0) == 0.0
        assert fm.e_bp_A(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_bp_count_peak_location(self):
        peak = (2 - math.sqrt(2)) / 2
        xs = [i / 2000 for i in range(1, 2000)]
        best = max(xs, key=fm.e_bp_A)
        assert abs(best - peak) <= 0.005

    def test_complementarity(self):
        for p in grid():
            assert fm.p_win_A(p) + fm.p_win_A(1 - p) == pytest.approx(1.0, abs=1e-12)


class TestDeuceTypeAlternating:
    def test_fifty_fifty_first_point_passthrough(self):
        for x in grid(0.01, 0.99):
            assert fm.p_win_Bj(ServeProfile(0.5, x)) == pytest.approx(x, abs=1e-12)

    def test_balanced_profile_is_fair(self):
        for p in grid(0.01, 0.99):
            assert fm.p_win_Bj(ServeProfile(p, 1 - p)) == pytest.approx(0.5, abs=1e-12)

    def test_win_arithmetic(self):
        assert fm.p_win_Bj(ServeProfile(0.7, 0.6)) == pytest.approx(0.42 / 0.54, abs=1e-15)

    def test_points_anchors(self):
        assert fm.e_points_Bj(ServeProfile(0.5, 0.5)) == pytest.approx(4.0, abs=1e-15)
        assert fm.e_points_Bj(ServeProfile(1.0, 1.0)) == pytest.approx(2.0, abs=1e-15)
        assert fm.e_points_Bj(ServeProfile(0.7, 0.6)) == pytest.approx(2 / 0.54, abs=1e-15)

    @pytest.mark.parametrize("pf,ps", [(1.0, 0.0), (0.0, 1.0)])
    def test_singular_profiles_rejected(self, pf, ps):
        with pytest.raises(SingularProfile):
            fm.p_win_Bj(ServeProfile(pf, ps))
        with pytest.raises(SingularProfile):
            fm.e_points_Bj(ServeProfile(pf, ps))

    @settings(max_examples=200, deadline=None)
    @given(probs, probs)
    def test_symmetry_in_the_two_chances(self, a, b):
        assert fm.p_win_Bj(ServeProfile(a, b)) == pytest.approx(
            fm.p_win_Bj(ServeProfile(b, a)), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(probs, probs)
    def test_complement_symmetry(self, a, b):
        total = fm.p_win_Bj(ServeProfile(a, b)) + fm.p_win_Bj(ServeProfile(1 - a, 1 - b))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestExistingGame:
    def test_symmetry_point(self):
        assert fm.p_win_T(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_complementarity(self):
        for p in grid():
            assert fm.p_win_T(p) + fm.p_win_T(1 - p) == pytest.approx(1.0, abs=1e-12)

    def test_alternative_form_identical(self):
        for p in grid(0.0, 1.0, 100):
            assert abs(fm.p_win_T(p) - fm.p_win_T_omalley(p)) <= 1e-12

    def test_points_maximum_at_even_game(self):
        assert fm.e_points_T(0.5) == pytest.approx(6.75, abs=1e-15)
        assert max(grid(), key=fm.e_points_T) == pytest.approx(0.5, abs=1e-9)

    def test_bp_anchors(self):
        assert fm.p_bp_T(1.0) == 0.0
        assert fm.e_bp_T(1.0) == 0.0
        # direct sum over the lose-three-then-extend paths at p = 1/2
        assert fm.p_bp_T(0.5) == pytest.approx(29 / 48, abs=1e-15)

    def test_dominates_fixed_server_deuce_game(self):
        for p in grid(0.5, 1.0):
            assert fm.p_win_T(p) >= fm.p_win_A(p) - 1e-12

    def test_bp_less_likely_than_deuce_game_above_crossover(self):
        # the ordering flips at p ~ 0.40437: below that the complete game
        # actually yields more break points than the deuce-type game
        for p in grid(0.41, 0.999):
            assert fm.p_bp_T(p) <= fm.p_bp_A(p) + 1e-12
        assert fm.p_bp_T(0.40) > fm.p_bp_A(0.40)


class TestAlternatingCompleteGame:
    def test_even_profile_reduces_to_existing_game(self):
        for p in grid(0.05, 0.95, 30):
            prof = ServeProfile(p, p)
            assert fm.p_win_B(prof) == pytest.approx(fm.p_win_T(p), abs=1e-12)
            assert fm.e_points_B(prof) == pytest.approx(fm.e_points_T(p), abs=1e-12)

    def test_fair_point(self):
        prof = ServeProfile(0.5, 0.5)
        assert fm.p_win_B(prof) == pytest.approx(0.5, abs=1e-12)
        assert fm.e_points_B(prof) == pytest.approx(6.75, abs=1e-12)

    def test_against_engine(self):
        prof = ServeProfile(0.7, 0.35)
        m = engine.metrics_exact(rule_b(1), prof)
        assert fm.p_win_B(prof) == pytest.approx(m.win_prob, abs=1e-12)
        assert fm.e_points_B(prof) == pytest.approx(m.expected_points, abs=1e-12)

    def test_singular(self):
        with pytest.raises(SingularProfile):
            fm.p_win_B(ServeProfile(1.0, 0.0))


class TestProposedGame:
    def test_even_profile_reduces_to_existing_game(self):
        for p in grid(0.05, 0.95, 30):
            prof = ServeProfile(p, p)
            assert fm.p_win_C(prof) == pytest.approx(fm.p_win_T(p), abs=1e-12)
            assert fm.p_bp_C(prof) == pytest.approx(fm.p_bp_T(p), abs=1e-12)
            assert fm.e_points_C(prof) == pytest.approx(fm.e_points_T(p), abs=1e-12)
            assert fm.e_bp_C(prof) == pytest.approx(fm.e_bp_T(p), abs=1e-12)

    @pytest.mark.parametrize(
        "pf,ps",
        [(0.696, 0.55), (0.666, 0.52), (0.626, 0.51), (0.608, 0.49), (0.9, 0.1), (0.2, 0.8)],
    )
    def test_against_engine(self, pf, ps):
        prof = ServeProfile(pf, ps)
        m = engine.metrics_exact(rule_c(3), prof)
        assert fm.p_win_C(prof) == pytest.approx(m.win_prob, abs=1e-12)
        assert fm.p_bp_C(prof) == pytest.approx(m.bp_prob, abs=1e-12)
        assert fm.e_points_C(prof) == pytest.approx(m.expected_points, abs=1e-12)
        assert fm.e_bp_C(prof) == pytest.approx(m.expected_bps, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(probs, probs)
    def test_count_dominates_indicator(self, pf, ps):
        prof = ServeProfile(pf, ps)
        assert fm.e_bp_C(prof) >= fm.p_bp_C(prof) - 1e-12

    def test_certain_server_never_faces_break_point(self):
        prof = ServeProfile(1.0, 1.0)
        assert fm.p_win_C(prof) == pytest.approx(1.0, abs=1e-15)
        assert fm.p_bp_C(prof) == pytest.approx(0.0, abs=1e-15)
        assert fm.e_points_C(prof) == pytest.approx(4.0, abs=1e-15)
        assert fm.e_bp_C(prof) == pytest.approx(0.0, abs=1e-15)


_GAMES = [(k, 3) for k in RuleKind if k is not RuleKind.C] + [
    (RuleKind.C, x) for x in range(7)
]


class TestClosedMetrics:
    @pytest.mark.parametrize("kind,x", _GAMES, ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("pf,ps", [(0.62, 0.45), (0.5, 0.5), (0.3, 0.7)])
    def test_fields_and_values_match_engine(self, kind, x, pf, ps):
        prof = ServeProfile(pf, ps)
        closed = fm.closed_metrics(kind, prof, x)
        m = engine.metrics_exact(schedule_for(kind, x=x), prof)
        if kind is RuleKind.C and x != 3:
            assert closed == {}
            assert fm.engine_gap(closed, m) == (0.0, True)
            return
        fields = ("win_prob", "expected_points", "bp_prob", "expected_bps")
        present = {f for f in fields if getattr(m, f) is not None}
        assert set(closed) == present
        for name, value in closed.items():
            assert value == pytest.approx(getattr(m, name), abs=1e-9)
        gaps = [abs(value - getattr(m, name)) for name, value in closed.items()]
        assert fm.engine_gap(closed, m) == (max(gaps), True)

    def test_engine_gap_reports_the_worst_field(self):
        prof = ServeProfile(0.62, 0.45)
        m = engine.metrics_exact(schedule_for(RuleKind.T), prof)
        closed = {**fm.closed_metrics(RuleKind.T, prof), "bp_prob": m.bp_prob + 0.25,
                  "expected_points": m.expected_points - 2e-9}
        worst, agree = fm.engine_gap(closed, m)
        assert worst == pytest.approx(0.25)
        assert not agree
        # a gap beyond 1e-9 on a value past 1000 agrees under the relative rule
        prof = ServeProfile(0.9999999999085221, 2.845773617600403e-11)
        closed = fm.closed_metrics(RuleKind.B, prof)
        worst, agree = fm.engine_gap(closed, engine.metrics_exact(schedule_for(RuleKind.B), prof))
        assert worst > 1e-9 and agree


# the tied-region corners (0, 1), (1, 0) and the floats next to them
_near_corner = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _singular(fn) -> bool:
    try:
        fn()
    except SingularProfile:
        return True
    return False


class TestSingularGuardsAgree:
    """formulas._closure_denom and engine.deuce_closure guard the same
    denominator on purpose, so the closed forms stay an independent check
    of the engine; they must reject exactly the same profiles."""

    @given(st.sampled_from(RuleKind), st.sampled_from((1, 2)), _near_corner, _near_corner)
    @settings(max_examples=500, deadline=None)
    def test_closed_forms_and_engine_reject_the_same_profiles(self, kind, order, pf, ps):
        prof = ServeProfile(pf, ps)
        sched = schedule_for(kind, order=order)
        assert _singular(lambda: fm.closed_metrics(kind, prof)) == _singular(
            lambda: engine.metrics_exact(sched, prof)
        )


# a profile 1e-12 to 1e-3 away from one of the four corners of the unit square
_offset = st.floats(min_value=-12.0, max_value=-3.0).map(lambda e: 10.0**e)


def _near(corner: float, offset: float) -> float:
    return offset if corner == 0.0 else 1.0 - offset


class TestAgreementNearCorners:
    """Near (1, 0) and (0, 1) the alternating games run for up to ~1e12
    points, so closed form and engine differ in the last place there;
    formulas.agrees must still accept every closed form."""

    @given(st.sampled_from(RuleKind), st.sampled_from((1, 2)),
           st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)]),
           _offset, _offset)
    @settings(max_examples=1000, deadline=None)
    def test_every_closed_form_agrees_with_the_engine(self, kind, order, corner, df, ds):
        prof = ServeProfile(_near(corner[0], df), _near(corner[1], ds))
        m = engine.metrics_exact(schedule_for(kind, order=order), prof)
        for name, value in fm.closed_metrics(kind, prof).items():
            assert fm.agrees(value, getattr(m, name)), (name, value, getattr(m, name))

    @given(st.floats(min_value=0.0, max_value=999.0), st.floats(min_value=-3e-9, max_value=3e-9))
    def test_absolute_1e9_up_to_1000(self, a, gap):
        b = abs(a + gap)
        assert fm.agrees(a, b) == (abs(a - b) <= 1e-9)

    def test_relative_beyond_1000(self):
        big = 16675605832.532696
        assert fm.agrees(big, math.nextafter(big, math.inf))
        assert not fm.agrees(big, big * (1.0 + 1e-11))

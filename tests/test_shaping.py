"""Cutoff solving and the existing-vs-proposed comparison table."""

import pytest

from servelab import formulas as fm
from servelab.atp import PlayerStats, load_sample
from servelab.errors import ConsistencyError, DegenerateProfile, RangeError
from servelab.shaping import compare_table, invert_p_win_T, recommend_cutoff, solve_x
from servelab.types import RuleKind

FEDERER = PlayerStats(1, "R. Federer", 0.62, 0.77, 0.57, 0.88)
GABASHVILI = PlayerStats(200, "T. Gabashvili", 0.57, 0.70, 0.48, 0.74)


class TestInvert:
    def test_round_trip(self):
        for i in range(1, 19):
            t = 0.05 * i
            p = invert_p_win_T(t)
            assert abs(fm.p_win_T(p) - t) <= 1e-9

    def test_symmetry_point(self):
        assert invert_p_win_T(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_frozen_band_values(self):
        assert invert_p_win_T(0.60) == pytest.approx(0.540392, abs=1e-6)
        assert invert_p_win_T(0.75) == pytest.approx(0.606931, abs=1e-6)

    def test_monotone(self):
        assert invert_p_win_T(0.60) < invert_p_win_T(0.75)

    def test_lowest_target(self):
        # a lower target's p would lie below the bisection bracket's 1e-6
        lowest = fm.p_win_T(1e-6)
        assert invert_p_win_T(lowest) == pytest.approx(1e-6, rel=1e-6)
        with pytest.raises(RangeError):
            invert_p_win_T(lowest * (1 - 1e-9))

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.3, 1.1, "0.6", None])
    def test_target_bounds(self, t):
        with pytest.raises(RangeError):
            invert_p_win_T(t)


class TestSolveX:
    def test_frozen_values(self):
        assert solve_x(GABASHVILI, 0.537) == pytest.approx(3.050884, abs=1e-5)
        assert solve_x(FEDERER, 0.617) == pytest.approx(2.423110, abs=1e-5)

    def test_target_at_single_serve_rate_needs_no_full_serves(self):
        assert solve_x(FEDERER, FEDERER.p_s_won) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_target(self):
        xs = [solve_x(FEDERER, t) for t in (0.58, 0.60, 0.62, 0.64)]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_degenerate_profile(self):
        flat = PlayerStats(5, "flat", 1.0, 0.6, 0.6, 0.7)
        with pytest.raises(DegenerateProfile):
            solve_x(flat, 0.55)


class TestRecommendCutoff:
    def test_sample_players(self):
        sol = recommend_cutoff(GABASHVILI, FEDERER)
        assert sol.p_trad == pytest.approx(0.540392, abs=1e-6)
        assert sol.p_exc == pytest.approx(0.606931, abs=1e-6)
        assert sol.x_low == pytest.approx(3.228962, abs=1e-5)
        assert sol.x_high == pytest.approx(1.920470, abs=1e-5)
        assert sol.x_recommended == 3
        assert sol.warning is not None and "3" in sol.warning

    def test_band_inversion_is_tight(self):
        sol = recommend_cutoff(GABASHVILI, FEDERER)
        assert abs(fm.p_win_T(sol.p_trad) - 0.60) <= 1e-9
        assert abs(fm.p_win_T(sol.p_exc) - 0.75) <= 1e-9

    def test_agreeing_players_carry_no_warning(self):
        rows = {r.rank: r for r in load_sample()}
        sol = recommend_cutoff(rows[107], rows[1])
        assert round(sol.x_low) == round(sol.x_high) == 2
        assert sol.warning is None
        assert sol.x_recommended == round(sol.x_low)

    def test_agreeing_cutoffs_outside_game_c_still_warn(self):
        big_server = PlayerStats(9, "big server", 1.0, 0.75, 0.64, 0.9)
        sol = recommend_cutoff(FEDERER, big_server)
        assert round(sol.x_low) == round(sol.x_high) == sol.x_recommended == -2
        assert sol.warning == "cutoff -2 lies outside game C's 0..6"


class TestCompareTable:
    def test_sample_orderings(self):
        rows = compare_table(load_sample())
        assert len(rows) == 6
        for r in rows:
            assert r.p_c < r.p_t
            assert r.p_c_br > r.p_t_br
            assert r.e_c > r.e_t
            assert r.e_c_br > r.e_t_br

    def test_flat_profile_gives_identical_columns(self):
        flat = PlayerStats(5, "flat", 1.0, 0.6, 0.6, 0.7)
        (r,) = compare_table([flat])
        assert r.p_c == pytest.approx(r.p_t, abs=1e-12)
        assert r.p_c_br == pytest.approx(r.p_t_br, abs=1e-12)
        assert r.e_c == pytest.approx(r.e_t, abs=1e-12)
        assert r.e_c_br == pytest.approx(r.e_t_br, abs=1e-12)

    def test_zero_cutoff_is_the_single_serve_game(self):
        (r,) = compare_table([FEDERER], x=0)
        assert r.p_c == pytest.approx(fm.p_win_T(FEDERER.p_s_won), abs=1e-12)

    def test_federer_row_values(self):
        (r,) = compare_table([FEDERER])
        assert r.p_emp == pytest.approx(0.694, abs=0.0005)
        assert r.p_t == pytest.approx(0.893487, abs=5e-7)
        assert r.p_c == pytest.approx(0.772460, abs=5e-7)

    @pytest.mark.parametrize("x", [-1, 7, 2.5])
    def test_cutoff_bounds(self, x):
        with pytest.raises(RangeError):
            compare_table([FEDERER], x=x)

    def test_divergence_raises(self, monkeypatch):
        monkeypatch.setitem(fm.CLOSED_FORMS, RuleKind.C, (("win_prob", lambda _: 0.0),))
        with pytest.raises(ConsistencyError):
            compare_table([FEDERER])

import hashlib
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


# float.hex() of every public closed form, in _PINNED_FORMS order, then of the
# four deuce_closure((p_F, p_S)) values, at interior profiles, the four
# acceptance reference rows, the unit square's edges, subnormal and
# next-to-one chances, and the two singular corners.  A call that raises is
# pinned by its exception's type name.  The 1e-9 agreement checks above
# cannot see a last-place change; these rows fail on one.  `**` calls the C
# library's pow, so the values are glibc's on x86-64; another libm may
# round a power differently.
_PINNED_FORMS = (
    "p_win_A", "p_bp_A", "e_points_A", "e_bp_A", "p_win_Bj", "e_points_Bj",
    "p_win_T", "p_win_T_omalley", "p_bp_T", "e_points_T", "e_bp_T",
    "p_win_B", "e_points_B", "p_win_C", "p_bp_C", "e_points_C", "e_bp_C",
)

_GOLDEN_BITS = {
    (0.63, 0.52): (
        "0x1.7cb0de86796e0p-1", "0x1.ee0a7b4f58d3cp-2", "0x1.df9492f18444ap+1",
        "0x1.62e3b46b0ad6ap-1", "0x1.4c026eab7a393p-1", "0x1.fabae1cc8427cp+1",
        "0x1.96e021f03ec38p-1", "0x1.96e021f03ec3bp-1", "0x1.4ffe717a0c775p-2",
        "0x1.943c3d4ef98d2p+2", "0x1.1c1ec6de78f69p-1", "0x1.5d9b632f408d9p-1",
        "0x1.a772db7a7b092p+2", "0x1.4d47655100422p-1", "0x1.ca5fb85075e58p-2",
        "0x1.a71ccb04923b3p+2", "0x1.7455ecec94cbcp-1", "0x1.4c026eab7a393p-1",
        "0x1.fabae1cc8427cp+1", "0x1.0f8f441c2ef8fp-1", "0x1.76faeec56c08fp-1",
    ),
    (0.5, 0.5): (
        "0x1.0000000000000p-1", "0x1.5555555555555p-1", "0x1.0000000000000p+2",
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+2",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.3555555555555p-1",
        "0x1.b000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        "0x1.b000000000000p+2", "0x1.0000000000000p-1", "0x1.3555555555555p-1",
        "0x1.b000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        "0x1.0000000000000p+2", "0x1.5555555555555p-1", "0x1.0000000000000p+0",
    ),
    (0.3, 0.7): (
        "0x1.3dcb08d3dcb09p-3", "0x1.c5abbf309b8b6p-1", "0x1.b9611a7b9611bp+1",
        "0x1.34f72c234f72cp+0", "0x1.fffffffffffffp-2", "0x1.30c30c30c30c3p+2",
        "0x1.965e4f4817a91p-4", "0x1.965e4f4817a93p-4", "0x1.d6847aee05ae1p-1",
        "0x1.75372062fb619p+2", "0x1.496e6fc74707ap+0", "0x1.ffffffffffffcp-2",
        "0x1.cf5a9980a2477p+2", "0x1.3d8adab9f559ap-1", "0x1.3cdaf3d444eccp-1",
        "0x1.afe5c91d14e3ap+2", "0x1.44189374bc6a6p+0", "0x1.fffffffffffffp-2",
        "0x1.30c30c30c30c3p+2", "0x1.89d89d89d89d9p-1", "0x1.aaaaaaaaaaaa9p+0",
    ),
    (0.9, 0.1): (
        "0x1.f9c18f9c18f9cp-1", "0x1.c21c21c21c21ap-4", "0x1.3831f3831f383p+1",
        "0x1.f3831f3831f36p-4", "0x1.0000000000001p-1", "0x1.638e38e38e38ep+3",
        "0x1.ff423bbacbab3p-1", "0x1.ff423bbacbabdp-1", "0x1.32be96d1427acp-7",
        "0x1.1d768de1a64ebp+2", "0x1.da6aad02d3c59p-7", "0x1.0000000000002p-1",
        "0x1.8c73992517704p+3", "0x1.b15b573eab368p-3", "0x1.9423ae5d4ddedp-1",
        "0x1.cd14e3bcd35abp+2", "0x1.c083126e978d6p-1", "0x1.0000000000001p-1",
        "0x1.638e38e38e38ep+3", "0x1.0d79435e50d78p-1", "0x1.1c71c71c71c71p-1",
    ),
    (0.2, 0.8): (
        "0x1.e1e1e1e1e1e1ep-5", "0x1.e79e79e79e79ep-1", "0x1.7878787878786p+1",
        "0x1.2d2d2d2d2d2d2p+0", "0x1.0000000000001p-1", "0x1.9000000000000p+2",
        "0x1.64d301b377aaap-6", "0x1.64d301b377aa8p-6", "0x1.f6515db66b94cp-1",
        "0x1.457cc88f3726ep+2", "0x1.3907e0f77ea9cp+0", "0x1.0000000000002p-1",
        "0x1.0989374bc6a81p+3", "0x1.5e9e1b089a02ap-1", "0x1.55a33a40bf7d8p-1",
        "0x1.b6ae7d566cf45p+2", "0x1.9374bc6a7efa0p+0", "0x1.0000000000001p-1",
        "0x1.9000000000000p+2", "0x1.aaaaaaaaaaaaap-1", "0x1.4000000000000p+1",
    ),
    (0.45, 0.62): (
        "0x1.9a9d260511be0p-2", "0x1.763822051a5d9p-1", "0x1.faee41e6a7496p+1",
        "0x1.16cfd7720f353p+0", "0x1.24b8a7de6d1d6p-1", "0x1.064b8a7de6d1dp+2",
        "0x1.81e55be5450e3p-2", "0x1.81e55be5450e2p-2", "0x1.686a8251fee3cp-1",
        "0x1.ab941cec6668ap+2", "0x1.220c1c0c266e0p+0", "0x1.2d639d31ee9bap-1",
        "0x1.b2dfab668a162p+2", "0x1.464a30ce77c84p-1", "0x1.0e48e0baf9aa9p-1",
        "0x1.aca5c971f522ep+2", "0x1.e8b6064c73f15p-1", "0x1.24b8a7de6d1d6p-1",
        "0x1.064b8a7de6d1dp+2", "0x1.53afb5e2f8e5cp-1", "0x1.20864b8a7de6dp+0",
    ),
    (0.696, 0.55): (
        "0x1.adf88eed0e0f4p-1", "0x1.8ad6559366237p-2", "0x1.bbcdab4d0ef7fp+1",
        "0x1.0dd51c6000e8cp-1", "0x1.79336fbdc86ccp-1", "0x1.ecafca654bdfap+1",
        "0x1.cabb050d07f94p-1", "0x1.cabb050d07f9ap-1", "0x1.a3b50c89e5c5fp-3",
        "0x1.771fd3d20efd5p+2", "0x1.5e74f9b7be11bp-2", "0x1.92174f9f44bdep-1",
        "0x1.986739ee1cb28p+2", "0x1.7fa19c7a26e3ep-1", "0x1.615c48c977b70p-2",
        "0x1.982abbf4ddffdp+2", "0x1.1d4387d41b5aep-1", "0x1.79336fbdc86ccp-1",
        "0x1.ecafca654bdfap+1", "0x1.c541742592901p-2", "0x1.2b8db25a429c8p-1",
    ),
    (0.666, 0.52): (
        "0x1.991b9b7ccac80p-1", "0x1.b7dc3b52101b2p-2", "0x1.cd2b0ef02b44cp+1",
        "0x1.340f7373607ccp-1", "0x1.5dfbe0784ca48p-1", "0x1.f94a2d3170034p+1",
        "0x1.b5bddce88883ep-1", "0x1.b5bddce88883ep-1", "0x1.085731bf60d35p-2",
        "0x1.850a4313ade8ep+2", "0x1.bca927f95b93ap-2", "0x1.72b7cf047632fp-1",
        "0x1.a345faf0e8674p+2", "0x1.5dcd1f1ae9849p-1", "0x1.a3a33bae5627ap-2",
        "0x1.a274deff2f550p+2", "0x1.51e9ff3299815p-1", "0x1.5dfbe0784ca48p-1",
        "0x1.f94a2d3170034p+1", "0x1.f6ba6697b8b6fp-2", "0x1.5188970560541p-1",
    ),
    (0.626, 0.51): (
        "0x1.7951d8b5339afp-1", "0x1.f40cb3a8d7746p-2", "0x1.e16d6c34a425cp+1",
        "0x1.681b937f708adp-1", "0x1.45486689df6fep-1", "0x1.fd6eb5b98909ap+1",
        "0x1.9313409c008bap-1", "0x1.9313409c008bdp-1", "0x1.584cb20ac9105p-2",
        "0x1.95c8928a76e99p+2", "0x1.233e26123809ep-1", "0x1.5574cbe205b3ap-1",
        "0x1.a96852134524ap+2", "0x1.43dfe3ae2fa9fp-1", "0x1.da6daecff608ap-2",
        "0x1.a8c8cccfb3e32p+2", "0x1.7fedf0a6f78b2p-1", "0x1.45486689df6fep-1",
        "0x1.fd6eb5b98909ap+1", "0x1.1436bd9547f0fp-1", "0x1.7d0e33f64ce77p-1",
    ),
    (0.608, 0.49): (
        "0x1.69a9877780040p-1", "0x1.0781dc55c8f9bp-1", "0x1.e92d4d3c34387p+1",
        "0x1.7f83c5c4b4348p-1", "0x1.3264c993264c9p-1", "0x1.011c5808e2c05p+2",
        "0x1.811c3e880d0d4p-1", "0x1.811c3e880d0d4p-1", "0x1.7e595b3c2b32ep-2",
        "0x1.9c531d52331e8p+2", "0x1.43b2b94c1d65ep-1", "0x1.3e6ceb17266f7p-1",
        "0x1.ad8a21c94e9bep+2", "0x1.2bde34794f825p-1", "0x1.02af243617d6dp-1",
        "0x1.ac64664960778p+2", "0x1.9ff1f376873cbp-1", "0x1.3264c993264c9p-1",
        "0x1.011c5808e2c05p+2", "0x1.22e8ba2e8ba2fp-1", "0x1.93264c993264ep-1",
    ),
    (0.0, 0.0): (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x0.0p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    (1.0, 1.0): (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+2", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1",
        "0x0.0p+0", "0x0.0p+0",
    ),
    (0.0, 0.5): (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.6000000000000p+2",
        "0x1.0000000000000p-4", "0x1.0000000000000p+0", "0x1.5000000000000p+2",
        "0x1.e000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x1.0000000000000p+1",
    ),
    (1.0, 0.5): (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.6000000000000p+2", "0x1.e000000000000p-1",
        "0x1.5555555555555p-4", "0x1.5000000000000p+2", "0x1.0000000000000p-3",
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0",
    ),
    (0.5, 0.0): (
        "0x1.0000000000000p-1", "0x1.5555555555555p-1", "0x1.0000000000000p+2",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.3555555555555p-1", "0x1.b000000000000p+2",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.7000000000000p+2", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.6800000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    (0.5, 1.0): (
        "0x1.0000000000000p-1", "0x1.5555555555555p-1", "0x1.0000000000000p+2",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+2",
        "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.3555555555555p-1",
        "0x1.b000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.7000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p-3",
        "0x1.6800000000000p+2", "0x1.8000000000000p-2", "0x1.0000000000000p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
    ),
    (1e-300, 0.5): (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "0x1.56e1fc2f8f359p-997", "0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x1.56e1fc2f8f359p-998", "0x1.6000000000000p+2", "0x1.0000000000000p-4",
        "0x1.0000000000000p+0", "0x1.5000000000000p+2", "0x1.e000000000000p+0",
        "0x1.56e1fc2f8f359p-997", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x1.0000000000000p+1",
    ),
    (0.5, 5e-324): (
        "0x1.0000000000000p-1", "0x1.5555555555555p-1", "0x1.0000000000000p+2",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x1.0000000000000p-1",
        "0x1.0000000000000p-1", "0x1.3555555555555p-1", "0x1.b000000000000p+2",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.7000000000000p+2", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.6800000000000p+2", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    (0.9999999999999999, 1e-300): (
        "0x1.0000000000000p+0", "0x1.0000000000001p-53", "0x1.0000000000001p+1",
        "0x1.0000000000001p-53", "0x1.56e1fc2f8f358p-944", "0x1.0000000000000p+54",
        "0x1.0000000000000p+0", "0x1.0000000000006p+0", "0x1.4000000000000p-156",
        "0x1.0000000000000p+2", "0x1.dffffffffffffp-156", "0x1.56e1fc2f8f358p-944",
        "0x1.0000000000000p+54", "0x1.01297d23ab681p-995", "0x1.0000000000000p+0",
        "0x1.fffffffffffffp+2", "0x1.0000000000000p+0", "0x1.56e1fc2f8f358p-944",
        "0x1.0000000000000p+54", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    (5e-324, 0.9999999999999999): (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "0x1.0000000000000p-1021", "0x1.0000000000000p+54", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+0",
        "0x1.0000000000002p-1021", "0x1.0000000000000p+54", "0x1.ffffffffffffdp-1",
        "0x1.0000000000000p+0", "0x1.fffffffffffffp+2", "0x1.8000000000000p+1",
        "0x1.0000000000000p-1021", "0x1.0000000000000p+54", "0x1.0000000000000p+0",
        "0x1.0000000000000p+53",
    ),
    (0.9999999999999999, 5e-324): (
        "0x1.0000000000000p+0", "0x1.0000000000001p-53", "0x1.0000000000001p+1",
        "0x1.0000000000001p-53", "0x1.0000000000000p-1021", "0x1.0000000000000p+54",
        "0x1.0000000000000p+0", "0x1.0000000000006p+0", "0x1.4000000000000p-156",
        "0x1.0000000000000p+2", "0x1.dffffffffffffp-156", "0x1.0000000000002p-1021",
        "0x1.0000000000000p+54", "0x0.0000000000003p-1022", "0x1.0000000000000p+0",
        "0x1.fffffffffffffp+2", "0x1.0000000000000p+0", "0x1.0000000000000p-1021",
        "0x1.0000000000000p+54", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    (1.0, 0.0): (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0",
        "SingularProfile", "SingularProfile", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x0.0p+0", "0x1.0000000000000p+2", "0x0.0p+0", "SingularProfile", "SingularProfile",
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+3", "0x1.0000000000000p+0",
        "SingularProfile",
    ),
    (0.0, 1.0): (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+0",
        "SingularProfile", "SingularProfile", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+2", "0x1.0000000000000p+0", "SingularProfile", "SingularProfile",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+3",
        "0x1.8000000000000p+1", "SingularProfile",
    ),
}


def _bits(fn, arg) -> tuple[str, ...]:
    try:
        value = fn(arg)
    except Exception as exc:  # the exception type is what is pinned
        return (type(exc).__name__,)
    return tuple(v.hex() for v in value) if isinstance(value, tuple) else (value.hex(),)


def _bits_row(pf: float, ps: float) -> tuple[str, ...]:
    prof = ServeProfile(pf, ps)
    row = []
    for name in _PINNED_FORMS:
        scalar = name.rsplit("_", 1)[-1] in ("A", "T", "omalley")
        row += _bits(getattr(fm, name), pf if scalar else prof)
    return tuple(row) + _bits(engine.deuce_closure, (pf, ps))


class TestGoldenBits:
    def test_every_public_closed_form_is_pinned(self):
        assert set(_PINNED_FORMS) == {n for n in fm.__all__ if n.startswith(("p_", "e_"))}

    @pytest.mark.parametrize("pf,ps", list(_GOLDEN_BITS), ids=repr)
    def test_bit_identical(self, pf, ps):
        assert _bits_row(pf, ps) == _GOLDEN_BITS[pf, ps]

    def test_bit_identical_on_a_grid(self):
        # a last-place change shows at only some profiles (x**3 against
        # x * x * x moved about 1 in 12), so one digest covers 1,681 more
        digest = hashlib.sha256()
        for pf in grid(n=40):
            for ps in grid(n=40):
                digest.update(" ".join(_bits_row(pf, ps)).encode() + b"\n")
        assert digest.hexdigest() == (
            "1cfd7f3b4e449521e91e6148c0d065b5f487ea3e42e28cfae7ff4c11e2266fdc")


# The six forms that share a profile's _terms, and the profiles they must
# agree on: a grid, the singular corners (the B forms raise there, the C
# forms still return), int fields and signed zeros.
_SHARED_FORMS = (fm.p_win_B, fm.e_points_B, fm.p_win_C, fm.p_bp_C, fm.e_points_C, fm.e_bp_C)
_ORDER_CASES = [(pf, ps) for pf in grid(n=6) for ps in grid(n=6)] + [
    (1, 0), (0, 1), (1, 0.25), (0.25, 0), (-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0), (-0.0, 1.0),
]


class TestSharedTerms:
    @pytest.mark.parametrize("pf,ps", _ORDER_CASES, ids=repr)
    def test_order_of_forms_does_not_change_bits(self, pf, ps):
        fresh = {fn: _bits(fn, ServeProfile(pf, ps)) for fn in _SHARED_FORMS}
        for order in (_SHARED_FORMS, _SHARED_FORMS[::-1]):
            for fn in _SHARED_FORMS:
                prof = ServeProfile(pf, ps)
                for other in order:
                    if other is not fn:
                        _bits(other, prof)
                assert prof._terms is not None
                assert _bits(fn, prof) == fresh[fn], fn.__name__

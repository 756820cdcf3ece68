"""servelab: win probability, break points, and game length for tennis
serve-rule variants.

The library models a game as a Markov chain over the score with a
random-walk closure of the tied region.  Five rule variants are covered:

* A  - deuce-type game, one player serving throughout
* Bj - deuce-type game, serve alternating every point
* T  - the existing tennis game (two serve attempts, fixed server)
* B  - complete game with the serve alternating every point
* C(x) - proposed game: a second serve attempt only on the first x
  points (headline value x = 3)

Three independent evaluation paths keep each other honest: closed-form
expressions (formulas), exact lattice propagation (engine), and a
seedable Monte Carlo simulator (simulate) with one pure-Python kernel.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so a command pays only
for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"


def mc_backend() -> str:
    """Which kernel estimate_metrics uses; there is one, 'pure-python'.

    Defined here rather than in simulate, so that asking loads no simulator.
    """
    return "pure-python"


# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in (
        ("atp", "FitRow FitSummary PlayerStats fit_report load_sample p_emp "
                "parse_stats sample_path"),
        ("engine", "deuce_closure metrics_exact walk_expected_duration"),
        ("errors", "ConsistencyError DegenerateProfile DeuceCapExceeded ParseError "
                   "RangeError ServelabError SingularProfile"),
        ("formulas", "e_bp_A e_bp_C e_bp_T e_points_A e_points_B e_points_Bj "
                     "e_points_C e_points_T p_bp_A p_bp_C p_bp_T p_win_A p_win_B "
                     "p_win_Bj p_win_C p_win_T p_win_T_omalley"),
        ("shaping", "CompareRow ShapingSolution compare_table invert_p_win_T "
                    "recommend_cutoff solve_x"),
        ("simulate", "MetricEstimate SimConfig SimResult SplitMix64 estimate_metrics "
                     "simulate_game substream"),
        ("types", "GameMetrics PointSource RuleKind ServeProfile ServeSchedule "
                  "rule_a rule_b rule_bj rule_c rule_t schedule_for"),
    )
    for name in names.split()
}

__all__ = [*_SOURCE, "mc_backend"]


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

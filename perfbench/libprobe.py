"""Traced-run probe of the atp, shaping and svg layers.

In the untraced run these layers execute only inside `servelab` child
processes, where the benchmark cannot put spans around them, so the
traced run also calls them in-process on inputs like the CLI session's,
after one untraced warm-up pass.
"""

from __future__ import annotations

from servelab.formulas import p_win_T

from cliseg import ROOT, write_stats

REPEATS = 10
# what `sweep --games A,Bj,T,B,C --step 0.01` plots: 16 series of 51 points
SWEEP_GAMES = (("A", "rule_a", ()), ("Bj", "rule_bj", (1,)), ("T", "rule_t", ()),
               ("B", "rule_b", (1,)), ("C", "rule_c", (3,)))


def _series(lib):
    series = {}
    for i in range(51):
        p = 0.4 + 0.01 * i
        prof = lib.ServeProfile(p, 1.05 - p)
        for kind, factory, args in SWEEP_GAMES:
            m = lib.metrics_exact[kind](getattr(lib, factory)(*args), prof)
            for field in ("win_prob", "bp_prob", "expected_points", "expected_bps"):
                if getattr(m, field) is not None:
                    series.setdefault(f"{kind}:{field}", []).append((p, getattr(m, field)))
    return sorted(series.items())


def _pass(lib, sources, series, tally) -> None:
    for src in sources:
        rows = lib.parse_stats(src)
        fit_rows, _ = lib.fit_report(rows)
        table = lib.compare_table(rows, 3)
        sol = lib.recommend_cutoff(rows[-1], rows[0])
        tally.check(len(fit_rows) == len(table) == len(rows) and sol.x_recommended == round(sol.x_low),
                    f"atp/shaping probe on {src.name}: inconsistent results")
    for target in (0.60, 0.75):
        p = lib.invert_p_win_T(target)
        tally.check(abs(p_win_T(p) - target) < 1e-8, f"invert_p_win_T({target}) does not invert")
    chart = lib.polyline_chart(series, title="metric sweep", x_label="p_F", y_label="value")
    tally.check(chart.startswith("<svg") and chart.rstrip().endswith("</svg>"),
                "polyline_chart: not an SVG document")


def run(lib, raw, rng, tmp, tally) -> None:
    stats = tmp / "probe_stats.csv"
    write_stats(rng, stats)
    sources = (ROOT / "src/servelab/data/atp_sample.csv", stats)
    series = _series(raw)
    _pass(raw, sources, series, tally)
    for _ in range(REPEATS):
        _pass(lib, sources, series, tally)

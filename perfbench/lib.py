"""The servelab entry points the benchmark calls, by layer.

`Lib(None)` hands out the package's own functions untouched, so the
untraced run pays nothing for instrumentation.  `Lib(tracer)` hands out
the same functions wrapped in spans named "<layer>.<what>".
"""

from __future__ import annotations

import importlib
import pkgutil

import servelab
from servelab import atp, engine, formulas, shaping, simulate, svg, types

KINDS = ("A", "Bj", "T", "B", "C")

# closed forms by game kind: (GameMetrics field, function); A and T take
# the scalar p_F, the others the whole profile.  C has closed forms only
# at its headline cutoff x = 3.
CLOSED = {
    "A": (("win_prob", formulas.p_win_A), ("bp_prob", formulas.p_bp_A),
          ("expected_points", formulas.e_points_A), ("expected_bps", formulas.e_bp_A)),
    "Bj": (("win_prob", formulas.p_win_Bj), ("expected_points", formulas.e_points_Bj)),
    "T": (("win_prob", formulas.p_win_T), ("bp_prob", formulas.p_bp_T),
          ("expected_points", formulas.e_points_T), ("expected_bps", formulas.e_bp_T)),
    "B": (("win_prob", formulas.p_win_B), ("expected_points", formulas.e_points_B)),
    "C": (("win_prob", formulas.p_win_C), ("bp_prob", formulas.p_bp_C),
          ("expected_points", formulas.e_points_C), ("expected_bps", formulas.e_bp_C)),
}
SCALAR_KINDS = ("A", "T")


def kernel_modules() -> dict[str, object]:
    """Every Monte Carlo kernel module in the package that imports.

    A kernel is a `servelab._mc_*` module with a `run_batch` function, so
    a backend added later is found without editing the benchmark.
    """
    found = {}
    for info in pkgutil.iter_modules(servelab.__path__):
        if not info.name.startswith("_mc_"):
            continue
        try:
            mod = importlib.import_module(f"servelab.{info.name}")
        except ImportError:
            continue
        if callable(getattr(mod, "run_batch", None)):
            found[info.name] = mod
    return found


class Lib:
    def __init__(self, tracer=None):
        self.tracer = tracer
        w = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
        self.ServeProfile = w("types.profile", types.ServeProfile)
        for name in ("rule_a", "rule_bj", "rule_t", "rule_b", "rule_c"):
            setattr(self, name, w("types.schedule", getattr(types, name)))
        self.metrics_exact = {k: w(f"engine.metrics_exact.{k}", engine.metrics_exact)
                              for k in KINDS}
        self.closed = {k: tuple((field, w(f"formulas.{k}.{fn.__name__}", fn))
                                for field, fn in fns)
                       for k, fns in CLOSED.items()}
        self.estimate_metrics = w("simulate.estimate_metrics", simulate.estimate_metrics)
        self.simulate_game = w("parity.simulate_game", simulate.simulate_game)
        self.kernels = {name: w(f"parity.{name}.run_batch", mod.run_batch)
                        for name, mod in kernel_modules().items()}
        self.parse_stats = w("atp.parse_stats", atp.parse_stats)
        self.fit_report = w("atp.fit_report", atp.fit_report)
        self.invert_p_win_T = w("shaping.invert_p_win_T", shaping.invert_p_win_T)
        self.recommend_cutoff = w("shaping.recommend_cutoff", shaping.recommend_cutoff)
        self.compare_table = w("shaping.compare_table", shaping.compare_table)
        self.polyline_chart = w("svg.polyline_chart", svg.polyline_chart)

    def op(self, name: str, fn):
        """A benchmark-side operation that groups layer calls under one span."""
        return self.tracer.wrap(f"op.{name}", fn) if self.tracer is not None else fn

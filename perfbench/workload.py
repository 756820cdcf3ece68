"""One benchmark run: inputs from the seed, the three segments, the gates,
and the metrics.  Import after servelab's src/ is on sys.path (run.py)."""

from __future__ import annotations

import random
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import cliseg
import exactseg
import libprobe
import mcseg
from lib import KINDS, Lib
from spans import Tracer

WORKLOADS = ("mc-concordance", "exact-grid", "cli-session")
COMMANDS = ("eval", "sweep", "fit", "shape", "compare", "simulate")


@dataclass
class Tally:
    """Correctness checks: every check is attempted, some fail."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # the first 20 failure messages

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class Run:
    """Runs `workload` at full size for `seconds` and the other two segments
    as fixed probes, so that every end-to-end metric is measured."""

    def __init__(self, workload, seed, seconds, trace, scratch_dir: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.scratch_dir = scratch_dir
        self.tally = Tally()
        self.raw = Lib(None)
        self.tracer = Tracer() if trace else None
        self.lib = Lib(self.tracer) if trace else self.raw
        self.values: dict[str, float] = {}       # calibrated end-to-end metrics
        self.raw_values: dict[str, float] = {}   # the same, uncalibrated
        self.samples: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.overhead = 0.0
        self.traced_s = 0.0
        self.cells = []

    def rng(self, name):
        return random.Random(f"{self.seed}/{name}")

    def traced(self, fn, *args, **kwargs):
        """Call fn, adding its wall time to the traced total when tracing."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if self.trace:
                self.traced_s += time.perf_counter() - t0

    def _rates(self, measure, primary, *args, **kwargs):
        """(calibrated, raw) rate of an in-process segment.

        A probe runs once, traced when tracing.  The primary segment runs
        for `seconds`; when tracing, half untraced and half traced, and the
        gap between the two calibrated rates is the tracing overhead.
        """
        if not primary:
            return self.traced(measure, self.lib, *args)
        if not self.trace:
            return measure(self.raw, *args, self.seconds, **kwargs)
        ref, _ = measure(self.raw, *args, self.seconds / 2, **kwargs)
        rate, raw = self.traced(measure, self.lib, *args, self.seconds / 2)
        self.overhead = ref / rate - 1
        return rate, raw

    def mc(self, primary):
        batch = mcseg.BATCH if primary else mcseg.PROBE_BATCH
        self.cells = mcseg.make_cells(self.raw, self.rng("mc"), batch)
        rate, raw = self._rates(mcseg.measure, primary, self.cells, batch, self.tally,
                                zcheck=True)
        self.values["mc_games_per_s"], self.raw_values["mc_games_per_s"] = rate, raw
        self.sizes.update(mc_cells=len(self.cells), mc_batch=batch)

    def exact(self, primary):
        grid = exactseg.make_grid(self.rng("exact"),
                                  exactseg.GRID if primary else exactseg.PROBE_GRID)
        rate, raw = self._rates(exactseg.measure, primary, grid, self.tally)
        self.values["exact_evals_per_s"], self.raw_values["exact_evals_per_s"] = rate, raw
        self.sizes.update(grid_points=len(grid), schedules=len(exactseg.SCHEDULES))

    def cli(self, primary):
        cmds = cliseg.make_commands(self.rng("cli"), self.scratch_dir)
        self.tally.check(any("expect" in c for c in cmds),
                         "README documents no `$ servelab eval|shape` run to check")
        if not primary:
            lat, raw = self.traced(cliseg.measure, cmds, self.tally, tracer=self.tracer)
        elif not self.trace:
            lat, raw = cliseg.measure(cmds, self.tally, self.seconds)
        else:
            half = cliseg.MIN_PROCS // 2
            lat0, raw0 = cliseg.measure(cmds, self.tally, self.seconds / 2, half)
            lat, raw = self.traced(cliseg.measure, cmds, self.tally, self.seconds / 2, half,
                                   tracer=self.tracer)
            self.overhead = median(lat) / median(lat0) - 1
            lat, raw = lat0 + lat, raw0 + raw
        for values, times in ((self.values, lat), (self.raw_values, raw)):
            p50, p90 = cliseg.p50_p90(times)
            values["cli_latency_p50_ms"], values["cli_latency_p90_ms"] = p50 * 1e3, p90 * 1e3
        self.samples["cli_latency"] = len(lat)
        self.sizes.update(cli_commands=len(cmds), stats_rows=cliseg.STATS_ROWS,
                          simulate_games=cliseg.SIM_GAMES)

    def peak_rss(self):
        # the process that ran the workload: the largest servelab child for
        # the CLI session (read before any other child is spawned), else us
        who = resource.RUSAGE_CHILDREN if self.workload == "cli-session" else resource.RUSAGE_SELF
        self.values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024

    def parity(self):
        self.traced(mcseg.parity, self.lib, self.cells, self.tally)
        self.sizes.update(parity_batch=mcseg.PARITY_BATCH)

    def setup(self):
        self.values["setup_s"], self.raw_values["setup_s"] = self.traced(
            cliseg.setup_seconds, self.tracer)
        self.sizes.update(setup_spawns=cliseg.SETUP_SPAWNS)

    def layer_probe(self):
        self.traced(cliseg.interp_spans, self.tracer)
        self.traced(libprobe.run, self.lib, self.raw, self.rng("libprobe"),
                    self.scratch_dir, self.tally)

    def execute(self):
        segments = {"mc-concordance": self.mc, "exact-grid": self.exact,
                    "cli-session": self.cli}
        steps = [(self.workload, lambda: segments[self.workload](primary=True))]
        steps += [(w, lambda w=w: segments[w](primary=False))
                  for w in WORKLOADS if w != self.workload]
        steps += [("peak_rss", self.peak_rss), ("parity", self.parity), ("setup", self.setup)]
        if self.trace:
            steps.append(("layer probe", self.layer_probe))
        for name, step in steps:
            try:
                step()
            except Exception:
                traceback.print_exc()
                self.tally.check(False, f"{name} raised")

    def layer_metrics(self, selfs) -> dict[str, float]:
        """Per-layer metrics from span self times (ns) and tracer counters."""
        def group(prefix):
            return [v for name, vals in selfs.items() if name.startswith(prefix) for v in vals]

        def mean_us(prefix):
            vals = group(prefix)
            return sum(vals) / len(vals) / 1e3 if vals else 0.0

        def median_ms(prefix):
            vals = group(prefix)
            return median(vals) / 1e6 if vals else 0.0

        c = self.tracer.counters
        sim_s = sum(group("simulate.estimate_metrics")) / 1e9
        games, draws = c.get("simulate.games", 0), c.get("simulate.draws", 0)
        eng = group("engine.")
        return {
            "simulate.draws_per_s": draws / sim_s if sim_s else 0.0,
            "simulate.games_per_s": games / sim_s if sim_s else 0.0,
            "simulate.draws": draws,
            "simulate.draws_per_game": draws / games if games else 0.0,
            "simulate.games": games,
            "simulate.calls": len(group("simulate.estimate_metrics")),
            "simulate.truncated_games": c.get("simulate.truncated_games", 0),
            "simulate.time_share": sim_s / self.traced_s,
            **{f"engine.metrics_exact_us.{k}": mean_us(f"engine.metrics_exact.{k}")
               for k in KINDS},
            "engine.calls": len(eng),
            "engine.time_share": sum(eng) / 1e9 / self.traced_s,
            **{f"formulas.call_us.{k}": mean_us(f"formulas.{k}.") for k in KINDS},
            "formulas.calls": len(group("formulas.")),
            "types.schedule_us": mean_us("types.schedule"),
            "cli.interp_ms": median_ms("cli.interp"),
            "cli.import_ms": median_ms("cli.import"),
            **{f"cli.main_ms.{cmd}": median_ms(f"cli.main.{cmd}") for cmd in COMMANDS},
            "cli.process_overhead_ms": median_ms("cli.process."),
            "atp.parse_stats_ms": mean_us("atp.parse_stats") / 1e3,
            "atp.fit_report_ms": mean_us("atp.fit_report") / 1e3,
            "shaping.invert_p_win_T_us": mean_us("shaping.invert_p_win_T"),
            "shaping.recommend_cutoff_us": mean_us("shaping.recommend_cutoff"),
            "shaping.compare_table_ms": mean_us("shaping.compare_table") / 1e3,
            "svg.polyline_chart_ms": mean_us("svg.polyline_chart") / 1e3,
            "trace.overhead_frac": self.overhead,
        }

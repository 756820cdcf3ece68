"""exact-grid: every schedule through the exact engine on a seeded,
jittered interior grid of (p_F, p_S), with the closed forms cross-checked.

No Monte Carlo runs here, so a faster lattice or closed-form path shows
in exact_evals_per_s while a kernel change should leave it alone.
"""

from __future__ import annotations

import time

import calib
from lib import SCALAR_KINDS

GRID = 6          # points per axis in the measured segment
PROBE_GRID = 4    # points per axis when another workload is measured
PROBE_PASSES = 400
LO, HI = 0.05, 0.95
TOL = 1e-9

# (kind, factory name, args): A, Bj(1, 2), T, B(1, 2), C(0..6)
SCHEDULES = (("A", "rule_a", ()), ("Bj", "rule_bj", (1,)), ("Bj", "rule_bj", (2,)),
             ("T", "rule_t", ()), ("B", "rule_b", (1,)), ("B", "rule_b", (2,)),
             *(("C", "rule_c", (x,)) for x in range(7)))


def make_grid(rng, n: int) -> list[tuple[float, float]]:
    """One uniformly jittered point in each cell of an n x n grid."""
    w = (HI - LO) / n
    return [(LO + (i + rng.random()) * w, LO + (j + rng.random()) * w)
            for i in range(n) for j in range(n)]


def _point_fn(lib):
    plan = [(kind, getattr(lib, factory), args, lib.metrics_exact[kind],
             lib.closed[kind] if kind != "C" or args == (3,) else (),
             kind in SCALAR_KINDS)
            for kind, factory, args in SCHEDULES]

    def point(pf, ps):
        """All schedules at one profile; returns the worst closed-vs-engine gap."""
        prof = lib.ServeProfile(pf, ps)
        worst = 0.0
        for kind, factory, args, metrics_exact, closed, scalar in plan:
            m = metrics_exact(factory(*args), prof)
            arg = pf if scalar else prof
            for field, fn in closed:
                gap = abs(fn(arg) - getattr(m, field))
                if not gap <= worst:  # a NaN gap sticks, and fails the check
                    worst = gap
        return worst

    return lib.op("exact.point", point)


def measure(lib, grid, tally, seconds=None):
    """Passes over the grid; return (calibrated sets/s, raw sets/s).

    Without `seconds` it makes PROBE_PASSES passes; with it, passes
    continue until that much time has passed.
    Each pass is followed by calib.lattice_loop runs (calib.sample).
    """
    point = _point_fn(lib)
    work_s = 0.0
    ref_s = []
    start = time.perf_counter()
    passes = 0
    while (passes < PROBE_PASSES if seconds is None
           else time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        gaps = [point(pf, ps) for pf, ps in grid]
        dt = time.perf_counter() - t0
        work_s += dt
        calib.sample(calib.LATTICE_LOOP, dt, ref_s)
        passes += 1
        for (pf, ps), gap in zip(grid, gaps):
            tally.check(gap <= TOL, f"closed forms off by {gap:.3e} at ({pf:.6f}, {ps:.6f})")
        if lib.tracer is not None and lib.tracer.full:
            break
    sets = passes * len(grid) * len(SCHEDULES)
    return calib.rate(sets, work_s, calib.LATTICE_LOOP, ref_s), sets / work_s

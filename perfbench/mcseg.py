"""mc-concordance: Monte Carlo cells rerun for bit-identity and checked
against the exact engine, plus the backend parity gate.

The cells span game lengths from about 4 draws (T at p = 0.9) to long
deuce runs (A near p = 0.5), and cover both deuce-cycle lengths (Bj and
B order 2 alternate servers), so a kernel change that helps only the
six-point prefix or only the deuce loop still moves the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from servelab.simulate import SimConfig, substream

import calib

# the four acceptance-reference rows (p_emp, p_s_won)
REF_ROWS = ((0.696, 0.55), (0.666, 0.52), (0.626, 0.51), (0.608, 0.49))
METRICS = ("win_prob", "bp_prob", "expected_points", "expected_bps")
INDICATORS = ("win_prob", "bp_prob")
Z_MAX = 4.0
BATCH = 20_000        # games per cell per call in the measured segment
PROBE_BATCH = 2_000   # games per cell when another workload is measured
PROBE_ROUNDS = 12     # rounds when another workload is measured
PARITY_BATCH = 1_000  # games per cell for the backend parity gate
MIN_ROUNDS = 3        # whole, split, whole: every cell is rerun at least once


@dataclass
class Cell:
    label: str
    kind: str
    sched: object
    prof: object
    seed: int
    split: int            # first_game boundary of the split rerun
    parity_first: int     # first_game of the parity batch


def make_cells(lib, rng, batch: int) -> list[Cell]:
    specs = []
    for pf, ps in REF_ROWS:
        specs.append((f"T@{pf}", "T", lib.rule_t(), lib.ServeProfile(pf, pf)))
        specs.append((f"C3@{pf},{ps}", "C", lib.rule_c(3), lib.ServeProfile(pf, ps)))
    specs += [
        ("B2@0.666,0.52", "B", lib.rule_b(2), lib.ServeProfile(0.666, 0.52)),
        ("Bj@0.696,0.55", "Bj", lib.rule_bj(1), lib.ServeProfile(0.696, 0.55)),
        ("A@0.505", "A", lib.rule_a(), lib.ServeProfile(0.505, 0.505)),
        ("T@0.9", "T", lib.rule_t(), lib.ServeProfile(0.9, 0.9)),
    ]
    return [Cell(label, kind, sched, prof, rng.getrandbits(64), rng.randrange(1, batch),
                 rng.randrange(0, 2**40))
            for label, kind, sched, prof in specs]


def integer_sums(res) -> tuple[int, ...]:
    """The kernel's integer sums, recovered from a SimResult.

    mean = s1/n and std_err**2 = (s2 - s1**2/n) / (n*(n-1)); for an
    indicator s2 = s1.  The values involved stay far below 2**53, so
    rounding recovers the integers exactly.
    """
    n = res.n_games
    out = []
    for name in METRICS:
        est = getattr(res, name)
        if est is None:
            out += [0] if name in INDICATORS else [0, 0]
            continue
        s1 = est.mean * n
        out.append(round(s1))
        if name not in INDICATORS:
            se2 = 0.0 if est.std_err is None else est.std_err ** 2
            out.append(round(se2 * n * (n - 1) + s1 * s1 / n))
    return tuple(out)


def _record(lib, res) -> None:
    if lib.tracer is not None:
        lib.tracer.count("simulate.games", res.n_games)
        lib.tracer.count("simulate.draws", round(res.expected_points.mean * res.n_games))
        lib.tracer.count("simulate.truncated_games", res.truncated_games)


def measure(lib, cells, batch, tally, seconds=None, rounds=PROBE_ROUNDS, zcheck=False):
    """Run rounds over all cells; return (calibrated games/s, raw games/s).

    Round 0 runs each cell's whole batch (and, with zcheck, compares it
    with the exact engine); round 1 reruns it as two shards split at a
    seeded first_game, whose sums must add up to the whole; later rounds
    alternate and must be bit-identical to the first of their kind.
    Without `seconds` it runs `rounds` rounds; with it, at least
    MIN_ROUNDS and until that much time has passed.
    Each call is followed by calib.mix_loop runs (calib.sample).
    """
    whole, shards = {}, {}
    work_s = 0.0
    ref_s = []
    start = time.perf_counter()
    r = 0
    if seconds is not None:
        rounds = MIN_ROUNDS
    while r < rounds or (seconds is not None and time.perf_counter() - start < seconds):
        for c in cells:
            before = work_s
            t0 = time.perf_counter()
            if r % 2 == 0:
                res = lib.estimate_metrics(c.sched, c.prof, SimConfig(batch, c.seed))
                work_s += time.perf_counter() - t0
                _record(lib, res)
                if c.label not in whole:
                    whole[c.label] = res
                    if zcheck:
                        _zcheck(lib, c, res, tally)
                else:
                    tally.check(res == whole[c.label], f"{c.label}: whole rerun differs")
            else:
                a = lib.estimate_metrics(c.sched, c.prof, SimConfig(c.split, c.seed))
                b = lib.estimate_metrics(c.sched, c.prof,
                                         SimConfig(batch - c.split, c.seed, first_game=c.split))
                work_s += time.perf_counter() - t0
                _record(lib, a)
                _record(lib, b)
                if c.label not in shards:
                    shards[c.label] = (a, b)
                    total = tuple(x + y for x, y in zip(integer_sums(a), integer_sums(b)))
                    tally.check(total == integer_sums(whole[c.label]),
                                f"{c.label}: split at {c.split} does not sum to the whole")
                else:
                    tally.check((a, b) == shards[c.label], f"{c.label}: split rerun differs")
            calib.sample(calib.MIX_LOOP, work_s - before, ref_s)
        r += 1
        if lib.tracer is not None and lib.tracer.full:
            break
    games = r * batch * len(cells)
    return calib.rate(games, work_s, calib.MIX_LOOP, ref_s), games / work_s


def _zcheck(lib, c, res, tally) -> None:
    exact = lib.metrics_exact[c.kind](c.sched, c.prof)
    for name in METRICS:
        est, truth = getattr(res, name), getattr(exact, name)
        if est is None or truth is None:
            tally.check(est is None and truth is None, f"{c.label} {name}: presence differs")
            continue
        if est.std_err:
            z = (est.mean - truth) / est.std_err
            tally.check(abs(z) <= Z_MAX, f"{c.label} {name}: |z| = {abs(z):.2f} > {Z_MAX}")
        else:
            tally.check(est.mean == truth, f"{c.label} {name}: zero spread but mean off")


def parity(lib, cells, tally) -> None:
    """Every importable kernel must reproduce the per-game reference.

    The reference plays each game with simulate_game on its own keyed
    substream; the stream's draw counter must equal the points played
    (one draw per point), and each kernel's run_batch sums must equal
    the reference sums exactly.
    """
    for c in cells:
        wins = bp_games = pts = pts_sq = bps = bps_sq = 0
        draws_ok = True
        for i in range(c.parity_first, c.parity_first + PARITY_BATCH):
            rng = substream(c.seed, i)
            won, p, b = lib.simulate_game(c.sched, c.prof, rng)
            draws_ok &= rng.k == p
            wins += won
            bp_games += b > 0
            pts += p
            pts_sq += p * p
            bps += b
            bps_sq += b * b
        tally.check(draws_ok, f"{c.label}: draws differ from points played")
        ref = (wins, bp_games, pts, pts_sq, bps, bps_sq, 0)
        for name, run_batch in lib.kernels.items():
            got = run_batch(c.seed, c.parity_first, PARITY_BATCH, c.sched.prefix_probs(c.prof),
                            c.sched.cycle_probs(c.prof), c.sched.all_f_served, 10**6)
            tally.check(tuple(got) == ref, f"{c.label}: {name} sums {tuple(got)} != {ref}")

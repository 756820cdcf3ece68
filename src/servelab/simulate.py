"""Monte Carlo oracle: simulate games under any ServeSchedule.

RNG specification (fully reproducible, no library default involved)
-------------------------------------------------------------------
The generator is splitmix64.  With GAMMA = 0x9E3779B97F4A7C15 and the
finalizer

    mix64(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;
              z ^= z >> 27;  z *= 0x94D049BB133111EB;
              z ^= z >> 31          (all arithmetic mod 2**64)

game number i (0-based, absolute) owns the substream keyed by

    base_i = mix64(seed + (i + 1) * GAMMA)

and its k-th draw (k = 0, 1, ...) is

    u = (mix64(base_i + k * GAMMA) >> 11) * 2**-53   in [0, 1).

One draw is consumed per point, in playing order; F wins the point iff
u < its source probability.  Because every game owns an independent
substream, sharding the batch over workers or machines cannot change
the totals.  simulate_game plays one game with _mc_fallback.play_game on
a SplitMix64 stream, and estimate_metrics plays batches with the one
Monte Carlo kernel, _mc_fallback.run_batch; that module's docstring
describes both.

estimate_metrics shards a batch over processes when each of two or more
usable CPUs would get at least _SHARD_MIN games, the platform has fork
and no other Python thread is running (fork is unsafe with threads).  The
batch is cut into contiguous game-index ranges: this process plays the
first with run_batch, and a forked child plays each other range with the
same run_batch and writes its 7 integer sums to a pipe.  Since the games
of a range draw only from their own substreams, and the sums are added
as integers, the totals are those of one serial run_batch, bit for bit.
A range whose child could not be forked, or failed, is played here, and
every child is reaped before the call returns or raises.  Smaller
batches run serially, since forking and reaping a child costs about as
much as playing 2,048 games (see _SHARD_MIN).
"""

from __future__ import annotations

import os
import signal
import threading
from math import sqrt
from typing import NamedTuple

from . import mc_backend
from ._mc_fallback import GAMMA, MASK, mix64, play_game, run_batch
from .errors import DeuceCapExceeded, RangeError
from .types import ServeProfile, ServeSchedule, _Record, _is_int, _set

__all__ = [
    "SimConfig",
    "SimResult",
    "MetricEstimate",
    "SplitMix64",
    "substream",
    "simulate_game",
    "estimate_metrics",
    "mc_backend",
]

# fewest games per process.  On a 2-vCPU Linux machine a fork, the child's
# start and the reap cost about as much kernel time as 2,048 games (two
# shards of 2,048 games ran no faster than one batch of 4,096); at twice
# that, two shards of 4,096 ran 1.3x faster than one batch of 8,192.
_SHARD_MIN = 4096

# deuce cycles after which a game still tied raises DeuceCapExceeded; only
# a pathological profile such as (1, 0) gets near it
_MAX_DEUCE_CYCLES = 10**6


class SplitMix64:
    """Draw stream for one simulated game (see module docstring)."""

    __slots__ = ("base", "k")

    def __init__(self, base: int):
        self.base = base & MASK
        self.k = 0


def substream(seed: int, game_index: int) -> SplitMix64:
    """Independent per-game stream; game_index is the absolute 0-based index."""
    return SplitMix64(mix64((seed + (game_index + 1) * GAMMA) & MASK))


class SimConfig(_Record):
    """One Monte Carlo batch; first_game is the absolute index of its first
    game (the shard offset)."""

    __slots__ = _fields = ("n_games", "seed", "first_game")

    def __init__(self, n_games: int, seed: int, first_game: int = 0):
        for name, value in zip(self._fields, (n_games, seed, first_game)):
            _set(self, name, value)
            if not _is_int(value):
                raise RangeError(f"{name} must be an integer", value)
        if n_games < 1:
            raise RangeError("n_games must be >= 1", n_games)
        if not (0 <= seed <= MASK):
            raise RangeError("seed must fit in 64 bits")
        if first_game < 0:
            raise RangeError("first_game must be >= 0", first_game)
        if first_game + n_games > MASK + 1:
            raise RangeError("game indices must fit in 64 bits: first_game + n_games "
                             "must be at most 2**64", first_game + n_games)


class MetricEstimate(NamedTuple):
    mean: float
    std_err: float | None  # None when n_games == 1


class SimResult(NamedTuple):
    win_prob: MetricEstimate
    expected_points: MetricEstimate
    bp_prob: MetricEstimate | None
    expected_bps: MetricEstimate | None
    n_games: int
    truncated_games: int


def simulate_game(
    sched: ServeSchedule, prof: ServeProfile, rng: SplitMix64
) -> tuple[bool, int, int]:
    """Play one game; returns (f_won, points, break_points).

    break_points is counted only for all-F-served schedules (it is 0,
    and reported as absent, at the aggregation level otherwise).  rng
    advances by one draw per point; if the deuce cap raises
    DeuceCapExceeded, rng is left where it started.
    """
    won, pts, bps, rng.k = play_game(
        rng.base, rng.k, sched.prefix_probs(prof), sched.cycle_probs(prof),
        sched.all_f_served, _MAX_DEUCE_CYCLES,
    )
    return won, pts, bps


def _estimate(s1: int, s2: int, n: int) -> MetricEstimate:
    mean = s1 / n
    if n == 1:
        return MetricEstimate(mean, None)
    # integer numerator: exact, and >= 0 by Cauchy-Schwarz
    var = (n * s2 - s1 * s1) / (n * (n - 1))
    return MetricEstimate(mean, sqrt(var / n))


def estimate_metrics(
    sched: ServeSchedule, prof: ServeProfile, cfg: SimConfig
) -> SimResult:
    """Sample means and standard errors over cfg.n_games games.

    Deterministic given (seed, first_game, n_games, schedule, profile);
    raises DeuceCapExceeded if any game hits the deuce cycle cap.
    """
    count_bp = sched.all_f_served
    wins, bp_games, pts, pts_sq, bps, bps_sq, truncated = _batch_sums(
        cfg.seed,
        cfg.first_game,
        cfg.n_games,
        (sched.prefix_probs(prof), sched.cycle_probs(prof), count_bp, _MAX_DEUCE_CYCLES),
    )
    if truncated:
        raise DeuceCapExceeded(
            f"{truncated} of {cfg.n_games} games hit the deuce cycle cap "
            f"({_MAX_DEUCE_CYCLES}); profile is pathological"
        )
    n = cfg.n_games
    return SimResult(
        win_prob=_estimate(wins, wins, n),  # indicator: sum of squares = sum
        expected_points=_estimate(pts, pts_sq, n),
        bp_prob=_estimate(bp_games, bp_games, n) if count_bp else None,
        expected_bps=_estimate(bps, bps_sq, n) if count_bp else None,
        n_games=n,
        truncated_games=0,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_count(n_games: int) -> int:
    """How many processes play a batch of n_games (see module docstring)."""
    count = min(_usable_cpus(), n_games // _SHARD_MIN)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return count


def _batch_sums(seed: int, first_game: int, n_games: int, args: tuple) -> tuple:
    """run_batch(seed, first_game, n_games, *args), played by
    _shard_count(n_games) processes; the sums are the serial ones exactly."""
    shards = _shard_count(n_games)
    cuts = [first_game + n_games * j // shards for j in range(shards + 1)]
    ranges = list(zip(cuts[1:], cuts[2:]))  # every range but the first
    workers = []  # (pid, read end of its pipe) for the first ranges, in order
    try:
        for lo, hi in ranges:
            try:
                workers.append(_fork_shard(seed, lo, hi - lo, args))
            except OSError:  # no pipe or process to be had: play the rest here
                break
        totals = run_batch(seed, first_game, cuts[1] - first_game, *args)
        for j, (lo, hi) in enumerate(ranges):
            out = workers[j][1].read().split() if j < len(workers) else []
            if len(out) == 7 and all(v.isdigit() for v in out):
                sums = map(int, out)
            else:  # no worker played these games, or it failed: play them here
                sums = run_batch(seed, lo, hi - lo, *args)
            totals = [a + b for a, b in zip(totals, sums)]
    finally:
        # a worker whose pipe was read to its end has exited; kill the rest
        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return tuple(totals)


def _fork_shard(seed: int, first_game: int, n_games: int, args: tuple) -> tuple:
    """Fork a child that writes run_batch's sums for its games to a pipe
    and exits; return (its pid, the pipe's read end as a binary file)."""
    fd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(wfd)
        raise
    if pid == 0:
        # the child leaves only through os._exit: no stdio flush, no atexit
        code = 1
        try:
            os.close(fd)
            sums = run_batch(seed, first_game, n_games, *args)
            # under PIPE_BUF bytes, so the pipe takes all of it or none
            os.write(wfd, " ".join(map(str, sums)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, open(fd, "rb")

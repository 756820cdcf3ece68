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
first with run_batch, and a worker process plays each other range with
the same run_batch and sends back its 7 integer sums.  Since the games of
a range draw only from their own substreams, and the sums are added as
integers, the totals are those of one serial run_batch, bit for bit.
Smaller batches run serially (see _SHARD_MIN).

The workers belong to the process.  The first sharded call forks one per
extra usable CPU, and each then serves requests on a pipe until the
process exits, when atexit kills and reaps it.  A request, encoded with
marshal, carries every argument of run_batch, the deuce cap included, so
no module state a worker copied at its fork is read.  A range whose
worker is dead, or replies with anything but 7 integers, is played here,
and that worker is reaped and dropped; the next sharded call forks a new
one.  If the call raises, every worker whose reply is unread is killed
and reaped, so no reply is ever read as the answer to a later request.
Every forked child, a new worker or a fork of the caller's own, closes
the inherited pipes of the parent's workers and starts with none.  An
idle worker keeps the pages it shares copy-on-write with this process
for as long as the process lives.
"""

from __future__ import annotations

import atexit
import marshal
import os
import threading
from math import sqrt
from typing import NamedTuple

from . import mc_backend  # re-exported for perfbench's provenance (ROADMAP item 1, slice B)
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

# fewest games per process.  On a 2-vCPU Linux machine, with the worker
# already forked, two shards of 512 games each ran 1.36-1.73x faster than
# one batch of 1,024 (medians over 14 interleaved pairs, T at p = 0.9 and
# C(3) at (0.696, 0.55)), two of 1,024 1.59-1.73x faster than one of
# 2,048, and two of 2,048 1.68-1.82x faster than one of 4,096.  At 1,024
# the 2,000-game batches of a short `servelab simulate` stay serial and
# fork nothing.
_SHARD_MIN = 1024

# the workers that play a sharded batch's second, third, ... ranges, in
# that order: (pid, request pipe's write end, reply pipe's read end)
_workers: list[tuple[int, int, int]] = []

# bytes a pipe write delivers whole (POSIX's least PIPE_BUF); every
# request and reply is far shorter
_PIPE_BUF = 512

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
    # plain ints and floats (as run_batch reads them), since marshal, which
    # carries a request to a worker, takes no subclass of either
    wins, bp_games, pts, pts_sq, bps, bps_sq, truncated = _batch_sums(
        int(cfg.seed),
        cfg.first_game,
        cfg.n_games,
        (tuple(map(float, sched.prefix_probs(prof))),
         tuple(map(float, sched.cycle_probs(prof))), count_bp, _MAX_DEUCE_CYCLES),
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
    while len(_workers) < len(ranges):
        try:
            _workers.append(_fork_worker())
        except OSError:  # no pipe or process to be had: play the rest here
            break
    unread = {}  # first game of a range -> the worker playing it
    try:
        for worker, (lo, hi) in zip(list(_workers), ranges):
            unread[lo] = worker  # before the write, so that no interrupt hides it
            try:
                os.write(worker[1], marshal.dumps((seed, lo, hi - lo, args)))
            except OSError:  # the worker is dead
                del unread[lo]
                _drop(worker)
        totals = run_batch(seed, first_game, cuts[1] - first_game, *args)
        for lo, hi in ranges:
            sums = _reply(unread[lo]) if lo in unread else None
            unread.pop(lo, None)
            if sums is None:  # no worker played these games, or it failed: play them here
                sums = run_batch(seed, lo, hi - lo, *args)
            totals = [a + b for a, b in zip(totals, sums)]
    finally:
        # a reply left unread would answer the worker's next request
        for worker in unread.values():
            _drop(worker)
    return tuple(totals)


def _fork_worker() -> tuple:
    """Fork a worker that plays each request on its pipe until the pipe
    closes; return (its pid, the request pipe's write end, the reply
    pipe's read end)."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    requests, to_worker, from_worker, replies = fds
    if pid == 0:
        # the worker leaves only through os._exit: no stdio flush, no atexit
        code = 1
        try:
            os.close(to_worker)
            os.close(from_worker)
            while request := os.read(requests, _PIPE_BUF):
                seed, first_game, n_games, args = marshal.loads(request)
                os.write(replies, marshal.dumps(run_batch(seed, first_game, n_games, *args)))
            code = 0
        finally:
            os._exit(code)
    os.close(requests)
    os.close(replies)
    return pid, to_worker, from_worker


def _reply(worker: tuple) -> tuple | None:
    """The 7 sums worker sends back; None, with the worker dropped, if it
    died or sent anything else."""
    try:
        sums = marshal.loads(os.read(worker[2], _PIPE_BUF))
    except (OSError, EOFError, ValueError, TypeError):
        sums = None
    if type(sums) is tuple and len(sums) == 7 and all(type(v) is int for v in sums):
        return sums
    _drop(worker)
    return None


def _drop(worker: tuple) -> None:
    """Kill and reap worker and close its pipes; the next sharded call
    forks a new worker in its place."""
    if worker not in _workers:
        return
    _workers.remove(worker)
    import signal  # only a kill needs it

    pid, to_worker, from_worker = worker
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except OSError:  # already reaped by a caller that waits for any child
        pass
    os.close(to_worker)
    os.close(from_worker)


def _stop_workers() -> None:
    """Kill and reap every worker (at exit); an idle worker holds nothing
    to flush, and a kill cannot wait on another holder of its pipe."""
    for worker in list(_workers):
        _drop(worker)


def _forget_workers() -> None:
    """In every forked child: close the inherited pipes of the parent's
    workers, which the child neither shares nor keeps alive."""
    for _, to_worker, from_worker in _workers:
        os.close(to_worker)
        os.close(from_worker)
    _workers.clear()


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)

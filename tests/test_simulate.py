"""Monte Carlo layer: determinism, kernel parity, statistical concordance."""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servelab import _mc_fallback as fallback
from servelab import simulate
from servelab.engine import metrics_exact
from servelab.errors import DeuceCapExceeded, RangeError
from servelab.simulate import (
    SimConfig,
    estimate_metrics,
    simulate_game,
    substream,
)
from servelab.types import ServeProfile, rule_a, rule_b, rule_bj, rule_c, rule_t

# published reference outputs of the splitmix64 generator for initial
# state 1234567 (advance by GAMMA, then finalize)
_SPLITMIX_VECTOR = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


class TestGenerator:
    def test_reference_vector(self):
        state = 1234567
        outs = []
        for _ in range(5):
            state = (state + fallback.GAMMA) & fallback.MASK
            outs.append(fallback.mix64(state))
        assert outs == _SPLITMIX_VECTOR

    def test_zero_is_a_fixed_point(self):
        assert fallback.mix64(0) == 0

    def test_draws_lie_in_unit_interval(self):
        base = substream(987654321, 5).base
        draws = [fallback.mix64((base + k * fallback.GAMMA) & fallback.MASK)
                 for k in range(1000)]
        for m in draws + [0, fallback.MASK]:  # and the extreme finalizer outputs
            assert 0.0 <= (m >> 11) * fallback.INV53 < 1.0

    def test_stream_keying(self):
        seed, i = 42, 7
        base = fallback.mix64((seed + (i + 1) * fallback.GAMMA) & fallback.MASK)
        assert substream(seed, i).base == base
        assert substream(seed, i).k == 0

    def test_distinct_games_get_distinct_streams(self):
        assert substream(0, 0).base != substream(0, 1).base


class TestSimulateGame:
    def test_certain_server(self):
        won, pts, bps = simulate_game(rule_t(), ServeProfile(1.0, 1.0), substream(0, 0))
        assert (won, pts, bps) == (True, 4, 0)

    def test_hopeless_server(self):
        won, pts, bps = simulate_game(rule_t(), ServeProfile(0.0, 0.5), substream(0, 0))
        assert (won, pts, bps) == (False, 4, 1)

    def test_game_lengths_are_feasible(self):
        prof = ServeProfile(0.5, 0.5)
        for i in range(500):
            rng = substream(3, i)
            _, pts, _ = simulate_game(rule_t(), prof, rng)
            assert rng.k == pts  # one draw per point
            # 4..6 points decide it, or the game ties at 6 and then ends
            # an even number of points later (never exactly 7)
            assert pts in (4, 5, 6) or (pts >= 8 and (pts - 6) % 2 == 0)

    def test_bp_count_dominates_any_bp_game(self):
        prof = ServeProfile(0.6, 0.6)
        for i in range(300):
            _, _, bps = simulate_game(rule_t(), prof, substream(11, i))
            assert bps >= 0

    def test_deuce_cap(self, monkeypatch):
        # cycle probabilities (1, 0) bounce between level and +1 forever
        monkeypatch.setattr(simulate, "_MAX_DEUCE_CYCLES", 5)
        rng = substream(0, 0)
        with pytest.raises(DeuceCapExceeded):
            simulate_game(rule_bj(), ServeProfile(1.0, 0.0), rng)
        assert rng.k == 0  # a game that raises consumes no draws


def per_game_sums(sched, prof, seed, first, n, max_deuce_cycles=10**6):
    """run_batch's 7-tuple built from play_game, one substream per game;
    a game that raises DeuceCapExceeded counts as truncated."""
    wins = bp_games = pts = pts_sq = bps = bps_sq = truncated = 0
    prefix, cyc = sched.prefix_probs(prof), sched.cycle_probs(prof)
    for i in range(first, first + n):
        base = substream(seed, i).base
        try:
            won, p, b, k = fallback.play_game(base, 0, prefix, cyc, sched.all_f_served,
                                              max_deuce_cycles)
        except DeuceCapExceeded:
            truncated += 1
            continue
        assert k == p  # one draw per point
        wins += won
        bp_games += b > 0
        pts += p
        pts_sq += p * p
        bps += b
        bps_sq += b * b
    return (wins, bp_games, pts, pts_sq, bps, bps_sq, truncated)


_SCHEDULES = (rule_a(), rule_bj(1), rule_bj(2), rule_t(), rule_b(1), rule_b(2),
              *(rule_c(x) for x in range(7)))
_SCHEDULE_IDS = ("A", "Bj1", "Bj2", "T", "B1", "B2", *(f"C{x}" for x in range(7)))
# half the time an end of [0, 1] or a float next to one
_EDGE_PROBS = (0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53)
_prob = st.one_of(st.sampled_from(_EDGE_PROBS), st.floats(min_value=0.0, max_value=1.0))
_CHUNK = fallback.CHUNK


# the one kernel, named rather than discovered; the id keeps the test names
@pytest.mark.parametrize("kernel", [fallback], ids=["_mc_fallback"])
class TestKernelParity:
    @pytest.mark.parametrize(
        "sched,prof",
        [
            (rule_t(), ServeProfile(0.7, 0.7)),
            (rule_c(3), ServeProfile(0.696, 0.55)),
            (rule_bj(1), ServeProfile(0.6, 0.45)),
            (rule_b(2), ServeProfile(0.7, 0.35)),
        ],
        ids=["T", "C3", "Bj1", "B2"],
    )
    def test_sums_match_per_game_reference(self, kernel, sched, prof):
        seed, first, n = 12345, 17, 4000
        got = kernel.run_batch(seed, first, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, 10**6)
        assert tuple(got) == per_game_sums(sched, prof, seed, first, n)

    def test_truncated_games_are_counted(self, kernel):
        # cycle probabilities (1, 0) never leave the tied region
        sched, prof, n = rule_bj(1), ServeProfile(1.0, 0.0), 50
        got = kernel.run_batch(3, 0, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, 3)
        assert tuple(got) == (0, 0, 0, 0, 0, 0, n)

    def test_truncated_and_finished_games_mix(self, kernel):
        # one cycle of Bj at p = 0.5 decides about half the games
        sched, prof, n = rule_bj(1), ServeProfile(0.5, 0.5), _CHUNK + 1
        got = kernel.run_batch(8, 0, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, 1)
        assert tuple(got) == per_game_sums(sched, prof, 8, 0, n, max_deuce_cycles=1)
        assert 0 < got[6] < n

    def test_repeated_compaction_with_break_points(self, kernel, monkeypatch):
        # long deuce runs at p = 0.5: each full chunk is re-packed several
        # times, and the re-packed states carry break points
        sched, prof, n = rule_t(), ServeProfile(0.5, 0.5), 2 * _CHUNK + 3
        most_bps, real_compact = [], kernel._compact

        def compact(ctr, width, states):
            most_bps.append(max(b for _, _, b in states))
            return real_compact(ctr, width, states)

        monkeypatch.setattr(kernel, "_compact", compact)
        got = kernel.run_batch(31, 0, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, 1000)
        assert tuple(got) == per_game_sums(sched, prof, 31, 0, n, max_deuce_cycles=1000)
        assert len(most_bps) >= 6 and min(most_bps) > 0

    def test_repack_waits_while_labels_run_out(self, kernel, monkeypatch):
        # with 3 labels a re-pack waits for a step with at most 3 live
        # states, and the sums do not change
        sched, prof, n = rule_t(), ServeProfile(0.5, 0.5), 2 * _CHUNK + 3
        n_states, real_compact = [], kernel._compact

        def compact(ctr, width, states):
            n_states.append(len(states))
            return real_compact(ctr, width, states)

        monkeypatch.setattr(kernel, "_LABELS", 3)
        monkeypatch.setattr(kernel, "_compact", compact)
        got = kernel.run_batch(31, 0, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, 1000)
        assert tuple(got) == per_game_sums(sched, prof, 31, 0, n, max_deuce_cycles=1000)
        assert n_states and max(n_states) <= 3

    @pytest.mark.parametrize("n_states", [1, 254, 255])
    def test_compaction_matches_a_plain_repack(self, kernel, n_states):
        # 254 and 255 states reach what one label byte can name (255
        # values besides a finished lane's 0); a tenth of the lanes have
        # finished
        rng = random.Random(n_states)
        width = 3 * n_states + 7
        counters = [rng.getrandbits(64) for _ in range(width)]
        ctr = sum(c << (128 * j) for j, c in enumerate(counters))
        states, held = {}, {}
        for j, c in enumerate(counters):
            if rng.random() < 0.1:
                continue
            key = (3, 3, rng.randrange(n_states))
            states[key] = states.get(key, 0) | 1 << (8 * j)
            held.setdefault(key, []).append(c)
        live = sum(map(len, held.values()))
        got_ctr, got_states = kernel._compact(ctr, width, states)
        # the plain re-pack: each state keeps the counters of its lanes, and
        # the live lanes fill the lowest slots, one state each
        assert got_ctr >> (128 * live) == 0
        slots = [(got_ctr >> (128 * j)) & (2**128 - 1) for j in range(live)]
        assert sum(got_states.values()) == int.from_bytes(b"\1" * live, "little")
        assert {key: sorted(slots[j] for j in range(live) if lanes >> (8 * j) & 1)
                for key, lanes in got_states.items()} == {
                    key: sorted(cs) for key, cs in held.items()}

    @given(sched=st.sampled_from(_SCHEDULES), pf=_prob, ps=_prob,
           n=st.sampled_from((1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)),
           cap=st.sampled_from((1, 2, 40)), seed=st.integers(0, 2**64 - 1),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_match_on_every_schedule(self, kernel, sched, pf, ps, n, cap, seed, data):
        first = data.draw(st.one_of(st.integers(0, 2**64 - n), st.just(2**64 - n)))
        prof = ServeProfile(pf, ps)
        got = kernel.run_batch(seed, first, n, sched.prefix_probs(prof),
                               sched.cycle_probs(prof), sched.all_f_served, cap)
        assert tuple(got) == per_game_sums(sched, prof, seed, first, n, cap)


class TestGoldenSums:
    """Results pinned as literals: the parity tests compare run_batch with
    play_game from the same tree, so a change to both would pass them."""

    @pytest.mark.parametrize("sched,prof,sums", [
        (rule_t(), ServeProfile(0.62, 0.62), (15600, 6971, 128152, 951012, 11807, 26429, 0)),
        (rule_c(3), ServeProfile(0.696, 0.55), (15080, 6848, 127817, 960655, 11128, 24278, 0)),
        (rule_b(2), ServeProfile(0.666, 0.52), (14442, 0, 130975, 997685, 0, 0, 0)),
    ], ids=["T", "C3", "B2"])
    def test_run_batch(self, sched, prof, sums):
        assert fallback.run_batch(2024, 0, 20_000, sched.prefix_probs(prof),
                                  sched.cycle_probs(prof), sched.all_f_served, 10**6) == sums

    def test_sharded_estimate(self, monkeypatch):
        forks, real_fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        simulate._stop_workers()
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", counted_fork)
        r = estimate_metrics(rule_c(3), ServeProfile(0.696, 0.55),
                             SimConfig(n_games=8192, seed=2024))
        assert len(forks) == 1  # two shards
        assert r.n_games == 8192
        assert r.win_prob == (0.753173828125, 0.004764032889301828)
        assert r.expected_points == (6.4136962890625, 0.030504539732570713)
        assert r.bp_prob == (0.3438720703125, 0.005248367665398637)
        assert r.expected_bps == (0.562744140625, 0.010696791599826656)
        simulate._stop_workers()
        _no_child_left()


# bytes of peak RSS a 100,000-game batch may add: it adds about 0.5 MB in
# the forked child below, and a Struct kept for each width the lanes are
# re-packed to adds about 2 MB
_PEAK_GROWTH = 2**20


class TestPeakMemory:
    def test_a_batch_adds_little_peak_memory(self):
        """Every packed int is bounded by the chunk and nothing is kept for
        each width the lanes are re-packed to, so a 100,000-game batch of
        long deuce runs raises a process's peak RSS by well under 1 MB.

        The batch runs in a child forked from a fresh interpreter: a
        process started with exec keeps the peak of the process it was
        started from (here pytest's), and a forked child starts from its
        own size."""
        script = (
            "import os, resource, sys\n"
            "from servelab import _mc_fallback as k, types as t\n"
            "s, p = t.rule_a(), t.ServeProfile(0.5, 0.5)\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "if os.fork() == 0:\n"
            "    before = peak()\n"
            "    k.run_batch(1, 0, 100_000, s.prefix_probs(p), s.cycle_probs(p), False, 10**6)\n"
            "    print((peak() - before) * (1 if sys.platform == 'darwin' else 1024))\n"
            "    sys.stdout.flush()\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert int(out) < _PEAK_GROWTH


class TestThreshold:
    @pytest.mark.parametrize("p", _EDGE_PROBS + (0.5, 0.696))
    def test_integer_compare_matches_float_draw(self, p):
        t = fallback.threshold(p)
        for m in (t - 2048, t - 1, t, t + 2047):
            if 0 <= m <= fallback.MASK:
                assert ((m >> 11) * fallback.INV53 < p) == (m < t)


class TestEstimateMetrics:
    def test_deterministic_rerun(self):
        cfg = SimConfig(n_games=20000, seed=77)
        a = estimate_metrics(rule_t(), ServeProfile(0.62, 0.62), cfg)
        b = estimate_metrics(rule_t(), ServeProfile(0.62, 0.62), cfg)
        assert a == b

    def test_matches_per_game_simulation(self):
        sched, prof = rule_c(3), ServeProfile(0.696, 0.55)
        seed, n = 99, 50
        wins, bp_games, pts, _, bps, _, _ = per_game_sums(sched, prof, seed, 0, n)
        r = estimate_metrics(sched, prof, SimConfig(n_games=n, seed=seed))
        assert r.win_prob.mean == wins / n
        assert r.bp_prob.mean == bp_games / n
        assert r.expected_points.mean == pts / n
        assert r.expected_bps.mean == bps / n

    def test_shard_invariance(self):
        sched, prof = rule_t(), ServeProfile(0.62, 0.62)
        args = (sched.prefix_probs(prof), sched.cycle_probs(prof), True, 10**6)
        whole = fallback.run_batch(5, 0, 1000, *args)
        first = fallback.run_batch(5, 0, 400, *args)
        second = fallback.run_batch(5, 400, 600, *args)
        assert whole == tuple(x + y for x, y in zip(first, second))

    def test_engine_concordance(self):
        for sched, prof in ((rule_t(), ServeProfile(0.62, 0.62)),
                            (rule_c(3), ServeProfile(0.696, 0.55))):
            ex = metrics_exact(sched, prof)
            r = estimate_metrics(sched, prof, SimConfig(n_games=10**5, seed=0))
            checks = [
                (r.win_prob, ex.win_prob),
                (r.expected_points, ex.expected_points),
                (r.bp_prob, ex.bp_prob),
                (r.expected_bps, ex.expected_bps),
            ]
            for est, truth in checks:
                assert abs(est.mean - truth) <= 4.0 * est.std_err

    def test_alternating_serve_hides_bp_fields(self):
        r = estimate_metrics(rule_b(1), ServeProfile(0.7, 0.35),
                             SimConfig(n_games=100, seed=1))
        assert r.bp_prob is None and r.expected_bps is None
        assert r.truncated_games == 0

    def test_single_game_has_no_std_err(self):
        r = estimate_metrics(rule_t(), ServeProfile(0.62, 0.62),
                             SimConfig(n_games=1, seed=4))
        assert r.win_prob.std_err is None
        assert r.expected_points.std_err is None

    def test_deuce_cap_propagates(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_DEUCE_CYCLES", 4)
        cfg = SimConfig(n_games=10, seed=0)
        with pytest.raises(DeuceCapExceeded) as info:
            estimate_metrics(rule_bj(), ServeProfile(1.0, 0.0), cfg)
        assert str(info.value).startswith("10 of 10 games hit the deuce cycle cap (4);")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_games": 0, "seed": 0},
            {"n_games": 5, "seed": -1},
            {"n_games": 5, "seed": 2**64},
            {"n_games": 5, "seed": 0, "first_game": -1},
            {"n_games": 1, "seed": 0, "first_game": 2**64},
            {"n_games": 2, "seed": 0, "first_game": 2**64 - 1},
            {"n_games": 2.5, "seed": 0},
            {"n_games": 5, "seed": 1.5},
            {"n_games": 5, "seed": 0, "first_game": 0.5},
            {"n_games": True, "seed": 1},
            {"n_games": 5, "seed": False},
            {"n_games": 5, "seed": 0, "first_game": False},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(RangeError):
            SimConfig(**kwargs)

    def test_last_game_index_accepted(self):
        cfg = SimConfig(n_games=1, seed=0, first_game=2**64 - 1)
        assert estimate_metrics(rule_t(), ServeProfile(0.6, 0.6), cfg).n_games == 1


_SHARD = 100  # _SHARD_MIN under test: batches from 200 games up are sharded


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): k usable CPUs and _SHARD_MIN = _SHARD; returns an empty
    list that each os.fork call from then on appends to.  The test starts
    with no worker; on teardown its workers are stopped, and then the
    process holds the same file descriptors as before the test (where
    /dev/fd lists them) and no child."""
    simulate._stop_workers()
    fds = set(os.listdir("/dev/fd")) if os.path.isdir("/dev/fd") else None
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    def set_cpus(k):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: k)
        monkeypatch.setattr(simulate, "_SHARD_MIN", _SHARD)
        monkeypatch.setattr(os, "fork", counted_fork)
        forks.clear()
        return forks

    yield set_cpus
    simulate._stop_workers()
    if fds is not None:
        assert set(os.listdir("/dev/fd")) == fds, "a pipe outlived the batch"
    _no_child_left()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reaped(pid):
    """pid is no child of this process any more: it was waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


def _exit_status(pid, timeout=60):
    """The wait status of child pid, which must exit within timeout seconds."""
    deadline = time.monotonic() + timeout
    while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"process {pid} did not exit within {timeout} s")
        time.sleep(0.01)
    return status[1]


def _args(sched, prof):
    return (sched.prefix_probs(prof), sched.cycle_probs(prof), sched.all_f_served, 10**6)


def _pids():
    return [pid for pid, _, _ in simulate._workers]


class TestShardedBatches:
    """estimate_metrics over forked shards: every sum is the serial one."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("sched", _SCHEDULES, ids=_SCHEDULE_IDS)
    def test_sums_and_result_match_serial(self, cpus, k, sched):
        prof = ServeProfile(0.63, 0.48)
        for n, first in ((2 * _SHARD - 1, 0), (2 * _SHARD, 0), (3 * _SHARD + 1, 12345),
                         (10 * _SHARD + 7, 2**40)):
            cfg = SimConfig(n_games=n, seed=2024, first_game=first)
            args = _args(sched, prof)
            cpus(1)
            serial = estimate_metrics(sched, prof, cfg)
            workers = len(simulate._workers)
            forks = cpus(k)
            assert simulate._batch_sums(cfg.seed, first, n, args) == fallback.run_batch(
                cfg.seed, first, n, *args)
            # one fork per worker per process: this call forks only the
            # workers that earlier calls did not
            assert len(forks) == max(min(k, n // _SHARD) - 1 - workers, 0)
            assert estimate_metrics(sched, prof, cfg) == serial
            assert len(forks) == max(min(k, n // _SHARD) - 1 - workers, 0)  # the second call forks nothing
        assert len(simulate._workers) == k - 1

    def test_truncation_matches_serial(self, cpus, monkeypatch):
        sched, prof = rule_bj(1), ServeProfile(1.0, 0.0)
        monkeypatch.setattr(simulate, "_MAX_DEUCE_CYCLES", 3)  # each request carries it
        cfg = SimConfig(n_games=5 * _SHARD + 3, seed=3)
        cpus(1)
        with pytest.raises(DeuceCapExceeded) as serial:
            estimate_metrics(sched, prof, cfg)
        forks = cpus(3)
        with pytest.raises(DeuceCapExceeded) as sharded:
            estimate_metrics(sched, prof, cfg)
        assert len(forks) == 2
        assert str(sharded.value) == str(serial.value)
        assert str(serial.value).startswith(f"{cfg.n_games} of {cfg.n_games} games")

    def test_cap_set_after_the_fork_reaches_the_workers(self, cpus, monkeypatch):
        sched, prof = rule_bj(1), ServeProfile(0.5, 0.5)  # some games outlast 3 cycles
        cfg = SimConfig(n_games=5 * _SHARD + 3, seed=3)
        forks = cpus(3)
        estimate_metrics(sched, prof, cfg)  # start the workers under the default cap
        assert len(forks) == 2
        monkeypatch.setattr(simulate, "_MAX_DEUCE_CYCLES", 3)
        with pytest.raises(DeuceCapExceeded) as sharded:
            estimate_metrics(sched, prof, cfg)
        assert len(forks) == 2
        cpus(1)
        with pytest.raises(DeuceCapExceeded) as serial:
            estimate_metrics(sched, prof, cfg)
        assert str(sharded.value) == str(serial.value)
        assert not str(serial.value).startswith(f"{cfg.n_games} of")

    @pytest.mark.parametrize("bad", ["raises", "short output"])
    def test_failed_worker_is_replayed(self, cpus, monkeypatch, bad):
        sched, prof = rule_c(3), ServeProfile(0.696, 0.55)
        cfg = SimConfig(n_games=7 * _SHARD + 1, seed=9, first_game=5)
        cpus(1)
        serial = estimate_metrics(sched, prof, cfg)
        parent, real_run = os.getpid(), fallback.run_batch

        def kernel(*args):
            if os.getpid() == parent:
                return real_run(*args)
            if bad == "raises":
                raise RuntimeError("worker kernel fails")
            return real_run(*args)[:6]

        monkeypatch.setattr(simulate, "run_batch", kernel)
        forks = cpus(3)
        assert estimate_metrics(sched, prof, cfg) == serial
        assert len(forks) == 2
        assert simulate._workers == []  # each failed worker is reaped and dropped
        _no_child_left()

    @pytest.mark.parametrize("good_forks", [0, 1])
    def test_failed_fork_plays_the_rest_here(self, cpus, monkeypatch, good_forks):
        sched, prof = rule_b(2), ServeProfile(0.7, 0.35)
        cfg = SimConfig(n_games=9 * _SHARD + 2, seed=6)
        cpus(1)
        serial = estimate_metrics(sched, prof, cfg)
        forks = cpus(3)
        counted_fork = os.fork

        def fork():
            if len(forks) == good_forks:
                raise BlockingIOError("no process to be had")
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert estimate_metrics(sched, prof, cfg) == serial
        assert len(forks) == good_forks
        assert len(simulate._workers) == good_forks

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_shard_error_kills_workers(self, cpus, monkeypatch, error):
        parent = os.getpid()

        def kernel(*args):
            if os.getpid() == parent:
                raise error("parent shard fails")
            time.sleep(60)  # a worker that would outlive the call unless killed

        monkeypatch.setattr(simulate, "run_batch", kernel)
        forks = cpus(3)
        t0 = time.monotonic()
        with pytest.raises(error, match="parent shard fails"):
            estimate_metrics(rule_t(), ServeProfile(0.6, 0.6), SimConfig(10 * _SHARD, seed=1))
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2
        assert simulate._workers == []
        _no_child_left()

    def test_no_fork_while_another_thread_runs(self, cpus, monkeypatch):
        sched, prof = rule_t(), ServeProfile(0.6, 0.6)
        cfg = SimConfig(n_games=10 * _SHARD, seed=4)
        cpus(1)
        serial = estimate_metrics(sched, prof, cfg)
        cpus(2)

        def no_fork():
            pytest.fail("forked while another thread was running")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(60,))
        other.start()
        try:
            assert estimate_metrics(sched, prof, cfg) == serial
        finally:
            stop.set()
            other.join(timeout=60)
        assert not other.is_alive()

    def test_subclassed_numbers_reach_the_workers(self, cpus):
        class Chance(float):
            pass

        class Seed(int):
            pass

        sched, cfg = rule_c(3), SimConfig(n_games=4 * _SHARD, seed=Seed(8), first_game=Seed(2))
        cpus(1)
        serial = estimate_metrics(sched, ServeProfile(0.696, 0.55), cfg)
        forks = cpus(2)
        assert estimate_metrics(sched, ServeProfile(Chance(0.696), Chance(0.55)), cfg) == serial
        assert len(forks) == 1 and len(simulate._workers) == 1


class TestWorkerPool:
    """The workers live from the first sharded call until the process exits."""

    def test_second_call_reuses_the_workers(self, cpus):
        forks, pids = cpus(3), []
        for sched, prof, seed, first in ((rule_t(), ServeProfile(0.62, 0.62), 1, 0),
                                         (rule_b(2), ServeProfile(0.666, 0.52), 2, 777)):
            args = _args(sched, prof)
            assert simulate._batch_sums(seed, first, 6 * _SHARD + 5, args) == (
                fallback.run_batch(seed, first, 6 * _SHARD + 5, *args))
            pids.append(_pids())
        assert len(forks) == 2
        assert pids[0] == pids[1]

    def test_interrupted_call_reaps_its_workers(self, cpus, monkeypatch):
        args = _args(rule_c(3), ServeProfile(0.696, 0.55))
        forks = cpus(3)
        simulate._batch_sums(5, 0, 6 * _SHARD, args)  # start the workers
        old = _pids()
        parent, real_run = os.getpid(), fallback.run_batch

        def kernel(*a):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real_run(*a)

        monkeypatch.setattr(simulate, "run_batch", kernel)
        with pytest.raises(KeyboardInterrupt):
            simulate._batch_sums(5, 0, 6 * _SHARD, args)
        assert simulate._workers == []
        assert all(_reaped(pid) for pid in old)
        monkeypatch.setattr(simulate, "run_batch", real_run)
        for seed in (5, 6):  # a stale reply would make one of these differ
            assert simulate._batch_sums(seed, 0, 6 * _SHARD, args) == (
                real_run(seed, 0, 6 * _SHARD, *args))
        assert len(forks) == 4

    def test_killed_worker_is_replaced(self, cpus):
        args = _args(rule_t(), ServeProfile(0.9, 0.9))
        forks = cpus(3)
        expected = fallback.run_batch(7, 3, 5 * _SHARD, *args)
        assert simulate._batch_sums(7, 3, 5 * _SHARD, args) == expected
        victim, survivor = _pids()
        os.kill(victim, signal.SIGKILL)
        assert simulate._batch_sums(7, 3, 5 * _SHARD, args) == expected
        assert _reaped(victim)
        assert _pids() == [survivor]
        assert simulate._batch_sums(7, 3, 5 * _SHARD, args) == expected
        assert len(forks) == 3
        assert _pids()[0] == survivor and len(_pids()) == 2

    def test_stop_with_two_workers_returns(self, cpus):
        forks = cpus(3)
        simulate._batch_sums(1, 0, 3 * _SHARD, _args(rule_t(), ServeProfile(0.6, 0.6)))
        pids = _pids()
        assert len(forks) == len(pids) == 2
        simulate._stop_workers()
        assert simulate._workers == []
        assert all(_reaped(pid) for pid in pids)

    def test_end_of_file_ends_each_worker(self, cpus):
        """No worker holds another's request pipe, so closing a worker's
        pipe ends it while the later worker still runs."""
        cpus(3)
        simulate._batch_sums(1, 0, 3 * _SHARD, _args(rule_t(), ServeProfile(0.6, 0.6)))
        first, later = simulate._workers
        simulate._workers.remove(first)
        os.close(first[1])
        assert _exit_status(first[0]) == 0
        os.close(first[2])
        assert os.waitpid(later[0], os.WNOHANG) == (0, 0)

    def test_forked_child_starts_its_own_workers(self, cpus):
        args = _args(rule_c(3), ServeProfile(0.626, 0.51))
        forks = cpus(3)
        expected = fallback.run_batch(11, 0, 4 * _SHARD, *args)
        assert simulate._batch_sums(11, 0, 4 * _SHARD, args) == expected
        pids = _pids()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                if simulate._workers == []:
                    ok = simulate._batch_sums(11, 0, 4 * _SHARD, args) == expected
                    mine = _pids()
                    simulate._stop_workers()
                    code = 0 if ok and len(mine) == 2 and not set(mine) & set(pids) else 2
            finally:
                os._exit(code)
        assert _exit_status(child) == 0
        assert _pids() == pids
        assert simulate._batch_sums(11, 0, 4 * _SHARD, args) == expected
        assert len(forks) == 3  # two workers and the child; the child counts its own

    def test_no_worker_outlives_a_process(self):
        script = (
            "from servelab import simulate as s, types as t\n"
            "s._usable_cpus = lambda: 3\n"
            "s._SHARD_MIN = 100\n"
            "s.estimate_metrics(t.rule_t(), t.ServeProfile(0.62, 0.62), s.SimConfig(1000, 1))\n"
            "print(*[pid for pid, _, _ in s._workers])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

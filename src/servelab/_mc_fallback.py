"""The Monte Carlo kernel (pure Python) and the game loop it must match.

The generator is splitmix64 (documented in simulate.py).  play_game is
the readable one-game specification: simulate.simulate_game plays with
it, and the tests hold run_batch to it.  run_batch plays a whole batch
in lockstep instead.  Draw k of game i depends only on (seed, i, k), so
every game still in play after k points takes its next draw at index k
against the same probability; run_batch therefore advances all of them
by one point per step:

- Packed lanes: game j of a chunk lives in bits [128*j, 128*j + 64) of
  one Python int, its "slot".  A 64 x 64-bit product fits in 128 bits,
  so splitmix64 runs on every lane at once with a dozen big-int
  operations.
- Integer thresholds: u < p exactly when the 64-bit mix is below
  threshold(p), so one add sets bit 64 of each slot whose point F lost.
- Lane sets: the live games are grouped by score and break points, each
  group an int with one byte per lane, 1 for each member lane and 0 for
  the rest (2 KB for a chunk of 2,048 games).  Byte 8 of a slot holds
  bit 64 and seven bits that are always 0, so bytes 8, 24, 40, ... of a
  step's sum are the lane set of the points F lost.  Finished groups go
  into the sums by bit count.
- Compaction: once at most half the slots are live, the live lanes are
  re-packed into the lowest slots, in lane order, so long deuce runs
  stop costing the full width.  Each lane is labelled with one byte, the
  number of its state or 0 once its game has finished: one compress pass
  over the slots picks the live ones, and bytes.translate reads each
  re-packed lane set off the labels of the live lanes.  A step with more
  live states than one byte can name is played at full width instead.
- Chunks of CHUNK games bound the size of every packed int.  A batch
  builds its per-slot constants once, for its first chunk, and a
  narrower width (a short last chunk, or a re-pack) cuts them down.
"""

import math
import struct
from itertools import chain, compress

from .errors import DeuceCapExceeded

MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
INV53 = 1.0 / 9007199254740992.0  # 2**-53

_SLOT = 128  # bits per lane
_SLOT_BYTES = _SLOT // 8
# lanes per chunk: each packed int stays at 32 KB and each lane set at 2 KB,
# so peak memory does not grow with the batch
CHUNK = 2048
# _compact reads the slots of a packed int _BLOCK at a time, so that one
# Struct serves every width, and labels at most _LABELS states, one byte each
_BLOCK = 64
_BLOCK_SLOTS = struct.Struct(f"{_SLOT_BYTES}s" * _BLOCK)
_LABELS = 255
# _SPIKE[255 - n:511 - n] maps label n to 1 and every other label to 0
_SPIKE = bytes(255) + b"\1" + bytes(255)


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z &= MASK
    z ^= z >> 30
    z = (z * _MUL1) & MASK
    z ^= z >> 27
    z = (z * _MUL2) & MASK
    z ^= z >> 31
    return z


def play_game(base, k, prefix, cyc, count_bp, max_deuce_cycles):
    """Play one game from draw k of the stream keyed by base.

    prefix holds F's point probabilities up to the tie and cyc one cycle
    of the tied region.  Returns (f_won, points, break_points, k) with k
    the next unused draw; break points are counted only when count_bp.
    Raises DeuceCapExceeded if the tied region is still undecided after
    max_deuce_cycles cycles.
    """
    f = s = 0
    pts = bps = 0
    for p in prefix:
        if count_bp and s == 3 and f <= 2:
            bps += 1
        u = (mix64((base + k * GAMMA) & MASK) >> 11) * INV53
        k += 1
        pts += 1
        if u < p:
            f += 1
            if f == 4:
                return True, pts, bps, k
        else:
            s += 1
            if s == 4:
                return False, pts, bps, k
    d = 0
    for _ in range(max_deuce_cycles):
        for c in cyc:
            if count_bp and d == -1:
                bps += 1
            u = (mix64((base + k * GAMMA) & MASK) >> 11) * INV53
            k += 1
            pts += 1
            d += 1 if u < c else -1
            if d == 2 or d == -2:
                return d == 2, pts, bps, k
    raise DeuceCapExceeded(
        f"tied region still undecided after {max_deuce_cycles} cycles"
    )


def threshold(p: float) -> int:
    """The integer t with (m >> 11) * INV53 < p exactly when m < t, for
    every 64-bit m and every p in [0, 1].

    p * 2**53 is exact, and an integer a satisfies a < x iff a < ceil(x).
    """
    return math.ceil(p * 9007199254740992.0) << 11


def _lanes(w):
    """(ones, iota) for w lanes: 1, and the lane index, in every slot."""
    ones, iota, n = 1, 0, 1
    while n < w:
        iota |= (iota + n * ones) << (_SLOT * n)
        ones |= ones << (_SLOT * n)
        n *= 2
    keep = (1 << (_SLOT * w)) - 1
    return ones & keep, iota & keep


def _mix_lanes(z, low):
    """mix64 in every slot of z (clean 64-bit lanes).  In each slot of the
    result bits 0..63 are right, bits 64..96 are 0 and bits 97..127 may
    hold garbage, so adding a value below 2**65 cannot carry into it."""
    z ^= z >> 30
    z = ((z & low) * _MUL1) & low
    z ^= z >> 27
    z = ((z & low) * _MUL2) & low
    return z ^ (z >> 31)


def _width_constants(ones, probs):
    """(low, step, offset) for packed ints with the lanes of ones (1 in
    every slot): MASK and GAMMA in every slot, and 2**64 - t in every
    slot for each threshold t in probs."""
    offset = {t: (MASK + 1 - t) * ones for t in set(probs)}
    return ones * MASK, ones * GAMMA, offset


def _truncate(consts, width):
    """_width_constants' (low, step, offset) cut to the lowest width slots."""
    keep = (1 << (_SLOT * width)) - 1
    low, step, offset = consts
    return low & keep, step & keep, {t: o & keep for t, o in offset.items()}


def _play_lanes(ctr, width, consts, probs, n_prefix, count_bp, max_points):
    """Play the games whose draw counters base + k * GAMMA are packed in
    the width slots of ctr, all at draw k = 0, in lockstep; consts are
    _width_constants' (low, step, offset) for width slots.  Return
    run_batch's 7 sums.

    probs[k] is the threshold for draw k, for k < n_prefix, and cycles
    through probs[n_prefix:] after that.  A live game is keyed by its
    score (f, s) and its break points so far b, and each key holds a lane
    set: byte j of the int is 1 when lane j is in the set, else 0, so &,
    ^ and | act lane by lane and bit_count counts lanes.  Scores in the
    tied region are kept at 3:3, 4:3 or 3:4, and a deuce-only game starts
    at 3:3, so one rule decides every game: a player with 4+ points and a
    lead of 2 has won.  Games still live after max_points points are
    truncated.
    """
    wins = bp_games = sum_pts = sum_pts_sq = sum_bps = sum_bps_sq = 0
    live = width
    low, step, offset = consts
    states = {(0, 0, 0) if n_prefix else (3, 3, 0): int.from_bytes(b"\1" * width, "little")}
    cyc = probs[n_prefix:]
    for k in range(max_points):
        if live * 2 <= width and len(states) <= _LABELS:
            ctr, states = _compact(ctr, width, states)
            width = live
            low, step, offset = _truncate((low, step, offset), width)
        t = probs[k] if k < n_prefix else cyc[(k - n_prefix) % len(cyc)]
        # bit 64 of each slot of mix + 2**64 - t is set iff F lost the point
        # and bits 65..96 are 0, so byte 8 of each slot is that lane's byte;
        # the sum is below 2**(128 * width), so it fits in width slots
        lost = int.from_bytes((_mix_lanes(ctr, low) + offset[t]).to_bytes(
            width * _SLOT_BYTES, "little")[8::_SLOT_BYTES], "little")
        ctr = (ctr + step) & low
        pts = k + 1
        nxt = {}
        for (f, s, b), lanes in states.items():
            if count_bp and s >= 3 and s > f:
                b += 1
            lost_lanes = lanes & lost
            for f2, s2, got in ((f + 1, s, lanes ^ lost_lanes), (f, s + 1, lost_lanes)):
                if not got:
                    continue
                if max(f2, s2) >= 4 and abs(f2 - s2) >= 2:
                    n = got.bit_count()
                    live -= n
                    if f2 > s2:
                        wins += n
                    if b:
                        bp_games += n
                    sum_pts += n * pts
                    sum_pts_sq += n * pts * pts
                    sum_bps += n * b
                    sum_bps_sq += n * b * b
                    continue
                if f2 == s2 == 4:
                    f2 = s2 = 3
                key = (f2, s2, b)
                nxt[key] = nxt.get(key, 0) | got
        states = nxt
        if not live:
            break
    return (wins, bp_games, sum_pts, sum_pts_sq, sum_bps, sum_bps_sq, live)


def _compact(ctr, width, states):
    """Re-pack the live lanes of ctr into the lowest slots, in lane order;
    return the new counters and the lane sets of the re-packed lanes.

    Each lane gets a one-byte label: 0 once its game has finished, else
    the number of its state, so one compress pass over the slots picks
    the live ones, and one translate per state rebuilds its lane set from
    the labels of the live lanes.  _play_lanes passes at most _LABELS
    states and otherwise waits, which changes no sum since a re-pack only
    moves lanes.  No game comes near that: Bj and B count no break points,
    so they have at most 18 states.  A, T and C have a one-point deuce
    cycle: two points from deuce end the game with chance p*p + q*q >= 1/2,
    and over 255 states (3 scores a count) needs over 85 distinct
    break-point counts among the live lanes, a game past about 80 returns
    to deuce, with chance below 2**-80.
    """
    # n in the bytes of the n-th state's lanes, 0 in those of finished lanes
    labels = sum([lanes * n for n, lanes in enumerate(states.values(), 1)])
    labels = labels.to_bytes(width, "little")
    picked = labels.translate(None, b"\0")
    packed = {key: int.from_bytes(picked.translate(_SPIKE[255 - n:511 - n]), "little")
              for n, key in enumerate(states, 1)}
    slots = chain.from_iterable(_BLOCK_SLOTS.iter_unpack(
        ctr.to_bytes(-(-width // _BLOCK) * _BLOCK * _SLOT_BYTES, "little")))
    return int.from_bytes(b"".join(compress(slots, labels)), "little"), packed


def run_batch(seed, first_game, n_games, prefix_probs, cycle_probs,
              count_bp, max_deuce_cycles):
    """Simulate games [first_game, first_game + n_games) and return the
    integer sums (wins, bp_games, points, points_sq, bps, bps_sq, truncated).

    Game i draws from its own substream keyed by mix64(seed + (i+1)*GAMMA),
    so any sharding over first_game/n_games sums to the same totals, and
    the sums equal those of play_game over each game (a game that raises
    DeuceCapExceeded there counts as truncated here).  Probabilities must
    lie in [0, 1].  Games are played CHUNK at a time.
    """
    prefix = [threshold(float(p)) for p in prefix_probs]
    probs = prefix + [threshold(float(c)) for c in cycle_probs]
    max_points = len(prefix) + max_deuce_cycles * (len(probs) - len(prefix))
    totals = [0] * 7
    # every chunk's constants are the first chunk's, cut to its width;
    # pre holds key + lane * GAMMA in each slot, and moves on by CHUNK
    # games' worth of GAMMA from one chunk to the next
    ones, iota = _lanes(min(CHUNK, n_games))
    consts = _width_constants(ones, probs)
    low = consts[0]
    key = (seed + (first_game + 1) * GAMMA) & MASK
    pre = (key * ones + iota * GAMMA) & low
    stride = ((CHUNK * GAMMA) & MASK) * ones
    for start in range(0, n_games, CHUNK):
        w = min(CHUNK, n_games - start)
        if w < CHUNK:  # only the last chunk can be short
            consts = _truncate(consts, w)
            pre &= consts[0]
        bases = _mix_lanes(pre, consts[0]) & consts[0]
        sums = _play_lanes(bases, w, consts, probs, len(prefix), count_bp, max_points)
        totals = [a + b for a, b in zip(totals, sums)]
        pre = (pre + stride) & low
    return tuple(totals)

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
- Compaction: once at most a quarter of the slots are live, the live
  lanes are re-packed, so long deuce runs stop costing the full width.
  A lane set's bytes are the flags that pick its slots, and each
  re-packed set is a run of 0x01 bytes.
- Chunks of CHUNK games bound the size of every packed int.
"""

import math
from itertools import compress

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


def _run(n, used=0):
    """The lane set of lanes [used, used + n): one 0x01 byte per lane."""
    return int.from_bytes(b"\x01" * n, "little") << (8 * used)


def _play_lanes(ctr, ones, probs, n_prefix, count_bp, max_points):
    """Play the games whose draw counters base + k * GAMMA are packed in
    ctr, one in each slot of ones and all at draw k = 0, in lockstep;
    return run_batch's 7 sums.

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
    live = width = ones.bit_count()
    low, step, offset = _width_constants(ones, probs)
    states = {(0, 0, 0) if n_prefix else (3, 3, 0): _run(width)}
    cyc = probs[n_prefix:]
    for k in range(max_points):
        if live * 4 <= width:
            ctr, states = _compact(ctr, width, states)
            width = live
            ones &= (1 << (_SLOT * width)) - 1
            low, step, offset = _width_constants(ones, probs)
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
    """Re-pack the live lanes of ctr into the lowest slots, grouped by
    state; return the new counters and the states as contiguous runs.
    The bytes of a lane set are its lanes' 0/1 flags."""
    nbytes = width * _SLOT_BYTES
    raw = ctr.to_bytes(nbytes, "little")
    starts = range(0, nbytes, _SLOT_BYTES)
    parts, packed, used = [], {}, 0
    for key, lanes in states.items():
        flags = lanes.to_bytes(width, "little")
        parts += [raw[j:j + _SLOT_BYTES] for j in compress(starts, flags)]
        packed[key] = _run(len(parts) - used, used)
        used = len(parts)
    return int.from_bytes(b"".join(parts), "little"), packed


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
    ones = iota = None
    for start in range(0, n_games, CHUNK):
        w = min(CHUNK, n_games - start)
        if ones is None or w < CHUNK:  # only the last chunk can be short
            ones, iota = _lanes(w)
        low = ones * MASK
        key = (seed + (first_game + start + 1) * GAMMA) & MASK
        bases = _mix_lanes((key * ones + iota * GAMMA) & low, low) & low
        sums = _play_lanes(bases, ones, probs, len(prefix), count_bp, max_points)
        totals = [a + b for a, b in zip(totals, sums)]
    return tuple(totals)

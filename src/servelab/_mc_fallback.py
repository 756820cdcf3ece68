"""Pure-Python Monte Carlo kernel.

Bit-identical to the compiled kernel in _mc_kernel.pyx: same generator,
same draw order, same comparisons, integer accumulators only.  The
generator is splitmix64 (documented in simulate.py); Python integers are
masked to 64 bits where C code relies on natural wraparound.
"""

MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
INV53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z &= MASK
    z ^= z >> 30
    z = (z * _MUL1) & MASK
    z ^= z >> 27
    z = (z * _MUL2) & MASK
    z ^= z >> 31
    return z


def run_batch(seed, first_game, n_games, prefix_probs, cycle_probs,
              count_bp, max_deuce_cycles):
    """Simulate games [first_game, first_game + n_games) and return the
    integer sums (wins, bp_games, points, points_sq, bps, bps_sq, truncated).

    Game i draws from its own substream keyed by mix64(seed + (i+1)*GAMMA),
    so any sharding over first_game/n_games sums to the same totals.
    """
    prefix = tuple(float(p) for p in prefix_probs)
    cyc = tuple(float(c) for c in cycle_probs)
    wins = bp_games = 0
    sum_points = sum_points_sq = 0
    sum_bps = sum_bps_sq = 0
    truncated = 0
    for g in range(n_games):
        base = mix64((seed + ((first_game + g + 1) * GAMMA)) & MASK)
        k = 0
        f = s = 0
        pts = 0
        bps = 0
        decided = False
        f_won = False
        for p in prefix:
            if count_bp and s == 3 and f <= 2:
                bps += 1
            u = (mix64((base + k * GAMMA) & MASK) >> 11) * INV53
            k += 1
            pts += 1
            if u < p:
                f += 1
                if f == 4:
                    decided = True
                    f_won = True
                    break
            else:
                s += 1
                if s == 4:
                    decided = True
                    break
        if not decided:
            d = 0
            cycles = 0
            trunc = False
            while True:
                if cycles >= max_deuce_cycles:
                    trunc = True
                    break
                for c in cyc:
                    if count_bp and d == -1:
                        bps += 1
                    u = (mix64((base + k * GAMMA) & MASK) >> 11) * INV53
                    k += 1
                    pts += 1
                    if u < c:
                        d += 1
                    else:
                        d -= 1
                    if d == 2 or d == -2:
                        break
                if d == 2 or d == -2:
                    break
                cycles += 1
            if trunc:
                truncated += 1
                continue
            f_won = d == 2
        if f_won:
            wins += 1
        if bps > 0:
            bp_games += 1
        sum_points += pts
        sum_points_sq += pts * pts
        sum_bps += bps
        sum_bps_sq += bps * bps
    return (wins, bp_games, sum_points, sum_points_sq, sum_bps, sum_bps_sq, truncated)

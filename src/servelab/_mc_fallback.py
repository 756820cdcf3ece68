"""The Monte Carlo kernel (pure Python) and the game loop it runs.

play_game is the one point-by-point game loop: simulate.simulate_game and
run_batch both call it.  The generator is splitmix64 (documented in
simulate.py); Python integers are masked to 64 bits after every add and
multiply.
"""

from .errors import DeuceCapExceeded

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
    for i in range(first_game + 1, first_game + n_games + 1):
        base = mix64((seed + i * GAMMA) & MASK)
        try:
            f_won, pts, bps, _ = play_game(base, 0, prefix, cyc, count_bp,
                                           max_deuce_cycles)
        except DeuceCapExceeded:
            truncated += 1
            continue
        wins += f_won
        bp_games += bps > 0
        sum_points += pts
        sum_points_sq += pts * pts
        sum_bps += bps
        sum_bps_sq += bps * bps
    return (wins, bp_games, sum_points, sum_points_sq, sum_bps, sum_bps_sq, truncated)

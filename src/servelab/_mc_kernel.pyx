# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled Monte Carlo kernel.

Reference implementation: _mc_fallback.play_game, the one game loop,
summed over a batch exactly as _mc_fallback.run_batch does.  The loop
below is that function inlined into C for speed, draw for draw; results
are bit-identical because C unsigned arithmetic wraps exactly like the
masked Python version.
"""

from libc.stdint cimport int64_t, uint64_t

cdef uint64_t GAMMA = 0x9E3779B97F4A7C15UL
cdef uint64_t MUL1 = 0xBF58476D1CE4E5B9UL
cdef uint64_t MUL2 = 0x94D049BB133111EBUL
cdef double INV53 = 1.0 / 9007199254740992.0


cdef inline uint64_t mix64(uint64_t z) nogil:
    z ^= z >> 30
    z = z * MUL1
    z ^= z >> 27
    z = z * MUL2
    z ^= z >> 31
    return z


def run_batch(uint64_t seed, uint64_t first_game, Py_ssize_t n_games,
              prefix_probs, cycle_probs, bint count_bp,
              uint64_t max_deuce_cycles):
    """Same contract as _mc_fallback.run_batch."""
    cdef double prefix[6]
    cdef double cyc[2]
    cdef int n_prefix = len(prefix_probs)
    cdef int cyc_len = len(cycle_probs)
    cdef int i
    if n_prefix not in (0, 6):
        raise ValueError("prefix must have 0 or 6 entries")
    if cyc_len not in (1, 2):
        raise ValueError("cycle must have 1 or 2 entries")
    for i in range(n_prefix):
        prefix[i] = prefix_probs[i]
    for i in range(cyc_len):
        cyc[i] = cycle_probs[i]

    cdef int64_t wins = 0, bp_games = 0
    cdef int64_t sum_points = 0, sum_points_sq = 0
    cdef int64_t sum_bps = 0, sum_bps_sq = 0
    cdef int64_t truncated = 0
    cdef Py_ssize_t g
    cdef uint64_t base, k, cycles
    cdef int64_t pts, bps
    cdef int f, s, d, t
    cdef double u
    cdef bint decided, f_won, trunc

    with nogil:
        for g in range(n_games):
            base = mix64(seed + (first_game + <uint64_t> g + 1) * GAMMA)
            k = 0
            f = 0
            s = 0
            pts = 0
            bps = 0
            decided = False
            f_won = False
            for i in range(n_prefix):
                if count_bp and s == 3 and f <= 2:
                    bps += 1
                u = (mix64(base + k * GAMMA) >> 11) * INV53
                k += 1
                pts += 1
                if u < prefix[i]:
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
                    for t in range(cyc_len):
                        if count_bp and d == -1:
                            bps += 1
                        u = (mix64(base + k * GAMMA) >> 11) * INV53
                        k += 1
                        pts += 1
                        if u < cyc[t]:
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

    return (wins, bp_games, sum_points, sum_points_sq,
            sum_bps, sum_bps_sq, truncated)

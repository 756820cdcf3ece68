"""Machine-speed calibration for the end-to-end time metrics.

On a shared two-vCPU machine the same pass over the exact grid ran at
28k to 43k metric sets/s in consecutive 6-second blocks, and the CLI p50
moved between 144 and 190 ms from one batch of 56 processes to the next.
Process CPU time drifts the same way, because neighbours slow the core
itself, and whole 10-second stretches run slow, so no statistic taken
inside one run removes it.  A reference job interleaved with the work
slows down with it: over those batches, p50 / (bare interpreter start)
stayed between 2.77 and 2.92.

Each segment interleaves a reference that resembles its work:
mix_loop (64-bit integer mixing, like the MC kernel) after every MC call,
lattice_loop (tuple-keyed dict propagation, like the engine) after every
grid pass, and a bare `python -c pass` around CLI and setup processes.
The closer the resemblance, the better it tracks: over 2.5-second
windows of grid passes the calibrated rate spread 3.6% with
lattice_loop, 6.1% with an integer loop, and 18% uncalibrated.

Every end-to-end time is reported as the measured time times NOMINAL /
(the reference's time measured in the same run, around the same moment
for processes).  NOMINAL is the reference's time on an unloaded core of
the machine this was written on (Intel Xeon, 2.1 GHz, 2 vCPUs), which
keeps values near raw seconds there.  Raw values are kept in the result
file.  Two programs compared on one machine see the same references, so
the comparison does not depend on NOMINAL.
"""

from __future__ import annotations

import time
from statistics import median

# process reference: a bare `python -c pass`
SPAWN_NOMINAL_S = 0.050
_MASK = (1 << 64) - 1


def mix_loop() -> int:
    """Reference for the Monte Carlo kernel: 64-bit integer mixing."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    for i in range(2500):
        x = (x * 0xBF58476D1CE4E5B9 + i) & _MASK
        acc ^= x >> 7
    return acc


def lattice_loop() -> float:
    """Reference for the engine: tuple-keyed dict propagation of floats."""
    acc = 0.0
    for _ in range(25):
        states = {(0, 0, False): 1.0}
        for i in range(6):
            nxt: dict[tuple[int, int, bool], float] = {}
            p = 0.3 + 0.05 * i
            for (f, s, seen), m in states.items():
                wf = m * p
                key = (f + 1, s, seen or s == 3)
                nxt[key] = nxt.get(key, 0.0) + wf
                key = (f, s + 1, seen)
                nxt[key] = nxt.get(key, 0.0) + (m - wf)
            states = nxt
        acc += sum(states.values())
    return acc


# in-process references and their time on an unloaded core
MIX_LOOP = (mix_loop, 0.00058)
LATTICE_LOOP = (lattice_loop, 0.00028)


REF_SHARE = 0.1  # reference time per unit of work time


def sample(ref, work_s: float, ref_s: list[float]) -> None:
    """Run `ref` after work_s seconds of work until it has used REF_SHARE of
    that time (at least once), appending each run's time to ref_s."""
    fn, _ = ref
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        ref_s.append(dt)
        spent += dt
        if spent >= REF_SHARE * work_s:
            return


def rate(work: float, work_s: float, ref, ref_s: list[float]) -> float:
    """Calibrated work per second: work / work_s, scaled by mean(ref_s) / nominal."""
    return work / work_s * (sum(ref_s) / len(ref_s) / ref[1])


def spawn_scaled(times: list[float], ref_s: list[float], per: int) -> list[float]:
    """Calibrate process times against the reference spawns around each one.

    Reference j was taken after time per*(j+1)-1; each time is scaled by
    SPAWN_NOMINAL_S / median of the (up to) seven references nearest to
    it, which follows drift over a second or two and keeps one slow
    reference from skewing a whole run.
    """
    out = []
    for i, t in enumerate(times):
        j = min(i // per, len(ref_s) - 1)
        out.append(t * SPAWN_NOMINAL_S / median(ref_s[max(0, j - 3):j + 4]))
    return out

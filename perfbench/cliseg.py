"""cli-session: fresh `servelab` processes, one at a time, round-robin
over every subcommand.

Interpreter start, imports, argparse and formatting dominate here and
Monte Carlo batches are small, so a change that wins on big batches but
adds import or per-call cost shows in cli_latency_* and setup_s.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPAN_TAG = "#perfbench-spans "  # as written by child.py
MIN_PROCS = 100       # the p90 then has ten samples beyond it
SETUP_SPAWNS = 9
REF_EVERY = 2         # CLI processes per reference spawn
STATS_ROWS = 300
SIM_GAMES = 2_000
TIMEOUT = 120


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """The README's documented `$ servelab eval|shape ...` runs: (argv, stdout lines)."""
    path = ROOT / "README.md"
    if not path.exists():
        return []
    out = []
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```") or line.startswith("$ "):
            current = None
        if line.startswith("$ servelab "):
            argv = shlex.split(line[len("$ servelab "):])
            if argv[0] in ("eval", "shape"):
                current = (argv, [])
                out.append(current)
        elif current is not None:
            current[1].append(line)
    return out


def write_stats(rng, path: Path, rows: int = STATS_ROWS) -> None:
    lines = ["rank,name,p_f_in,p_f_won,p_s_won,p_t_won"]
    for rank in range(1, rows + 1):
        lines.append(f"{rank},player{rank},{rng.uniform(0.50, 0.72):.2f},"
                     f"{rng.uniform(0.66, 0.82):.2f},{rng.uniform(0.44, 0.58):.2f},"
                     f"{rng.uniform(0.60, 0.93):.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_commands(rng, tmp: Path) -> list[dict]:
    """The round-robin: each entry has argv, and optionally expected stdout."""
    stats = tmp / "stats.csv"
    write_stats(rng, stats)
    bundled = "src/servelab/data/atp_sample.csv"

    def p():
        return f"{rng.uniform(0.40, 0.90):.3f}"

    cmds = [{"argv": argv, "expect": lines} for argv, lines in readme_examples()]
    cmds += [
        {"argv": ["eval", "--game", "A", "--p", p()]},
        {"argv": ["eval", "--game", "Bj", "--pf", p(), "--ps", p()]},
        {"argv": ["eval", "--game", "T", "--p", p()]},
        {"argv": ["eval", "--game", "B", "--pf", p(), "--ps", p(), "--order", "2"]},
        {"argv": ["eval", "--game", "C", "--pf", p(), "--ps", p(), "--x", str(rng.randrange(7))]},
    ]
    start = rng.uniform(0.35, 0.45)
    cmds.append({"argv": ["sweep", "--games", "A,Bj,T,B,C", "--var", "p_F",
                          "--start", f"{start:.3f}", "--stop", f"{start + 0.5:.3f}",
                          "--step", "0.01", "--delta", f"{rng.uniform(0, 0.1):.3f}",
                          "--out", str(tmp / "sweep.csv"), "--svg", str(tmp / "sweep.svg")],
                 "files": [tmp / "sweep.csv", tmp / "sweep.svg"]})
    for csv in (bundled, str(stats)):
        cmds.append({"argv": ["fit", csv]})
        cmds.append({"argv": ["compare", csv, "--x", str(rng.randrange(7))]})
    cmds.append({"argv": ["shape", str(stats), "--low", str(STATS_ROWS), "--high", "1"]})
    kind = rng.choice(["T", "A", "C"])
    game = ["--p", p()] if kind in ("T", "A") else ["--pf", p(), "--ps", p()]
    cmds.append({"argv": ["simulate", "--game", kind, *game, "--n", str(SIM_GAMES),
                          "--seed", str(rng.getrandbits(64))]})
    return cmds


def _check_sweep(files) -> bool:
    csv_text, svg_text = (f.read_text(encoding="utf-8") for f in files)
    rows = csv_text.splitlines()[1:]
    p_values = {r.split(",")[2] for r in rows}
    # 16 rows per grid point: four metrics for A, T and C, two for Bj and B
    return (len(rows) == 16 * len(p_values) and len(p_values) > 1
            and svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>"))


def spawn(args, capture=True):
    """Run a child to completion; return (CompletedProcess, t0 ns, t1 ns).

    A child still running after TIMEOUT seconds is killed.  The wait
    blocks in waitpid: subprocess's own timeout polls with sleeps of up
    to 50 ms, which would quantize every measured wall time.
    """
    t0 = time.perf_counter_ns()
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(args, cwd=ROOT, env=ENV, stdout=out, stderr=out, text=True)
    watchdog = threading.Timer(TIMEOUT, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    t1 = time.perf_counter_ns()
    done = subprocess.CompletedProcess(args, proc.returncode, stdout, stderr)
    return done, t0, t1


def run_one(cmd: dict, tally, tracer=None) -> float:
    """Spawn one process for `cmd`, check it, return its wall time in seconds."""
    argv = cmd["argv"]
    prog = [str(CHILD)] if tracer is not None else ["-m", "servelab.cli"]
    proc, t0, t1 = spawn([sys.executable, *prog, *argv])
    label = " ".join(argv[:3])
    ok = proc.returncode == 0
    tally.check(ok, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    if ok:
        out = proc.stdout
        if "files" in cmd:
            ok = _check_sweep(cmd["files"])
            tally.check(ok, f"{label}: malformed CSV or SVG")
            out += "".join(f.read_text(encoding="utf-8") for f in cmd["files"])
        if "expect" in cmd:
            tally.check(out.splitlines() == cmd["expect"], f"{label}: stdout differs from README")
        first = cmd.setdefault("first", out)
        tally.check(out == first, f"{label}: output changed between runs")
    if tracer is not None:
        _child_spans(tracer, argv[0], t0, t1, proc.stderr)
    return (t1 - t0) / 1e9


def _child_spans(tracer, command, t0, t1, stderr) -> None:
    parent = tracer.add_span(f"cli.process.{command}", t0, t1)
    for line in stderr.splitlines():
        if line.startswith(SPAN_TAG):
            start, imported, done = json.loads(line[len(SPAN_TAG):])
            tracer.add_span("cli.import", start, imported, parent)
            tracer.add_span(f"cli.main.{command}", imported, done, parent)


def ref_spawn() -> float:
    """Wall time of one bare interpreter start, the process reference (calib.py)."""
    _, t0, t1 = spawn([sys.executable, "-c", "pass"], capture=False)
    return (t1 - t0) / 1e9


def measure(cmds, tally, seconds=None, procs=MIN_PROCS, tracer=None):
    """Round-robin processes, with a reference spawn after every REF_EVERY-th.

    Returns (calibrated, raw) per-process wall times in seconds.
    """
    lat, ref = [], []
    start = time.perf_counter()
    while len(lat) < procs or (seconds is not None and time.perf_counter() - start < seconds):
        lat.append(run_one(cmds[len(lat) % len(cmds)], tally, tracer))
        if len(lat) % REF_EVERY == 0:
            ref.append(ref_spawn())
    return calib.spawn_scaled(lat, ref, REF_EVERY), lat


def p50_p90(lat) -> tuple[float, float]:
    return median(lat), quantiles(lat, n=10)[8]


def setup_seconds(tracer=None) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI and pick a backend.

    Returns (calibrated, raw) seconds; a reference spawn follows each one,
    after one warm-up that compiles the bytecode caches.
    """
    args = [sys.executable, "-c", "import servelab.cli; servelab.cli.mc_backend()"]
    times, ref = [], []
    for i in range(SETUP_SPAWNS + 1):
        proc, t0, t1 = spawn(args, capture=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}")
        if i:
            times.append((t1 - t0) / 1e9)
            ref.append(ref_spawn())
            if tracer is not None:
                tracer.add_span("cli.setup", t0, t1)
    return median(calib.spawn_scaled(times, ref, 1)), median(times)


def interp_spans(tracer, n: int = SETUP_SPAWNS) -> None:
    """Bare interpreter starts, recorded as cli.interp spans."""
    for _ in range(n):
        _, t0, t1 = spawn([sys.executable, "-c", "pass"], capture=False)
        tracer.add_span("cli.interp", t0, t1)

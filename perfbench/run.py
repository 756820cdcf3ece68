"""servelab benchmark: three workloads, end-to-end metrics, and per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload mc-concordance --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every workload runs all three segments (Monte Carlo cells, exact grid,
CLI session) so that it reports every end-to-end metric; the workload
chooses which segment gets the full --seconds at full size, and the
other two run as small fixed probes.  With --trace 0 the last stdout
line holds the end-to-end metrics, with --trace 1 the per-layer ones;
`all` runs every workload both ways.  Correctness gates run either way
and count in `failed`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def load_spec() -> dict:
    """BENCHMARK.json: metric names and units, and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_servelab():
    """Import servelab from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "servelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no servelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import servelab

    if ROOT.resolve() not in Path(servelab.__file__).resolve().parents:
        sys.exit(f"perfbench: imported servelab from {servelab.__file__}, not this checkout")
    return servelab


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(servelab, args, workload, sizes) -> dict:
    from lib import kernel_modules
    from servelab.simulate import mc_backend

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    backends = sorted(kernel_modules())
    return {
        # results with different `program` values measured different
        # programs, not one program before and after (compare.py flags them)
        "program": f"servelab {servelab.__version__} backend={mc_backend()}",
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy,
        "mc_backend": mc_backend(),
        "backends": backends,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def run_workload(servelab, spec, args, workload, trace) -> dict:
    """Run one workload; print its table; write its result file."""
    from spans import summarize
    from workload import Run

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        run = Run(workload, args.seed, args.seconds, trace, scratch)
        run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tag = f"{workload}-seed{args.seed}-trace{trace}"
    if trace:
        selfs = run.tracer.self_times()
        metrics = run.layer_metrics(selfs)
        run.tracer.write(RESULTS / f"{tag}.spans.jsonl")
    else:
        metrics = run.values
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    # a segment that raised has counted a failure and left its metrics unset
    metrics = {name: metrics.get(name, 0.0) for name in units}
    tally = run.tally
    result = {
        "provenance": provenance(servelab, args, workload, run.sizes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "raw": run.raw_values,
        "samples": run.samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
    }
    if trace:
        result["spans"] = summarize(selfs)
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {workload} (seed {args.seed}, {args.seconds} s, trace {trace})")
    print(f"# provenance {json.dumps(result['provenance'])}")
    for name, unit in units.items():
        note = f"  (n={run.samples['cli_latency']})" if name.startswith("cli_latency") else ""
        if name in run.raw_values:
            note += f"  raw {run.raw_values[name]:.6g}"
        print(f"{name:32s} {metrics[name]:16.6g} {unit:10s}{note}")
    print(f"{'error_rate':32s} {result['error_rate']:16.6g} "
          f"failed/attempted  ({tally.failed}/{tally.attempted})")
    for err in tally.errors:
        print(f"# FAILED: {err}")
    return result


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time of the workload's own segment "
                         "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    servelab = load_servelab()
    sys.path.insert(0, str(HERE))

    if args.workload == "all":
        return run_all(args, workloads)
    result = run_workload(servelab, spec, args, args.workload, args.trace)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def run_all(args, workloads) -> int:
    """Every workload untraced and traced, each in its own process so that
    peak memory and imports start fresh; metrics are keyed workload/metric."""
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

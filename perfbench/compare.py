"""Compare two benchmark result files written by run.py.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Prints each metric before and after, with after/before.  A pair whose
provenance names a different `program` (another Monte Carlo backend)
measured two different programs.  A pair from different workloads, run
lengths, trace modes or input sizes is not a like-for-like measurement.
Either is flagged, and the exit code is 1.
"""

import json
import sys

MUST_MATCH = ("program", "workload", "seconds", "trace", "sizes")


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = (json.load(open(path, encoding="utf-8")) for path in argv)
    pb, pa = before["provenance"], after["provenance"]
    mismatched = [k for k in MUST_MATCH if pb.get(k) != pa.get(k)]
    for key in mismatched:
        label = "DIFFERENT PROGRAMS" if key == "program" else "NOT COMPARABLE"
        print(f"# {label}: {key} {pb.get(key)!r} -> {pa.get(key)!r}")
    for key in ("commit", "backends", "python", "numpy", "nproc"):
        if pb.get(key) != pa.get(key):
            print(f"# note: {key} {pb.get(key)!r} -> {pa.get(key)!r}")
    print(f"{'metric':32s} {'before':>14s} {'after':>14s} {'after/before':>13s}")
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"{name:32s} {b['value']:14.6g} {'-':>14s}")
            continue
        ratio = a["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:32s} {b['value']:14.6g} {a['value']:14.6g} {ratio:13.4f} {b['unit']}")
    print(f"{'error_rate':32s} {before['error_rate']:14.6g} {after['error_rate']:14.6g}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

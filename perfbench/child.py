"""Run one servelab command, as `python -m servelab.cli` would, and report
the import and main() spans on stderr for the traced benchmark run.

    python3 perfbench/child.py eval --game T --p 0.62

The last stderr line is SPAN_TAG followed by [start, imported, done] in
perf_counter nanoseconds, which on Linux share a clock with the parent.
"""

import sys
import time

SPAN_TAG = "#perfbench-spans "

start = time.perf_counter_ns()
import servelab.cli  # noqa: E402

imported = time.perf_counter_ns()
code = servelab.cli.main(sys.argv[1:])
done = time.perf_counter_ns()
sys.stdout.flush()
print(f"{SPAN_TAG}[{start}, {imported}, {done}]", file=sys.stderr)
sys.exit(code)

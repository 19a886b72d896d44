"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``sweep`` (cold/warm Figure 3/4 design-space sweep),
``kernels`` (seeded generated loops plus the suite kernels, run
functionally) and ``service`` (closed loop of two clients against an
in-process network server).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced
round, and the spans are written to ``perfbench/out/``.  Times are
calibrated against a fixed pure-Python kernel timed next to each
measurement, so they read as seconds on the reference machine and do
not drift with the load on a shared host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "kernels", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Loop data is seeded from hash(loop name) inside the program, so a
    # fixed string-hash seed is what makes one --seed one set of inputs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    trace_path = (os.path.join(HERE, "out", f"trace-{args.workload}-"
                               f"{args.seed}.jsonl")
                  if args.trace else None)
    result = harness.run(workload, args.seconds, trace=bool(args.trace),
                         trace_path=trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

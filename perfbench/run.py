"""Benchmark entry point for the minjoin engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's seeded inputs as
data files under `.bench_work/` (untimed), then runs the workload in a
fresh interpreter against the checkout's own `src/minjoin`, so memory
and garbage-collector state never carry over from generation or from
another workload. That interpreter prints human-readable lines and, as
the last line of stdout, one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS, grid_relations, write_relations

CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="minjoin benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "minjoin" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {src / 'minjoin'}; run from a checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}"
    write_relations(grid_relations(wl.symbols, wl.size, args.seed), work / "data")
    write_relations(grid_relations(wl.symbols, wl.check_size, args.seed), work / "check")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(Path(__file__).with_name("workloads.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    try:
        # on timeout, run() kills the child and waits for it to end
        return subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

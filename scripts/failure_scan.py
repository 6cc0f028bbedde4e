#!/usr/bin/env python3
"""Failed calls of a benchmark workload, instance by instance.

    python scripts/failure_scan.py --workload heat-lqr-n1600 --seeds 5 1 2 --instances 40

For each seed, runs the workload's first N problems as perfbench/run.py
does (setup(i), prepare, operate, verify and check_reference for i < N; the
first from the seed itself, the others from seeds derived from it) and prints
one line per instance: attempted and failed calls, then each failed call's
error or failed check.  Then one line per seed gives its failed calls and
the indices of the instances whose calls all passed, so the failure share of
a benchmark run of any length can be read off it, and one line for the
whole scan gives the failure share.  No time is printed, so the outputs of
two checkouts can be diffed line for line.  The workloads come from
perfbench/workloads.py of the checkout this file sits in, krylov_dre from its
src/, and BLAS is pinned to one thread before numpy loads.
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def scan_instance(wl, i):
    """Run instance i of wl's stream; (attempted, failed, failure lines)."""
    wl.setup(i)
    wl.prepare()
    out, result = wl.operate()
    wl.verify(out, result)
    wl.check_reference(out)
    return out.attempted, out.failed, out.errors + out.wrong


def index_ranges(indices):
    """Sorted indices as 'a-b' runs, e.g. '0-3, 50'; 'none' when empty."""
    runs = []
    for i in indices:
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs) or "none"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="run seeds (default: the workload's default seed)")
    parser.add_argument("--instances", type=int, default=40, help="problems per seed")
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    total = [0, 0]
    for seed in args.seeds or [cls.default_seed]:
        wl = cls(seed)
        per_seed, passing = [0, 0], []
        for i in range(args.instances):
            attempted, failed, lines = scan_instance(wl, i)
            per_seed[0] += attempted
            per_seed[1] += failed
            if not failed:
                passing.append(i)
            print(f"seed={seed} instance={i} attempted={attempted} failed={failed}"
                  + "".join(f"\n    {line}" for line in lines), flush=True)
        print(f"seed={seed}: {per_seed[1]} of {per_seed[0]} calls failed; "
              f"all calls passed at instances {index_ranges(passing)}")
        total = [t + s for t, s in zip(total, per_seed)]
    print(f"{args.workload}: {total[1]} of {total[0]} calls failed "
          f"(share {total[1] / max(total[0], 1):.4f})")


if __name__ == "__main__":
    main()

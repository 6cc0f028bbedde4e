#!/usr/bin/env python3
"""Paired CPU-time comparison of two checkouts inside one process.

    python scripts/ab_pair.py OLD_CHECKOUT NEW_CHECKOUT --workload baseline-heat-n900 \\
        --problems 2 --rounds 5

Loads krylov_dre from each checkout's src/ side by side, as the packages
krylov_dre_old and krylov_dre_new, and each checkout's
perfbench/workloads.py bound to its own package.  For every round and
problem (setup(i) as in perfbench/run.py: instance 0 from the seed itself,
the others from seeds derived from it) both sides set the problem up and
prepare it untimed, then run the workload's operation once each, in
alternating order, timed by CPU time.  Every output is verified as in a
benchmark run.  One line per pair gives both times and their ratio; the
summary gives each side's median CPU time, its failed calls as
perfbench/run.py counts them (failed output checks included) and its failed
reference checks,
the median and spread of the per-pair ratio new/old and the pairs the new
side won, and the last line repeats it as JSON.

Both sides share the process, the machine's phase and the problem, so the
VM's run-to-run drift, which moves 25-s medians by tens of percent, cancels
in the ratio.  BLAS is pinned to one thread before numpy loads.
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SIDES = ("old", "new")


def load_package(root, name):
    """krylov_dre of the checkout at root, imported as the package name."""
    src = Path(root).resolve() / "src" / "krylov_dre"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_workloads(root, name):
    """perfbench/workloads.py of the checkout at root, bound to its package name.

    workloads.py (and the tracing module it imports) say `krylov_dre`; while
    they load, that name and its submodules are aliases of name's.
    """
    package = load_package(root, name)
    bench = Path(root).resolve() / "perfbench"
    aliases = {"krylov_dre": package}
    aliases.update({f"krylov_dre.{key[len(name) + 1:]}": module
                    for key, module in sys.modules.items() if key.startswith(name + ".")})
    saved = {key: sys.modules.get(key) for key in [*aliases, "tracing"]}
    sys.modules.update(aliases)
    sys.modules.pop("tracing", None)
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads      # dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return workloads


def run_once(wl):
    """One timed operation on wl's prepared problem: (CPU seconds, Outcome)."""
    t0 = time.process_time()
    out, result = wl.operate()
    seconds = time.process_time() - t0
    wl.verify(out, result)
    wl.check_reference(out)
    return seconds, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="checkout of the parent")
    parser.add_argument("new", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="run seed (default: the workload's)")
    parser.add_argument("--problems", type=int, default=1, help="problems per round")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    modules = {side: load_workloads(getattr(args, side), f"krylov_dre_{side}")
               for side in SIDES}
    classes = {side: modules[side].WORKLOADS[args.workload] for side in SIDES}
    seed = classes["new"].default_seed if args.seed is None else args.seed
    wls = {side: classes[side](seed) for side in SIDES}
    times = {side: [] for side in SIDES}
    tally = {side: [0, 0, 0] for side in SIDES}     # attempted, failed, failed checks
    ratios = []
    print(f"{args.workload} seed {seed}: {args.problems} problems x {args.rounds} rounds")
    for r in range(args.rounds):
        for i in range(args.problems):
            for side in SIDES:
                wls[side].setup(i)
                wls[side].prepare()
            order = SIDES if (r * args.problems + i) % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side], out = run_once(wls[side])
                times[side].append(pair[side])
                tally[side][0] += out.attempted
                tally[side][1] += out.failed
                tally[side][2] += len(out.wrong)
            ratios.append(pair["new"] / pair["old"])
            print(f"round {r} problem {i}: old {pair['old']:.4f} s, new {pair['new']:.4f} s, "
                  f"ratio {ratios[-1]:.3f}", flush=True)
    summary = {"workload": args.workload, "seed": seed, "pairs": len(ratios)}
    for side in SIDES:
        attempted, failed, wrong = tally[side]
        summary[side] = {"checkout": str(Path(getattr(args, side)).resolve()),
                         "cpu_median_s": statistics.median(times[side]),
                         "attempted": attempted, "failed": failed, "failed_checks": wrong}
        print(f"{side}: CPU median {summary[side]['cpu_median_s']:.4f} s, "
              f"{failed} of {attempted} calls failed, {wrong} failed checks")
    wins = sum(ratio < 1.0 for ratio in ratios)
    summary.update(ratio_median=statistics.median(ratios), ratio_min=min(ratios),
                   ratio_max=max(ratios), new_faster=wins)
    print(f"ratio new/old: median {summary['ratio_median']:.3f} "
          f"(min {summary['ratio_min']:.3f}, max {summary['ratio_max']:.3f}); "
          f"new faster in {wins} of {len(ratios)} pairs")
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    main()

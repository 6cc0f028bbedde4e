"""Benchmark of krylov-dre: time to a certified low-rank factor, per workload.

One run, as the metric definitions in BENCHMARK.json at the repository root
expect it::

    python3 perfbench/run.py --workload convdiff-n900 --seed 11 --seconds 25 --trace 0

sets a fresh problem up and runs the workload's operation on it, again and
again for ``--seconds`` seconds (the medians are ``setup_s`` and
``solve_s``), checks every output, and prints one JSON line with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics.  With
``--trace 1`` it sets each problem up with ``tracing.Tracer`` installed, runs
the operation on it once untraced and once traced, and prints the per-layer
metrics instead, including the tracing overhead.

The whole suite, each run in its own process::

    python3 perfbench/run.py --suite --out perfbench/baseline.json

runs every workload on 10 seeds (its default seed first) plus one
traced run, prints every metric with its unit, direction, median and
quartile spread, and writes those numbers with the machine's provenance.

The library is imported from ``src/`` of the checkout this file sits in, and
BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
SETUP_BATCH_S = 0.05   # least set-up time per problem in an untraced run
SUITE_SEEDS = 10       # seeds per workload in --suite
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import krylov_dre from this checkout's src/, never from elsewhere."""
    if not (SRC / "krylov_dre" / "__init__.py").is_file():
        sys.exit(f"krylov_dre sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import krylov_dre

    if Path(krylov_dre.__file__).resolve().parent != SRC / "krylov_dre":
        sys.exit(f"krylov_dre imported from {krylov_dre.__file__}, not {SRC}")


class Tally:
    """Operations attempted and failed over a run, and its failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = set()

    def add(self, wl, out, result):
        wl.verify(out, result)
        wl.check_reference(out)
        self.attempted += out.attempted
        self.failed += out.failed
        self.wrong += out.wrong
        self.errors.update(out.errors)


def timed_op(wl):
    start = time.perf_counter()
    out, result = wl.operate()
    return time.perf_counter() - start, out, result


def run_untraced(wl, seconds, tally):
    """Closed loop: set the next problem up, run the operation on it, repeat.

    Set-ups are spread over the run like the operations, so both medians
    sample the same stretch of machine time.  Each problem is set up again
    until SETUP_BATCH_S has passed, so that short set-ups are sampled often
    enough for a steady median.
    """
    setup_times, op_times = [], []
    start = None
    while start is None or time.perf_counter() - start < seconds:
        batch_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl.setup(len(op_times))
            setup_times.append(time.perf_counter() - t0)
            if time.perf_counter() - batch_start >= SETUP_BATCH_S:
                break
        wl.prepare()
        if start is None:
            start = time.perf_counter()
        elapsed, out, result = timed_op(wl)
        op_times.append(elapsed)
        tally.add(wl, out, result)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{wl.name} seed={wl.seed}: {len(setup_times)} set-ups, {len(op_times)} operations: "
          f"{[round(t, 3) for t in op_times]} s")
    return {"solve_s": statistics.median(op_times), "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_mb}


def run_traced(wl, seconds, tally):
    """Per problem: a traced set-up, then the operation once untraced and once traced.

    Each traced operation is paired with the untraced one next to it, and
    which of the two goes first alternates between problems, so that drift in
    machine speed cancels.  The tracing overhead is the median of the pairs'
    differences, reported with their quartile spread.  The per-layer metrics
    are those of the pass with the median traced operation time, so that they
    add up within one pass.
    """
    from tracing import Tracer

    tracer = Tracer()
    passes, diffs = [], []

    def plain():
        with tracer.excluded():
            return timed_op(wl)

    def traced():
        with tracer.installed():
            return timed_op(wl)

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.reset()
        with tracer.installed():
            t0 = time.perf_counter()
            wl.setup(len(passes))
            setup_s = time.perf_counter() - t0
        with tracer.excluded():
            wl.prepare()
        if len(passes) % 2 == 0:
            plain_s, plain_out, plain_result = plain()
            solve_s, traced_out, traced_result = traced()
        else:
            solve_s, traced_out, traced_result = traced()
            plain_s, plain_out, plain_result = plain()
        tally.add(wl, plain_out, plain_result)
        tally.add(wl, traced_out, traced_result)
        if traced_out.agreement_key() != plain_out.agreement_key():
            tally.wrong.append(f"tracing changed results: {traced_out.agreement_key()} "
                               f"!= {plain_out.agreement_key()}")
        if tracer.counts["solver.checks"] != traced_out.checks:
            tally.wrong.append(f"tracer saw {tracer.counts['solver.checks']:g} checks, "
                               f"the solve recorded {traced_out.checks}")
        passes.append(layer_metrics(tracer, traced_out, setup_s, solve_s))
        diffs.append(solve_s - plain_s)
    passes.sort(key=lambda p: p["trace.solve_s"])
    metrics = passes[(len(passes) - 1) // 2]
    q1, med, q3 = statistics.quantiles(diffs, n=4) if len(diffs) > 1 else diffs * 3
    metrics["trace.overhead_s"] = med
    metrics["trace.overhead_iqr_s"] = q3 - q1
    print(f"{wl.name} seed={wl.seed}: {len(passes)} pairs; traced - untraced operation "
          f"{[round(d, 3) for d in diffs]} s")
    return metrics


def layer_metrics(tr, out, setup_s, solve_s):
    """Per-layer metrics of one traced pass."""
    from tracing import LAYERS

    inc, calls, c = tr.inclusive, tr.calls, tr.counts
    steps = c["bdf.steps"]
    m = {
        "benchmarks.generate_s": inc["benchmarks.generate"],
        "problem.factorize_s": inc["problem.factorize"],
        **tr.work_counts(),
        "arnoldi.expand_s": inc["arnoldi.expand"],
        "arnoldi.expand_calls": calls["arnoldi.expand"],
        "solver.checks": c["solver.checks"],
        "solver.check_yield": c["solver.solves"] / c["solver.checks"] if c["solver.checks"] else 0.0,
        "solver.skipped_m": c["solver.skipped_m"],
        "solver.extract_s": inc["solver.extract"],
        "krylov_m": out.krylov_m,
        "factor_rank": out.factor_rank,
        "bdf.integrate_s": inc["bdf.integrate"],
        "bdf.integrate_calls": calls["bdf.integrate"],
        "bdf.steps": steps,
        "bdf.euler_retakes": c["bdf.euler_retakes"],
        "bdf.newton_iters": c["bdf.newton_iters"],
        "bdf.newton_per_step": c["bdf.newton_iters"] / steps if steps else 0.0,
        "baseline.eba_lyapunov_s": inc["baseline.eba_lyapunov"],
        "baseline.eba_lyapunov_calls": calls["baseline.eba_lyapunov"],
        "baseline.newton_steps": calls["baseline.newton_step"],
        "baseline.newton_per_step": (calls["baseline.newton_step"] / c["baseline.time_steps"]
                                     if c["baseline.time_steps"] else 0.0),
        "dense.lyap_k3": c["dense.lyap_k3"],
        "lqr.steady_state_failures": c["lqr.steady_state_failures"],
        "trace.setup_s": setup_s,
        "trace.solve_s": solve_s,
        "trace.unattributed_s": setup_s + solve_s - tr.top_s,
    }
    for name in ("dense.care", "dense.lyapunov", "dense.schur", "dense.trsyl",
                 "lowrank.compress"):
        m[f"{name}_s"] = inc[name]
        m[f"{name}_calls"] = calls[name]
    for name in ("dense.solve_care", "oracles.resolve_convention",
                 "oracles.reference_integrate", "oracles.exact_solution",
                 "lqr.gain_schedule", "lqr.optimal_cost", "lqr.steady_state"):
        m[f"{name}_s"] = inc[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr.self_s[layer]
    return m


def run_one(args):
    spec = load_spec()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.record_reference:
        record_reference(wl)
        return
    tally = Tally()
    if args.trace:
        values, wanted = run_traced(wl, args.seconds, tally), spec["per_layer"]
    else:
        values, wanted = run_untraced(wl, args.seconds, tally), spec["end_to_end"]
    for line in sorted(tally.errors) + tally.wrong:
        print(f"  {line}")
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        sys.exit(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


def record_reference(wl):
    """Store x0^T X(T_f) x0 of the default seed's own problem."""
    from workloads import REFERENCE_FILE

    if wl.seed != wl.default_seed:
        sys.exit("reference values are recorded at the default seed only")
    wl.setup(0)
    wl.prepare()
    out, result = wl.operate()
    wl.verify(out, result)
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    table[wl.name] = out.quad
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")


# ---------------------------------------------------------------------------
# suite mode


def child(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    return json.loads(lines[-1])


def summarize(runs, definitions):
    rows = {}
    for d in definitions:
        values = [r["metrics"][d["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows[d["name"]] = {
            "unit": d["unit"], "better": d["better"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "bound": d.get("bound"),
            "values": values,
        }
    return rows


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS)},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def run_suite(args):
    spec = load_spec()
    import_library()
    from workloads import WORKLOADS

    seconds = args.seconds or spec["run_seconds"]
    report = {"run_seconds": seconds, "provenance": provenance(), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        default = WORKLOADS[name].default_seed
        seeds = [default] + [s for s in range(1, SUITE_SEEDS + 1) if s != default][: SUITE_SEEDS - 1]
        runs = []
        for seed in seeds:
            print(f"{name} seed {seed}", flush=True)
            runs.append(child(name, seed, seconds, 0))
        print(f"{name} seed {default} traced", flush=True)
        traced = child(name, default, seconds, 1)
        entry = {
            "seeds": seeds,
            "checks": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
                        "failed": r["failed"]} for s, r in zip(seeds, runs)],
            "end_to_end": summarize(runs, spec["end_to_end"]),
            "traced": {"seed": default, "correct": traced["correct"],
                       "attempted": traced["attempted"], "failed": traced["failed"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        report["workloads"][name] = entry
        print_workload(name, entry, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


def print_workload(name, entry, spec):
    print(f"\n== {name}: seeds {entry['seeds']}")
    for c in entry["checks"]:
        print(f"   seed {c['seed']}: correct={c['correct']} "
              f"failed {c['failed']}/{c['attempted']} (fail_rate "
              f"{c['failed'] / c['attempted']:.3f})")
    print(f"   {'metric':34s} {'unit':8s} {'better':7s} {'median':>12s} {'IQR/median':>11s} bound")
    for metric, row in entry["end_to_end"].items():
        print(f"   {metric:34s} {row['unit']:8s} {row['better']:7s} {row['median']:12.6g} "
              f"{row['spread']:11.4f} {row['bound']}")
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    t = entry["traced"]
    layer = t["per_layer"]
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    print(f"   traced seed {t['seed']}: correct={t['correct']} failed {t['failed']}/{t['attempted']}; "
          f"layer self times {self_sum:.4f} s + unattributed {layer['trace.unattributed_s']:.4f} s"
          f" = traced set-up + operation {layer['trace.setup_s'] + layer['trace.solve_s']:.4f} s;"
          f" tracing overhead {layer['trace.overhead_s']:+.4f} s"
          f" (IQR {layer['trace.overhead_iqr_s']:.4f} s)")
    for metric, value in t["per_layer"].items():
        unit, better = units[metric]
        print(f"   {metric:34s} {unit:8s} {better:7s} {value:12.6g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store x0'X(Tf)x0 at the default seed in reference.json")
    ap.add_argument("--suite", action="store_true", help="run every workload, one process per run")
    ap.add_argument("--out", help="--suite: write the summary JSON here")
    args = ap.parse_args(argv)
    if args.suite:
        run_suite(args)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    run_one(args)


if __name__ == "__main__":
    main()

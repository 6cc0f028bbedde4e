#!/usr/bin/env python3
"""Decay of ||X(t) - Xinf||_F along the heat-benchmark trajectory.

Solves the n=400 heat problem on [0, 50] (parameters chosen so the
steady-state regime is actually reached within the horizon), computes the
infinite-horizon solution, and writes decay.csv with the sampled distances.
"""

import csv
from pathlib import Path

import numpy as np

from krylov_dre.benchmarks import gen_heat1d_fem
from krylov_dre.lowrank import SignedFactor, signed_diff_fro
from krylov_dre.lqr import steady_state
from krylov_dre.problem import SolverConfig
from krylov_dre.solver import solve


def main():
    problem = gen_heat1d_fem(400, seed=3, alpha=0.05, dt=7e-5, t_f=50.0)
    config = SolverConfig(p=2, h=0.025, tol=1e-8, m_max=25)
    ts = np.arange(0.0, 50.0 + 1e-9, 2.5)
    sol = solve(problem, config, sample_times=ts)
    finf = SignedFactor.from_psd(steady_state(problem, tol=1e-10))

    out = Path("runs/steady_state")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "decay.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "dist_fro"])
        for t, Z in sol.samples:
            d = signed_diff_fro(SignedFactor.from_psd(Z), finf)
            w.writerow([t, d])
            print(f"t={t:5.1f}  ||X(t)-Xinf||_F = {d:.3e}")


if __name__ == "__main__":
    main()

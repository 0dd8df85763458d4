#!/usr/bin/env python3
"""Cost of the Carleman-weighted sums at fixed shapes.

Two tables, each a median over `--repeat` timed calls after one warm-up:

* `space_time_sum`: milliseconds for one term at d = 2, N = 31, 256 steps,
  squaring included;
* `verify_cells`: milliseconds for one pass over a 256-step trajectory, and
  the weight-table entries the pass formed: at d = 1 and d = 2, N = 31, with
  2 cells (p = 0, 1 of one weight, as in the corpus) and with the p = 0 cells
  of the feasibility table (every admissible (tau, delta) cell of the default
  configuration on that grid: 6 at N = 31).

Every time is in reference units, as perfbench reports them: each case runs
after one burst of `perfbench/reference.py`'s fixed work, and its raw times
are multiplied by the host speed that burst measured, UNIT_S over the mean
unit time.

    python scripts/bench_sums.py [--repeat 5] [--seed 0] [--json FILE]

BLAS runs on one thread.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import reference  # noqa: E402

from carlstab import grid as g  # noqa: E402
from carlstab.carleman import verify_cells  # noqa: E402
from carlstab.coefficients import random_smooth_coefficients  # noqa: E402
from carlstab.config import default_config  # noqa: E402
from carlstab.inverse import random_bump, random_separable_source  # noqa: E402
from carlstab.quadrature import space_time_sum  # noqa: E402
from carlstab.solver import TimeGrid, solve_forward  # noqa: E402
from carlstab.weights import (Box, CarlemanWeight, WeightParams, admissible,  # noqa: E402
                              feasibility_cells)

STEPS = 256
# (d, N) of the verify_cells passes
PASSES = [(1, 31), (2, 31)]


def weight(grid: g.GridSpec, tau: float, delta: float) -> CarlemanWeight:
    d = grid.d
    return CarlemanWeight(grid, WeightParams(T=1.0, tau=tau, delta=delta),
                          Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def table_cells(grid: g.GridSpec) -> list:
    """The p = 0 cells of the default feasibility table on `grid`."""
    cfg = default_config()
    ca, w = cfg["carleman"], cfg["weights"]
    return [(weight(grid, tau, delta), 0) for tau, delta in
            feasibility_cells(1.0, grid.h, w["tau1"], w["eps0"], ca["feasibility_taus"],
                              ca["feasibility_deltas"])
            if admissible(tau, grid.h, 1.0, delta)[0]]


def median_ms(fn, repeat: int) -> float:
    """Median reference milliseconds of `fn`, each call scaled by the host speed
    of a reference burst run just before it."""
    fn()
    times = []
    for _ in range(repeat):
        speed = reference.burst()
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * speed)
    return 1e3 * statistics.median(times)


def trajectory(d: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    src = random_separable_source(rng, d, 1.0)
    y0 = g.sample(g.primal(grid), random_bump(rng, d))
    return grid, solve_forward(grid, coeffs, src, TimeGrid(1.0, STEPS), y_ini=y0), src, coeffs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="also write the tables to this file")
    args = ap.parse_args()
    out = {"space_time_sum_ms": None, "verify_cells": []}

    grid = g.GridSpec(2, 31)
    tg = TimeGrid(1.0, STEPS)
    w = weight(grid, 2.5, 0.5)
    phi = w.phi(g.primal(grid).physical)
    s = w.s(tg.times)
    block = np.random.default_rng(args.seed).normal(size=(tg.steps + 1, phi.size))
    ms = median_ms(lambda: space_time_sum(block * block, phi, s, 1.0, grid.h ** 2, tg.trap),
                   args.repeat)
    out["space_time_sum_ms"] = ms
    print(f"space_time_sum d=2 N=31 steps={STEPS} {ms:8.3f} ms", flush=True)

    for d, n in PASSES:
        grid, traj, src, coeffs = trajectory(d, n, args.seed)
        w = weight(grid, 2.5, 0.5)
        for label, cells in (("corpus", [(w, 0), (w, 1)]), ("feasibility", table_cells(grid))):
            work = {}
            verify_cells(traj, src, coeffs, cells, work)
            ms = median_ms(lambda: verify_cells(traj, src, coeffs, cells), args.repeat)
            out["verify_cells"].append({"d": d, "N": n, "steps": STEPS, "shape": label,
                                        "cells": len(cells), "ms": ms,
                                        "weighted_points": work["weighted_points"]})
            print(f"verify_cells d={d} N={n} steps={STEPS} {label:>11} cells={len(cells)} "
                  f"{ms:8.3f} ms  {work['weighted_points']:>9} table entries", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

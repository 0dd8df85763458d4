#!/usr/bin/env python3
"""Cost of the Carleman-weighted sums at fixed shapes.

Two tables, each a median over `--repeat` timed calls after one warm-up:

* `space_time_sum`: milliseconds for one term at d = 2, N = 31, 256 steps,
  squaring included;
* `verify_cells`: milliseconds for one pass over a d = 2, N = 31, 256-step
  trajectory with 2 cells (p = 0, 1 of one weight, as in the corpus) and with
  5 cells (p = 0 at five (tau, delta) pairs, as in the feasibility table).

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from carlstab import grid as g  # noqa: E402
from carlstab.carleman import verify_cells  # noqa: E402
from carlstab.coefficients import random_smooth_coefficients  # noqa: E402
from carlstab.inverse import random_bump, random_separable_source  # noqa: E402
from carlstab.quadrature import space_time_sum  # noqa: E402
from carlstab.solver import TimeGrid, solve_forward  # noqa: E402
from carlstab.weights import Box, CarlemanWeight, WeightParams  # noqa: E402

# (tau, delta) of the cells; the first serves the 2-cell pass at p = 0 and 1
CELLS = [(2.5, 0.5), (2.5, 0.25), (4.0, 0.5), (4.0, 0.25), (8.0, 0.5)]


def weight(grid: g.GridSpec, tau: float, delta: float) -> CarlemanWeight:
    d = grid.d
    return CarlemanWeight(grid, WeightParams(T=1.0, tau=tau, delta=delta),
                          Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def median_ms(fn, repeat: int) -> float:
    fn()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="also write the tables to this file")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    out = {"space_time_sum_ms": None, "verify_cells_ms": {}}

    grid = g.GridSpec(2, 31)
    tg = TimeGrid(1.0, 256)
    w = weight(grid, *CELLS[0])
    phi = w.phi(g.primal(grid).physical)
    s = w.s(tg.times)
    block = rng.normal(size=(tg.steps + 1, phi.size))
    ms = median_ms(lambda: space_time_sum(block * block, phi, s, 1.0, grid.h ** 2, tg.trap),
                   args.repeat)
    out["space_time_sum_ms"] = ms
    print(f"space_time_sum d=2 N=31 steps=256 {ms:8.3f} ms", flush=True)

    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    src = random_separable_source(rng, 2, 1.0)
    y0 = g.sample(g.primal(grid), random_bump(rng, 2))
    traj = solve_forward(grid, coeffs, src, tg, y_ini=y0)
    for label, cells in (("2", [(w, 0), (w, 1)]),
                         ("5", [(weight(grid, *c), 0) for c in CELLS])):
        ms = median_ms(lambda: verify_cells(traj, src, coeffs, cells), args.repeat)
        out["verify_cells_ms"][label] = ms
        print(f"verify_cells d=2 N=31 steps=256 cells={label} {ms:8.3f} ms", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-step cost of the implicit march at fixed (d, N, steps).

Each case marches `solver.solve_forward` with a random separable source,
from a random-normal initial state or from a smooth bump (`inverse.random_bump`,
the draw of the carleman corpus).  Rough data keeps stiff modes that the
trapezoidal rule flips every step, which the extrapolated start of a lagged
step at d >= 2 must not chase; a bump is what the corpora march.  The
time-dependent cases draw coefficients with advection (`b_amp=0.3`); the
time-independent case is the small repeated operator of the stability corpus
and the reconstruction.  For each case the
script prints milliseconds per step (assembly and factorisations included,
median over `--repeat` marches), and the factorisations, refinement sweeps
and solves per step of one march, which repeat exactly for a given seed: a
solve is one sparse LU solve at d >= 2 (counted on one more march, through a
counting `splu`) and one tridiagonal solve at d = 1, a dgtsv elimination or,
for time-independent coefficients, a dgttrs solve with the one dgttrf factor
the stepper holds.  It also prints two
kernel costs of the same stepper, medians over `--repeat`: microseconds per
frame for a new `Stepper` to build its frame data and for `Stepper._frame` to
hand out L and R at every frame of the march in order (the construction,
which builds the separable basis, is timed with the frames), and
microseconds per product R_m y of one state.  A second table times the
d = 1 march kernel: microseconds per step of `Stepper.march` against the loop
of `Stepper.step` it replaces, on the same stepper data and forcing, medians
over `--repeat`, and the march's factorisations; the two must give the same
frames bit for bit.  (At d >= 2 `Stepper.march` is that loop.)  For
time-independent coefficients it also times the march with the stepper's
dgttrf factor withheld, so that every step eliminates the same bands by one
dgtsv, as a time-dependent step does: the kernel gain of the held factor, with
the same frames bit for bit.  A third table times one forward application
of the reconstruction map: milliseconds for `inverse._normal_equations`,
which marches the forcing block s_m I of the normal equations through
`Stepper.march`, against the same accumulation over a loop of `Stepper.step`
on the whole block, medians over `--repeat`, with time-independent
coefficients as the reconstruct suite draws them; the two must give the same
G = F^T F and F^T d bit for bit.

Every time is in reference units, as perfbench reports them: each case runs
after one burst of `perfbench/reference.py`'s fixed work, and its raw times are
multiplied by the host speed that burst measured, UNIT_S over the mean unit
time.  So rows stay comparable while the host's speed drifts between runs.

    python scripts/bench_steps.py [--repeat 3] [--seed 0] [--json FILE]

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
import scipy.sparse.linalg as spla  # noqa: E402

from carlstab import grid as g  # noqa: E402
from carlstab.coefficients import random_smooth_coefficients  # noqa: E402
from carlstab.inverse import (SineTimeProfile, _normal_equations, observe,  # noqa: E402
                              random_bump, random_separable_source)
from carlstab.solver import Stepper, TimeGrid, solve_forward  # noqa: E402
from carlstab.weights import Box  # noqa: E402

# (d, N, steps, time-dependent, initial state)
CASES = [(1, 15, 256, True, "normal"), (1, 31, 256, True, "normal"),
         (1, 63, 256, True, "normal"), (2, 31, 256, True, "normal"),
         (2, 63, 256, True, "normal"), (3, 15, 64, True, "normal"),
         (2, 15, 256, True, "bump"), (2, 31, 256, True, "bump"),
         (2, 63, 256, True, "bump"), (1, 15, 4096, False, "normal")]
PRODUCTS = 2000     # products timed per repeat
# (N, time-dependent) of the d = 1 march kernel against the step loop, 1024 steps
MARCH_CASES = [(15, False), (31, False), (63, False), (15, True), (31, True), (63, True)]
MARCH_STEPS = 1024
# (d, N) of the reconstruction's normal equations, 256 steps
NORMAL_CASES = [(1, 15), (1, 31)]
NORMAL_STEPS = 256


def draw(d: int, n: int, time_dependent: bool, seed: int):
    rng = np.random.default_rng(seed)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=time_dependent,
                                        b_amp=0.3 if time_dependent else 0.0)
    return rng, g.GridSpec(d, n), coeffs


def march(d: int, n: int, steps: int, time_dependent: bool, seed: int,
          init: str = "normal") -> tuple[float, dict]:
    rng, grid, coeffs = draw(d, n, time_dependent, seed)
    src = random_separable_source(rng, d, 1.0)
    pm = g.primal(grid)
    y0 = g.sample(pm, random_bump(rng, d)) if init == "bump" else \
        g.MeshFunction(pm, rng.normal(size=pm.size))
    start = time.perf_counter()
    traj = solve_forward(grid, coeffs, src, TimeGrid(1.0, steps), y_ini=y0)
    return time.perf_counter() - start, traj.diagnostics


class _CountedLU:
    """A sparse LU factor that counts its solves in a shared list."""

    def __init__(self, lu, count: list):
        self.lu, self.count = lu, count

    def solve(self, rhs):
        self.count[0] += 1
        return self.lu.solve(rhs)


def solves(d: int, n: int, steps: int, time_dependent: bool, seed: int,
           init: str = "normal") -> int:
    """Linear solves of one `march`: sparse LU solves at d >= 2, counted through
    a wrapped `splu`, and one tridiagonal solve per step at d = 1."""
    if d == 1:
        return march(d, n, steps, time_dependent, seed, init)[1]["linear_solves"]
    count, splu = [0], spla.splu
    spla.splu = lambda A, **kw: _CountedLU(splu(A, **kw), count)
    try:
        march(d, n, steps, time_dependent, seed, init)
    finally:
        spla.splu = splu
    return count[0]


def kernels(d: int, n: int, steps: int, time_dependent: bool, seed: int) -> tuple[float, float]:
    """Seconds per frame to build a `Stepper` and have `Stepper._frame` hand
    out every frame of a whole march, and seconds per product R_m y of one state."""
    rng, grid, coeffs = draw(d, n, time_dependent, seed)
    start = time.perf_counter()
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, steps))
    for m in range(steps + 1):
        stepper._frame(m)
    per_frame = (time.perf_counter() - start) / (steps + 1)
    R, y = stepper._frame(steps)[1], rng.normal(size=g.primal(grid).size)
    start = time.perf_counter()
    for _ in range(PRODUCTS):
        stepper._product(R, y)
    return per_frame, (time.perf_counter() - start) / PRODUCTS


def march_vs_steps(n: int, steps: int, time_dependent: bool,
                   seed: int) -> tuple[float, float, float | None, int]:
    """Seconds per step of `Stepper.march` and of the `Stepper.step` loop at
    d = 1, from a random-normal state with random-normal forcing; each on a
    fresh stepper of the same data, so both form their frames.  Then, for
    time-independent coefficients, seconds per step of the march on a fresh
    stepper whose dgttrf factor is withheld, so each step is one dgtsv on the
    same bands (None for time-dependent ones), and the march's factorisations."""
    rng, grid, coeffs = draw(1, n, time_dependent, seed)
    tg = TimeGrid(1.0, steps)
    y0, F = rng.normal(size=n), rng.normal(size=(steps, n))
    stepper = Stepper(grid, coeffs, tg)
    start = time.perf_counter()
    frames = stepper.march(y0, F)[0]
    per_march = (time.perf_counter() - start) / steps
    factorisations = stepper.factorisations
    per_dgtsv = None
    if not time_dependent:
        stepper = Stepper(grid, coeffs, tg)
        stepper._lu = (0, None)   # the stepper's mark of a factor it cannot use
        start = time.perf_counter()
        eliminated = stepper.march(y0, F)[0]
        per_dgtsv = (time.perf_counter() - start) / steps
        if stepper.factorisations != steps:
            raise AssertionError(f"the withheld factor was used at N={n}")
        if eliminated.tobytes() != frames.tobytes():
            raise AssertionError(f"held factor and dgtsv steps differ at N={n}")
    stepper = Stepper(grid, coeffs, tg)
    start = time.perf_counter()
    y = [y0]
    for m in range(steps):
        y.append(stepper.step(m, y[-1], F[m])[0])
    per_step = (time.perf_counter() - start) / steps
    if np.array(y).tobytes() != frames.tobytes():
        raise AssertionError(f"march and step loop differ at N={n}")
    return per_march, per_step, per_dgtsv, factorisations


def step_loop_normal_equations(grid, coeffs, r, time_grid, observation):
    """G and F^T d of `_normal_equations` by one `Stepper.step` per frame on the
    whole forcing block, each frame's share added in the same order."""
    size = g.primal(grid).size
    mask, cell = observation.mask, grid.h ** grid.d
    frame_w = time_grid.trap * cell
    r_vals = np.asarray(r(time_grid.times), dtype=np.float64)
    stepper = Stepper(grid, coeffs, time_grid)
    eye = np.eye(size)
    Y, gram, rhs = np.zeros((size, size)), np.zeros((size, size)), np.zeros(size)
    for m in range(time_grid.steps):
        Y = stepper.step(m, Y, stepper.forcing(r_vals[m], r_vals[m + 1]) * eye)[0]
        local = Y[mask]
        gram += frame_w[m + 1] * (local.T @ local)
        rhs += frame_w[m + 1] * (local.T @ observation.local_y[m + 1])
        if m + 1 == time_grid.mid:
            gram += cell * (Y.T @ Y)
            rhs += cell * (Y.T @ observation.snapshot.values)
    return gram, rhs


def normal_vs_steps(d: int, n: int, steps: int, seed: int) -> tuple[float, float]:
    """Seconds of `_normal_equations` and of its `step`-loop oracle on the
    observation of one forward run, time-independent coefficients."""
    rng, grid, coeffs = draw(d, n, False, seed)
    tg = TimeGrid(1.0, steps)
    traj = solve_forward(grid, coeffs, random_separable_source(rng, d, 1.0), tg)
    obs, r = observe(traj, Box.cube(0.2, 0.8, d)), SineTimeProfile(1.0, 0.5, 0.2, 1.0)
    start = time.perf_counter()
    gram, rhs = _normal_equations(grid, coeffs, r, tg, obs)[:2]
    per_march = time.perf_counter() - start
    start = time.perf_counter()
    want = step_loop_normal_equations(grid, coeffs, r, tg, obs)
    per_loop = time.perf_counter() - start
    if gram.tobytes() != want[0].tobytes() or rhs.tobytes() != want[1].tobytes():
        raise AssertionError(f"normal equations by march and step loop differ at N={n}")
    return per_march, per_loop


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="also write the table to this file")
    args = ap.parse_args()
    rows = []
    print(f"{'d':>2} {'N':>3} {'steps':>5} {'coeffs':>16} {'init':>6} {'ms/step':>8} "
          f"{'factorisations':>14} {'sweeps':>6} {'sweeps/step':>11} {'solves/step':>11} "
          f"{'us/frame':>9} {'us/product':>10}")
    for d, n, steps, time_dependent, init in CASES:
        times, frames, products, diag = [], [], [], None
        for _ in range(args.repeat):
            speed = reference.burst()
            elapsed, diag = march(d, n, steps, time_dependent, args.seed, init)
            times.append(elapsed * speed)
            per_frame, per_product = kernels(d, n, steps, time_dependent, args.seed)
            frames.append(per_frame * speed)
            products.append(per_product * speed)
        ms = 1e3 * statistics.median(times) / steps
        row = {"d": d, "N": n, "steps": steps, "time_dependent": time_dependent,
               "init": init, "ms_per_step": ms, "factorisations": diag["factorisations"],
               "sweeps": diag["sweeps"],
               "solves": solves(d, n, steps, time_dependent, args.seed, init),
               "us_per_frame": 1e6 * statistics.median(frames),
               "us_per_product": 1e6 * statistics.median(products)}
        rows.append(row)
        kind = "time-dependent" if time_dependent else "time-independent"
        print(f"{d:>2} {n:>3} {steps:>5} {kind:>16} {init:>6} {ms:>8.3f} "
              f"{row['factorisations']:>14} "
              f"{row['sweeps']:>6} {row['sweeps'] / steps:>11.2f} {row['solves'] / steps:>11.2f} "
              f"{row['us_per_frame']:>9.2f} {row['us_per_product']:>10.2f}", flush=True)
    print(f"\n{'d':>2} {'N':>3} {'steps':>5} {'coeffs':>16} {'us/step march':>13} "
          f"{'us/step loop':>12} {'loop/march':>10} {'factorisations':>14} "
          f"{'us/step dgtsv':>13} {'dgtsv/march':>11}")
    kernel_rows = []
    for n, time_dependent in MARCH_CASES:
        marches, loops, eliminations = [], [], []
        for _ in range(args.repeat):
            speed = reference.burst()
            per_march, per_step, per_dgtsv, factorisations = march_vs_steps(
                n, MARCH_STEPS, time_dependent, args.seed)
            marches.append(per_march * speed)
            loops.append(per_step * speed)
            if per_dgtsv is not None:
                eliminations.append(per_dgtsv * speed)
        row = {"d": 1, "N": n, "steps": MARCH_STEPS, "time_dependent": time_dependent,
               "us_per_step_march": 1e6 * statistics.median(marches),
               "us_per_step_loop": 1e6 * statistics.median(loops),
               "factorisations": factorisations,
               "us_per_step_dgtsv": 1e6 * statistics.median(eliminations) if eliminations else None}
        kernel_rows.append(row)
        kind = "time-dependent" if time_dependent else "time-independent"
        per_dgtsv = row["us_per_step_dgtsv"]
        dgtsv = ("-", "-") if per_dgtsv is None else \
            (f"{per_dgtsv:.2f}", f"{per_dgtsv / row['us_per_step_march']:.2f}")
        print(f"{1:>2} {n:>3} {MARCH_STEPS:>5} {kind:>16} {row['us_per_step_march']:>13.2f} "
              f"{row['us_per_step_loop']:>12.2f} "
              f"{row['us_per_step_loop'] / row['us_per_step_march']:>10.2f} "
              f"{factorisations:>14} {dgtsv[0]:>13} {dgtsv[1]:>11}", flush=True)
    print(f"\n{'d':>2} {'N':>3} {'steps':>5} {'ms march':>9} {'ms loop':>8} {'loop/march':>10}")
    normal_rows = []
    for d, n in NORMAL_CASES:
        marches, loops = [], []
        for _ in range(args.repeat):
            speed = reference.burst()
            per_march, per_loop = normal_vs_steps(d, n, NORMAL_STEPS, args.seed)
            marches.append(per_march * speed)
            loops.append(per_loop * speed)
        row = {"d": d, "N": n, "steps": NORMAL_STEPS,
               "ms_march": 1e3 * statistics.median(marches),
               "ms_loop": 1e3 * statistics.median(loops)}
        normal_rows.append(row)
        print(f"{d:>2} {n:>3} {NORMAL_STEPS:>5} {row['ms_march']:>9.3f} {row['ms_loop']:>8.3f} "
              f"{row['ms_loop'] / row['ms_march']:>10.2f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps({"steps": rows, "march": kernel_rows,
                                               "normal_equations": normal_rows},
                                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Evaluation of the weighted energy inequality on computed trajectories.

For a trajectory of the semi-discrete system and an exponent p in {0, 1},
the left-hand side collects

    I_p = int_Q (s)^(p-1) |dt y|^2 e^(2 s phi)
        + sum_{i,j} int_{Q*_ij} (s)^(p-1) gamma_i gamma_j e^(2 s phi) |D_ij y|^2
    J_p = sum_i int_{Q*_i} (s)^(p+1) e^(2 s phi) |D_i y|^2
        + sum_i int_Q     (s)^(p+1) e^(2 s phi) |A_i D_i y|^2
        +       int_Q     (s)^(p+3) e^(2 s phi) |y|^2

with s = tau * theta(t), and the right-hand side

    rhs_source    = int_Q (s)^p e^(2 s phi) |g|^2
    rhs_local     = int_{(0,T) x omega} (s)^(p+3) e^(2 s phi) |y|^2
    rhs_endpoint  = h^-2 int_W (s(0))^p (|y(0)|^2 + |y(T)|^2) e^(2 s(0) phi).

Mesh placement follows the displayed norms: D_ij y sits on the iterated dual
mesh for i != j and on the primal mesh for i == j (the second difference of a
Dirichlet-closed field is defined exactly there); D_i y on dual_star(i); all
zero-order quantities on the primal mesh.  The time derivative of y is
measured by second-order differencing of the frames, matching the accuracy
of the trapezoidal solver.  Time integrals use the composite trapezoid on
the solver's own frames.

Every space-time term is one call of the block kernel `space_time_sum` on
the squared (frames x points) block of its field: the exponential weight is
formed in log space a chunk of whole frames at a time, and points below the
representable range are skipped with a recorded mass bound.  The gamma factor
of the mixed block multiplies the difference block before it is squared.  The
endpoint terms use the one-frame `weighted_square_sum`; `log_endpoint_term` is
the exact log the decay study reads where the endpoint value underflows.

`verify_cells` evaluates one trajectory under a list of (weight, p) cells in
one pass: each block (the dt frames, D_j y, the gamma-scaled D_i D_j y for
i <= j, A_j D_j y, |y|^2 and the source frames) is built and squared once,
summed under every cell, and dropped once nothing left to build derives from
it, so no set of blocks is held per run; phi and s are formed once per
(weight, mesh).  The corpus reads p = 0 and 1 of one weight from one pass,
and the feasibility table (`feasibility_rows`) every admissible cell of a
grid from one pass per run.

The empirical constant of the inequality is the max ratio over a declared
randomized corpus; no reference value exists, so the tests assert finiteness
and stability under grid refinement instead of a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import operators as ops
from .coefficients import CoefficientFields, sample_frames
from .errors import GridError, SolverError
from .quadrature import (ZERO_TERM, Term, log_weighted_square_sum, logsumexp, space_time_sum,
                         weighted_square_sum)
from .solver import Stepper, Trajectory
from .weights import CarlemanWeight, omega_mask

LHS_KEYS = ("I_p", "J_p_gradient", "J_p_avg_gradient", "J_p_zeroth")
RHS_KEYS = ("rhs_source", "rhs_local_omega", "rhs_time_endpoints")
# the scheme residual check: its tolerance, and how many steps it samples
SCHEME_RESIDUAL_TOL = 1e-6
SCHEME_RESIDUAL_CHECKS = 48


@dataclass
class CarlemanReport:
    """Every term of the inequality on one run, with the empirical ratio."""

    p: int
    admissible: bool
    terms: dict
    lhs: float
    rhs: float
    ratio: float | None
    skipped_bound: float

    def columns(self) -> dict:
        """The CSV columns I_p, J_p, rhs_source, rhs_local, rhs_endpoint, ratio."""
        terms = self.terms
        return {"I_p": terms["I_p"].value,
                "J_p": sum(terms[k].value for k in LHS_KEYS[1:]),
                "rhs_source": terms["rhs_source"].value,
                "rhs_local": terms["rhs_local_omega"].value,
                "rhs_endpoint": terms["rhs_time_endpoints"].value,
                "ratio": self.ratio}

    @property
    def skipped_rel(self) -> float:
        """skipped_bound relative to lhs + rhs (inf if nothing else is left)."""
        if not self.skipped_bound:
            return 0.0
        total = self.lhs + self.rhs
        return self.skipped_bound / total if total > 0.0 else np.inf


def _cell_terms(traj: Trajectory, cells: list, coeffs: CoefficientFields,
                source) -> list[dict]:
    """Every term of every (weight, p) cell on one trajectory, one dict per cell.

    Each block is built and squared once, summed under every cell, then
    dropped; phi and s are formed once per (weight, mesh).  D_j y feeds
    D_i D_j y for every i <= j, A_j D_j y and J_p; |y|^2 feeds J_p_zeroth and
    the omega term.  The mixed terms are added in (i, j) order.
    """
    if not cells:
        return []
    grid, tg = traj.grid, traj.time_grid
    pm = g.primal(grid)
    X = pm.physical
    cell = grid.h ** grid.d
    s_of = {weight: weight.s(tg.times) for weight, _ in cells}
    phis = {}

    def weighted(sq, points, key, weight, power) -> Term:
        """The squared block `sq` on `points` summed under one weight; `key`
        names the points for the phi cache."""
        if (weight, key) not in phis:
            phis[weight, key] = weight.phi(points)
        return space_time_sum(sq, phis[weight, key], s_of[weight], power, cell, tg.trap)

    def summed(sq, points, key, offset) -> list:
        """`weighted` under every cell, at power p + offset."""
        return [weighted(sq, points, key, weight, p + offset) for weight, p in cells]

    dt = traj.dt_frames()
    i_time = summed(np.multiply(dt, dt, out=dt), X, pm, -1)
    del dt
    mixed, grads, avgs = {}, [], []
    for j in range(grid.d):
        dblock, dmesh = ops.diff_block(traj.values, pm, j)
        for i in range(j + 1):
            block, mesh_ij = ops.diff_block(dblock, dmesh, i)
            Xij = mesh_ij.physical
            gfac = sample_frames(coeffs.gamma[i], tg.times, Xij)
            gfac *= gfac if i == j else sample_frames(coeffs.gamma[j], tg.times, Xij)
            block *= np.sqrt(gfac, out=gfac)
            del gfac
            mixed[i, j] = summed(np.multiply(block, block, out=block), Xij, mesh_ij, -1)
            del block
        ablock, amesh = ops.avg_block(dblock, dmesh, j)
        avgs.append(summed(np.multiply(ablock, ablock, out=ablock), amesh.physical,
                           amesh, 1))
        del ablock
        grads.append(summed(np.multiply(dblock, dblock, out=dblock), dmesh.physical,
                            dmesh, 1))
        del dblock
    sq_y = traj.values * traj.values
    zeroth = summed(sq_y, X, pm, 3)
    local = {}      # omega -> (|y|^2 on its points, the points)
    for weight, _ in cells:
        if weight.omega not in local:
            mask = omega_mask(weight.omega, X)
            local[weight.omega] = (sq_y[:, mask], X[mask])
    rhs_local = [weighted(*local[weight.omega], weight.omega, weight, p + 3)
                 for weight, p in cells]
    del sq_y, local
    frames = sample_frames(source, tg.times, X)
    rhs_source = summed(np.multiply(frames, frames, out=frames), X, pm, 0)
    terms = []
    for k, (weight, p) in enumerate(cells):
        i_mixed = ZERO_TERM
        for i in range(grid.d):
            for j in range(i, grid.d):
                term = mixed[i, j][k]
                if i != j:  # ordered pairs (i,j) and (j,i) both appear in the sum
                    term = term + term
                i_mixed = i_mixed + term
        terms.append({
            "I_p_time": i_time[k],
            "I_p_mixed": i_mixed,
            "I_p": i_time[k] + i_mixed,
            "J_p_gradient": sum((grad[k] for grad in grads), ZERO_TERM),
            "J_p_avg_gradient": sum((avg[k] for avg in avgs), ZERO_TERM),
            "J_p_zeroth": zeroth[k],
            "rhs_source": rhs_source[k],
            "rhs_local_omega": rhs_local[k],
            "rhs_time_endpoints": endpoint_term(traj, weight, p),
        })
    return terms


def _endpoint_sums(traj: Trajectory, weight: CarlemanWeight, p: int, frame_sum) -> list:
    """frame_sum(y, log weight, cell) of y(0) and y(T) under the endpoint weight."""
    grid = traj.grid
    logw0 = weight.log_weight(0.0, weight.phi(g.primal(grid).physical), p)
    endpoint_cell = grid.h ** grid.d / (grid.h ** 2)
    return [frame_sum(traj.values[k], logw0, endpoint_cell) for k in (0, -1)]


def endpoint_term(traj: Trajectory, weight: CarlemanWeight, p: int) -> Term:
    """h^-2 int_W (s(0))^p (|y(0)|^2 + |y(T)|^2) e^(2 s(0) phi)."""
    return sum(_endpoint_sums(traj, weight, p, weighted_square_sum), ZERO_TERM)


def log_endpoint_term(traj: Trajectory, weight: CarlemanWeight, p: int) -> float:
    """log of the endpoint term's value, finite where that value underflows to 0."""
    return float(logsumexp(_endpoint_sums(traj, weight, p, log_weighted_square_sum)))


def check_scheme_residual(traj: Trajectory, coeffs: CoefficientFields, source) -> float:
    """Verify the frames satisfy the time-stepping relation for this source.

    Guards against mismatched (trajectory, source, coefficients) triples; the
    residual of the implicit update is solver-tolerance small for a matching
    triple and O(1) otherwise.
    """
    tg = traj.time_grid
    X = g.primal(traj.grid).physical
    checked = np.arange(0, tg.steps, max(1, tg.steps // SCHEME_RESIDUAL_CHECKS))
    g_before, g_after = (sample_frames(source, tg.times[k], X) for k in (checked, checked + 1))
    stepper = Stepper(traj.grid, coeffs, tg)
    worst = 0.0
    for m, g0, g1 in zip(checked.tolist(), g_before, g_after):
        y0, y1 = traj.values[m], traj.values[m + 1]
        res = stepper.residual(m, y0, y1, stepper.forcing(g0, g1))
        scale = float(np.linalg.norm(y0) + np.linalg.norm(y1) + tg.dt * np.linalg.norm(g1)) + 1e-300
        worst = max(worst, float(np.linalg.norm(res)) / scale)
    if worst > SCHEME_RESIDUAL_TOL:
        raise SolverError(f"trajectory/source mismatch: scheme residual {worst:.3e} "
                          f"exceeds {SCHEME_RESIDUAL_TOL:.1e}")
    return worst


def _report(weight: CarlemanWeight, p: int, terms: dict) -> CarlemanReport:
    for key, term in terms.items():
        if term.value < 0:
            raise SolverError(f"negative quadratic term {key}: {term.value}")
    lhs = sum(terms[k].value for k in LHS_KEYS)
    rhs = sum(terms[k].value for k in RHS_KEYS)
    admissible, _ = weight.admissibility()
    ratio = (lhs / rhs) if (admissible and rhs > 0.0) else None
    return CarlemanReport(
        p=p, admissible=admissible, terms=terms, lhs=lhs, rhs=rhs, ratio=ratio,
        skipped_bound=sum(t.skipped_bound for t in terms.values()),
    )


def verify_cells(traj: Trajectory, source, coeffs: CoefficientFields,
                 cells) -> list[CarlemanReport]:
    """Evaluate both sides on one run under every (weight, p) cell of `cells`
    and report each cell's empirical ratio, in the order of `cells`.

    One pass over the run: each block is built once and summed for every
    cell.  The ratio is recorded only for admissible parameters.  The run is
    taken as given: `check_scheme_residual` is the guard against a mismatched
    (trajectory, source, coefficients) triple.
    """
    cells = list(cells)
    for _, p in cells:
        if p not in (0, 1):
            raise GridError(f"p must be 0 or 1, got {p}")
    return [_report(weight, p, terms) for (weight, p), terms
            in zip(cells, _cell_terms(traj, cells, coeffs, source))]


def feasibility_rows(weights: list, runs) -> list[dict]:
    """The cells of the feasibility table at p = 0, one per weight: the run
    with the largest ratio.

    `runs` holds (trajectory, source, coefficients) triples on the weights'
    grid; each run is evaluated once over every admissible cell, and the
    first run wins a tie.  A cell outside the admissible window, or one where
    no run has a ratio, keeps its term columns empty.  Columns follow the CSV
    schema: h, tau, delta, lambda, p, I_p, J_p, rhs_source, rhs_local,
    rhs_endpoint, ratio, admissible; `skipped_rel`, outside it, is the largest
    `CarlemanReport.skipped_rel` over the cell's runs.
    """
    rows = []
    for weight in weights:
        prm = weight.params
        rows.append({"h": weight.grid.h, "tau": prm.tau, "delta": prm.delta,
                     "lambda": prm.lam, "p": 0, "I_p": "", "J_p": "", "rhs_source": "",
                     "rhs_local": "", "rhs_endpoint": "", "ratio": "",
                     "admissible": weight.admissibility()[0], "skipped_rel": 0.0})
    live = [k for k, row in enumerate(rows) if row["admissible"]]
    best = {}
    for traj, source, coeffs in runs:
        reps = verify_cells(traj, source, coeffs, [(weights[k], 0) for k in live])
        for k, rep in zip(live, reps):
            rows[k]["skipped_rel"] = max(rows[k]["skipped_rel"], rep.skipped_rel)
            if rep.ratio is not None and (k not in best or rep.ratio > best[k].ratio):
                best[k] = rep
    for k, rep in best.items():
        rows[k].update(rep.columns())
    return rows

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

`verify_cells` evaluates one trajectory under a list of (weight, p) cells in
one pass, walking the frames in chunks of about CHUNK_POINTS table entries.
Per chunk each mesh gets one scale-free table exp(2 s (phi - max phi)) over
the distinct weights (`quadrature.scaled_table`), and each block (the dt
frames, D_j y, the gamma-scaled D_i D_j y for i <= j, A_j D_j y, |y|^2, its
omega part and the source frames) is built from the chunk's frames, squared,
and contracted with its mesh's table to per-weight frame sums.  A cell's
exponent only moves the frame log scales, so one table serves every block on
its mesh, every cell and both p; the endpoint terms read the table's first
frame, s(0).  Nothing underflows: a term is a (log scale, mantissa) pair and
the ratio is taken in log space.  The corpus reads p = 0 and 1 of one weight
from one pass, and the feasibility table (`feasibility_rows`) every
admissible cell of a grid from one pass per run.

The empirical constant of the inequality is the max ratio over a declared
randomized corpus; no reference value exists, so the tests assert finiteness
and stability under grid refinement instead of a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import operators as ops
from . import quadrature
from .coefficients import CoefficientFields, frame_sampler
from .errors import GridError, SolverError
from .quadrature import (ZERO_TERM, Term, frame_scales, frame_terms, row_sums, scaled_table,
                         space_time_sum)
from .solver import Trajectory, central_time_derivative
from .weights import CarlemanWeight, omega_mask

LHS_KEYS = ("I_p", "J_p_gradient", "J_p_avg_gradient", "J_p_zeroth")
RHS_KEYS = ("rhs_source", "rhs_local_omega", "rhs_time_endpoints")


@dataclass
class CarlemanReport:
    """Every term of the inequality on one run, both sides and their ratio."""

    p: int
    admissible: bool
    terms: dict
    lhs: Term
    rhs: Term
    ratio: float | None

    def columns(self) -> dict:
        """The CSV columns I_p, J_p, rhs_source, rhs_local, rhs_endpoint, ratio."""
        terms = self.terms
        return {"I_p": terms["I_p"].value,
                "J_p": sum((terms[k] for k in LHS_KEYS[1:]), ZERO_TERM).value,
                "rhs_source": terms["rhs_source"].value,
                "rhs_local": terms["rhs_local_omega"].value,
                "rhs_endpoint": terms["rhs_time_endpoints"].value,
                "ratio": self.ratio}


def _dt_chunk(values: np.ndarray, dt: float, a: int, b: int) -> np.ndarray:
    """Frames a..b-1 of `central_time_derivative(values, dt)`, bit for bit, from
    the frames one beyond the chunk's edges (three at least)."""
    n = values.shape[0]
    lo, hi = max(min(a - 1, n - 3), 0), min(max(b + 1, 3), n)
    return central_time_derivative(values[lo:hi], dt)[a - lo:b - lo]


def _cell_terms(traj: Trajectory, cells: list, coeffs: CoefficientFields,
                source) -> tuple[list[dict], int]:
    """Every term of every (weight, p) cell on one trajectory, one dict per cell,
    and the number of table entries formed.  D_j y feeds D_i D_j y for every
    i <= j, A_j D_j y and J_p; |y|^2 feeds J_p_zeroth and the omega term.  The
    mixed terms are added in (i, j) order."""
    if not cells:
        return [], 0
    grid, tg = traj.grid, traj.time_grid
    pm = g.primal(grid)
    X = pm.physical
    weights = list(dict.fromkeys(weight for weight, _ in cells))
    rows_of = [weights.index(weight) for weight, _ in cells]
    s = np.stack([weight.s(tg.times) for weight in weights])
    phis, sums = {}, {}   # mesh -> (phi - max phi, max phi); block -> (mesh, offset, sums)
    masks = {weight.omega: omega_mask(weight.omega, X) for weight in weights}
    gammas, source_frames = {}, frame_sampler(source, X)

    def add(key, sq, mesh, offset):
        """Contract the chunk's squared block `sq` with the chunk's table on `mesh`."""
        if mesh not in tables:
            if mesh not in phis:
                phi = np.stack([weight.phi(mesh.physical) for weight in weights])
                phis[mesh] = (phi - phi.max(axis=1)[:, None], phi.max(axis=1))
            tables[mesh] = scaled_table(s[:, a:b], phis[mesh][0])
        if key not in sums:
            sums[key] = (mesh, offset, np.empty((len(weights), tg.steps + 1)))
        sums[key][2][:, a:b] = row_sums(tables[mesh], sq)

    rows = max(1, quadrature.CHUNK_POINTS // (len(weights) * (grid.n + 1) ** grid.d))
    entries = 0
    for a in range(0, tg.steps + 1, rows):
        b = min(a + rows, tg.steps + 1)
        tables = {}
        values, times = traj.values[a:b], tg.times[a:b]
        dt = _dt_chunk(traj.values, tg.dt, a, b)
        add("I_p_time", np.multiply(dt, dt, out=dt), pm, -1)
        if a == 0:  # y(0) and y(T), both at s(0) (the first table row) and time weight 1
            sums["ends"] = (pm, 0, row_sums(tables[pm][:, :1], np.square(traj.values[[0, -1]])))
        for j in range(grid.d):
            dblock, dmesh = ops.diff_block(values, pm, j)
            for i in range(j + 1):
                block, mesh_ij = ops.diff_block(dblock, dmesh, i)
                if (i, j) not in gammas:
                    gammas[i, j] = [frame_sampler(coeffs.gamma[k], mesh_ij.physical)
                                    for k in dict.fromkeys((i, j))]
                gfac = gammas[i, j][0](times)
                gfac *= gfac if i == j else gammas[i, j][1](times)
                block *= np.sqrt(gfac, out=gfac)
                add(("mixed", i, j), np.multiply(block, block, out=block), mesh_ij, -1)
            ablock, amesh = ops.avg_block(dblock, dmesh, j)
            add(("avg", j), np.multiply(ablock, ablock, out=ablock), amesh, 1)
            add(("grad", j), np.multiply(dblock, dblock, out=dblock), dmesh, 1)
        sq_y = values * values
        add("J_p_zeroth", sq_y, pm, 3)
        for omega, mask in masks.items():
            add(("local", omega), sq_y * mask, pm, 3)
        frames = source_frames(times)
        add("rhs_source", np.multiply(frames, frames, out=frames), pm, 0)
        entries += sum(table.size for table in tables.values())

    powers = np.array([[p] for _, p in cells], dtype=np.float64)
    log_cell = np.log(tg.trap * grid.h ** grid.d)
    log_ends = np.log(np.ones(2) * grid.h ** (grid.d - 2))
    terms = {}
    for key, (mesh, offset, frame_sums) in sums.items():
        at_ends = key == "ends"
        scales = frame_scales(s[rows_of, :1] if at_ends else s[rows_of],
                              phis[mesh][1][rows_of, None], powers + offset,
                              log_ends if at_ends else log_cell)
        terms[key] = frame_terms(frame_sums[rows_of], scales)
    out = []
    for c, (weight, p) in enumerate(cells):
        i_mixed = ZERO_TERM
        for i, j in ((i, j) for i in range(grid.d) for j in range(i, grid.d)):
            term = terms["mixed", i, j][c]   # (i, j) and (j, i) both appear in the sum
            i_mixed = i_mixed + (term + term if i != j else term)
        i_time = terms["I_p_time"][c]
        out.append({
            "I_p_time": i_time, "I_p_mixed": i_mixed, "I_p": i_time + i_mixed,
            "J_p_gradient": sum((terms["grad", j][c] for j in range(grid.d)), ZERO_TERM),
            "J_p_avg_gradient": sum((terms["avg", j][c] for j in range(grid.d)), ZERO_TERM),
            "J_p_zeroth": terms["J_p_zeroth"][c], "rhs_source": terms["rhs_source"][c],
            "rhs_local_omega": terms["local", weight.omega][c],
            "rhs_time_endpoints": terms["ends"][c],
        })
    return out, entries


def endpoint_term(traj: Trajectory, weight: CarlemanWeight, p: int) -> Term:
    """h^-2 int_W (s(0))^p (|y(0)|^2 + |y(T)|^2) e^(2 s(0) phi): the block
    kernel on the two end frames, both at s(0) and time weight 1."""
    grid = traj.grid
    return space_time_sum(np.square(traj.values[[0, -1]]), weight.phi(g.primal(grid).physical),
                          np.full(2, weight.s(0.0)), p, grid.h ** (grid.d - 2), np.ones(2))


def _report(weight: CarlemanWeight, p: int, terms: dict) -> CarlemanReport:
    for key, term in terms.items():
        if term.mantissa < 0:
            raise SolverError(f"negative quadratic term {key}: {term.value}")
    lhs = sum((terms[k] for k in LHS_KEYS), ZERO_TERM)
    rhs = sum((terms[k] for k in RHS_KEYS), ZERO_TERM)
    admissible, _ = weight.admissibility()
    ratio = (lhs / rhs) if (admissible and rhs.mantissa > 0.0) else None
    return CarlemanReport(p=p, admissible=admissible, terms=terms, lhs=lhs, rhs=rhs,
                          ratio=ratio)


def verify_cells(traj: Trajectory, source, coeffs: CoefficientFields,
                 cells, work: dict | None = None) -> list[CarlemanReport]:
    """Both sides and the empirical ratio (admissible cells only) of one run
    under every (weight, p) cell of `cells`, in their order, from one pass.

    The run is taken as given, as the march that made it left it: every step
    of `Stepper.march` met relative residual LINEAR_RESIDUAL_TOL or raised,
    and the trajectory's `diagnostics["max_linear_residual"]` holds the
    largest.  Nothing here checks that `source` and `coeffs` are the ones it
    was marched with.  The table entries the pass formed are added to
    `work["weighted_points"]` when `work` is given.
    """
    cells = list(cells)
    for _, p in cells:
        if p not in (0, 1):
            raise GridError(f"p must be 0 or 1, got {p}")
    terms, entries = _cell_terms(traj, cells, coeffs, source)
    if work is not None:
        work["weighted_points"] = work.get("weighted_points", 0) + entries
    return [_report(weight, p, cell) for (weight, p), cell in zip(cells, terms)]


def feasibility_rows(weights: list, runs, work: dict | None = None) -> list[dict]:
    """The cells of the feasibility table at p = 0, one per weight: the run with
    the largest ratio, the first on a tie.  `runs` holds (trajectory, source,
    coefficients) triples on the weights' grid; each is evaluated once over every
    admissible cell (`work` as in `verify_cells`).  A cell outside the admissible
    window keeps its term columns empty.  Columns follow the CSV schema: h, tau,
    delta, lambda, p, I_p, J_p, rhs_source, rhs_local, rhs_endpoint, ratio,
    admissible."""
    rows = []
    for weight in weights:
        prm = weight.params
        rows.append({"h": weight.grid.h, "tau": prm.tau, "delta": prm.delta,
                     "lambda": prm.lam, "p": 0, "I_p": "", "J_p": "", "rhs_source": "",
                     "rhs_local": "", "rhs_endpoint": "", "ratio": "",
                     "admissible": weight.admissibility()[0]})
    live = [k for k, row in enumerate(rows) if row["admissible"]]
    best = {}
    for traj, source, coeffs in runs:
        reps = verify_cells(traj, source, coeffs, [(weights[k], 0) for k in live], work)
        for k, rep in zip(live, reps):
            if rep.ratio is not None and (k not in best or rep.ratio > best[k].ratio):
                best[k] = rep
    for k, rep in best.items():
        rows[k].update(rep.columns())
    return rows

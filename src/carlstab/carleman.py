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

Every space-time term is one call of `CarlemanWeight.space_time_term` on the
(frames x points) block of its field and its points, through the block kernel
`space_time_sum`: the exponential weight is formed in log space a chunk of
whole frames at a time, and points below the representable range are skipped
with a recorded mass bound.  The gamma factor of the mixed block multiplies
the difference block before the sum.  The endpoint terms use the one-frame
`weighted_square_sum`; `log_endpoint_term` is the exact log the decay study
reads where the endpoint value underflows.

The empirical constant of the inequality is the max ratio over a declared
randomized corpus; no reference value exists, so the tests assert finiteness
and stability under grid refinement instead of a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import grid as g
from . import operators as ops
from .coefficients import CoefficientFields, sample_frames
from .errors import GridError, SolverError
from .quadrature import ZERO_TERM, Term, log_weighted_square_sum, weighted_square_sum
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


def compute_lhs(traj: Trajectory, coeffs: CoefficientFields, weight: CarlemanWeight,
                p: int) -> dict:
    """All left-hand terms; returns the named totals plus the I_p split."""
    grid = traj.grid
    pm = g.primal(grid)
    tg = traj.time_grid
    times = tg.times
    i_time = weight.space_time_term(traj.dt_frames(), pm.physical, p - 1, tg)

    i_mixed = ZERO_TERM
    for i in range(grid.d):
        for j in range(i, grid.d):
            block, mesh_ij = ops.diff_block(traj.values, pm, j)
            block, mesh_ij = ops.diff_block(block, mesh_ij, i)
            X = mesh_ij.physical
            gfac = sample_frames(coeffs.gamma[i], times, X)
            gfac *= gfac if i == j else sample_frames(coeffs.gamma[j], times, X)
            block *= np.sqrt(gfac, out=gfac)
            term = weight.space_time_term(block, X, p - 1, tg)
            if i != j:  # ordered pairs (i,j) and (j,i) both appear in the sum
                term = term + term
            i_mixed = i_mixed + term

    j_grad = ZERO_TERM
    j_avg = ZERO_TERM
    for i in range(grid.d):
        dblock, dmesh = ops.diff_block(traj.values, pm, i)
        j_grad = j_grad + weight.space_time_term(dblock, dmesh.physical, p + 1, tg)
        ablock, amesh = ops.avg_block(dblock, dmesh, i)
        j_avg = j_avg + weight.space_time_term(ablock, amesh.physical, p + 1, tg)

    j_zero = weight.space_time_term(traj.values, pm.physical, p + 3, tg)

    return {
        "I_p_time": i_time,
        "I_p_mixed": i_mixed,
        "I_p": i_time + i_mixed,
        "J_p_gradient": j_grad,
        "J_p_avg_gradient": j_avg,
        "J_p_zeroth": j_zero,
    }


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


def compute_rhs(traj: Trajectory, source, weight: CarlemanWeight, p: int) -> dict:
    """Source, local-observation on the weight's omega, and endpoint terms of the
    right-hand side."""
    tg = traj.time_grid
    X = g.primal(traj.grid).physical
    mask = omega_mask(weight.omega, X)
    return {"rhs_source": weight.space_time_term(sample_frames(source, tg.times, X), X, p, tg),
            "rhs_local_omega": weight.space_time_term(traj.values[:, mask], X[mask], p + 3, tg),
            "rhs_time_endpoints": endpoint_term(traj, weight, p)}


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


def verify_inequality(traj: Trajectory, source, coeffs: CoefficientFields,
                      weight: CarlemanWeight, p: int) -> CarlemanReport:
    """Evaluate both sides on one run and report the empirical ratio.

    The ratio is recorded only for admissible parameters.  The run is taken
    as given: `check_scheme_residual` is the guard against a mismatched
    (trajectory, source, coefficients) triple.
    """
    if p not in (0, 1):
        raise GridError(f"p must be 0 or 1, got {p}")
    lhs_terms = compute_lhs(traj, coeffs, weight, p)
    rhs_terms = compute_rhs(traj, source, weight, p)
    terms = {**lhs_terms, **rhs_terms}
    for key, term in terms.items():
        if term.value < 0:
            raise SolverError(f"negative quadratic term {key}: {term.value}")
    lhs = sum(lhs_terms[k].value for k in LHS_KEYS)
    rhs = sum(rhs_terms[k].value for k in RHS_KEYS)
    admissible, _ = weight.admissibility()
    ratio = (lhs / rhs) if (admissible and rhs > 0.0) else None
    return CarlemanReport(
        p=p, admissible=admissible, terms=terms, lhs=lhs, rhs=rhs, ratio=ratio,
        skipped_bound=sum(t.skipped_bound for t in terms.values()),
    )


def feasibility_row(weight: CarlemanWeight, runs) -> dict:
    """One cell of the feasibility table at p = 0: the run with the largest ratio.

    `runs` holds (trajectory, source, coefficients) triples on the weight's
    grid; the first run wins a tie.  A cell outside the admissible window, or
    one where no run has a ratio, keeps its term columns empty.  Columns
    follow the CSV schema: h, tau, delta, lambda, p, I_p, J_p, rhs_source,
    rhs_local, rhs_endpoint, ratio, admissible.
    """
    admissible, _ = weight.admissibility()
    prm = weight.params
    row = {"h": weight.grid.h, "tau": prm.tau, "delta": prm.delta, "lambda": prm.lam,
           "p": 0, "I_p": "", "J_p": "", "rhs_source": "", "rhs_local": "",
           "rhs_endpoint": "", "ratio": "", "admissible": admissible}
    if admissible:
        best = None
        for traj, source, coeffs in runs:
            rep = verify_inequality(traj, source, coeffs, weight, 0)
            if rep.ratio is not None and (best is None or rep.ratio > best.ratio):
                best = rep
        if best is not None:
            row.update(best.columns())
    return row

"""Observation operator, admissible sources, stability quotients, recovery.

The observation of a run is a measurement that takes no weight: the
full-domain snapshot at the mid time T/2 (the frame `TimeGrid.mid`) and the
trajectory restricted to the observation box omega.  The stability quotient
weighs it with a Carleman weight:

    rhs_observed = ||y(T/2)||_{H^2_h} + ||e^{s phi} dt y||_{L^2_h(Q_omega)}
                 + ||e^{s phi} y||_{L^2_h(Q_omega)}
    rhs_error    = e^{2 tau theta(0) sup(phi)} * (||y(0)|| + ||dt y(0)||)

The error-term prefactor is the sharp uniform bound on the endpoint weight,
exp(-2 tau theta(0) mu0); with delta coupled to the mesh it decays like
exp(-c/h), which the refinement studies measure through the exact log value.

A source is admissible when |dt g(t,x)| <= C |g(T/2,x)| holds on the whole
space-time grid.  A separable source f(x) R(t) with |R| >= 1/2 is certified
from its form: C = max_m |R'(t_m)| / |R(T/2)|, or 0 where f vanishes on the
grid; it is a separable sampler (`coefficients`), whose form also gives
the z-system its rate f(x) R'(t).

The reconstruction is Tikhonov-regularised least squares on the observation
misfit.  The misfit is linear in the spatial profile, so one implicit march
with one column per unknown builds the normal equations, which a Cholesky
factorisation solves.  The zero-order coefficient is recovered pointwise
from the measurement at T/2: the snapshot y(T/2) and its time derivative
there, which a run marched one step past T/2 gives by a centred difference.
The estimates exist to exhibit the stability constant operationally, not as
a production inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import grid as g
from . import operators as ops
from .coefficients import CoefficientFields
from .errors import CertificationError, EmptyMaskError, SolverError
from .quadrature import Term, space_time_sum
from .solver import Stepper, TimeGrid, Trajectory, assemble_ah
from .weights import Box, CarlemanWeight, omega_mask

# entries of the n x n states held by one chunk of the normal equations' march, about
# 1 MB, so its memory stays bounded at d = 2; much smaller chunks cost more per step
MARCH_POINTS = 1 << 17


@dataclass
class Observation:
    """The measured data: y(T/2) on the whole domain and y on omega x (0, T)."""

    snapshot: g.MeshFunction
    mask: np.ndarray
    local_y: np.ndarray          # (steps+1, |omega|)


def observe(traj: Trajectory, omega: Box) -> Observation:
    """Measure one run: the mid-time snapshot and the history on omega."""
    snapshot = traj.frame(traj.time_grid.mid)
    mask = omega_mask(omega, g.primal(traj.grid).physical)
    return Observation(snapshot=snapshot, mask=mask, local_y=traj.values[:, mask])


@dataclass(frozen=True)
class SineTimeProfile:
    """R(t) = base + amp * sin(2 pi t / T + phase)."""

    base: float = 1.0
    amp: float = 0.5
    phase: float = 0.0
    T: float = 1.0

    def __call__(self, t):
        return self.base + self.amp * np.sin(2.0 * math.pi * np.asarray(t) / self.T + self.phase)

    def dt(self, t):
        return self.amp * (2.0 * math.pi / self.T) * np.cos(2.0 * math.pi * np.asarray(t) / self.T + self.phase)


@dataclass(frozen=True)
class FourierBump:
    """Random low-mode sine combination, identically zero on the box faces."""

    amps: tuple[float, ...]
    modes: tuple[tuple[int, ...], ...]

    def __call__(self, X):
        X = np.atleast_2d(X)
        out = np.zeros(X.shape[0])
        for a, ks in zip(self.amps, self.modes):
            term = np.ones(X.shape[0]) * a
            for i, k in enumerate(ks):
                term = term * np.sin(math.pi * k * X[:, i])
            out += term
        return out


def random_bump(rng: np.random.Generator, d: int) -> FourierBump:
    """Modes 1 to 3 per axis, amplitudes N(0, 1) / (1 + |k|^2)."""
    modes, amps = [], []
    for ks in np.ndindex(*((3,) * d)):
        k = tuple(int(v) + 1 for v in ks)
        modes.append(k)
        amps.append(float(rng.normal() / (1.0 + sum(v * v for v in k))))
    return FourierBump(tuple(amps), tuple(modes))


@dataclass(frozen=True)
class SeparableSource:
    """g(t, x) = f(x) R(t) with the spatial profile frozen on construction."""

    profile: FourierBump
    r: SineTimeProfile

    def __call__(self, t, X):
        return self.profile(X) * float(self.r(t))

    def dt(self, t, X):
        return self.profile(X) * float(self.r.dt(t))

    def separable(self, X):
        # base -0.0: x + -0.0 is x bitwise, the sign of a zero included
        return -0.0, self.profile(X), self.r


def random_separable_source(rng: np.random.Generator, d: int, T: float) -> SeparableSource:
    """Random bump profile times R(t) = 1 + sin(2 pi t / T + phase) / 2, so
    |R| >= 1/2; draws the profile, then the phase."""
    return SeparableSource(random_bump(rng, d),
                           SineTimeProfile(1.0, 0.5, float(rng.uniform(0, 2 * math.pi)), T))


@dataclass
class AdmissibleSource:
    """A certified source: |dt g| <= c_g |g(T/2, .)| on the space-time grid."""

    g: object
    c_g: float
    f: g.MeshFunction | None = None
    r: object | None = None


def certify_separable(src: SeparableSource, grid: g.GridSpec,
                      time_grid: TimeGrid) -> AdmissibleSource:
    """Certify a separable source on a given grid from its form: c_g =
    max_m |R'(t_m)| / |R(T/2)|, or 0 where the profile vanishes on the grid;
    rejects |R| dipping below 1/2."""
    r_vals = np.asarray(src.r(time_grid.times), dtype=np.float64)
    if float(np.min(np.abs(r_vals))) < 0.5:
        raise CertificationError(
            f"time profile dips below 1/2: min |R| = {np.min(np.abs(r_vals)):.4g}")
    f_mf = g.MeshFunction(g.primal(grid), src.profile(g.primal(grid).physical))
    rate = np.max(np.abs(src.r.dt(time_grid.times)))
    c_g = float(rate / abs(r_vals[time_grid.mid])) if np.any(f_mf.values) else 0.0
    return AdmissibleSource(g=src, c_g=c_g, f=f_mf, r=src.r)


@dataclass
class StabilityResult:
    """Both sides of the stability inequality and the empirical quotient."""

    lhs: float
    rhs_observed: float
    rhs_error_term: float
    log_error_term: float
    quotient: float
    reduced_quotient: float


def stability_quotient(traj: Trajectory, z_traj: Trajectory, source: AdmissibleSource,
                       weight: CarlemanWeight) -> StabilityResult:
    """Measure ||g(T/2)|| against the observed norms plus the mesh error term.

    The observation is taken on the weight's omega; its H^2 norm and both
    weighted norms, of y and of z = dt y, are computed here.  The reduced
    variant, for time-independent coefficients, drops the weighted zero-order
    observation and keeps only the initial time-derivative norm in the error
    term.
    """
    weight.require_admissible()
    obs = observe(traj, weight.omega)
    pm = g.primal(traj.grid)
    tg = traj.time_grid
    lhs = ops.l2_norm(g.MeshFunction(pm, source.g(tg.times[tg.mid], pm.physical)))
    phi, s, cell = weight.phi(pm.physical[obs.mask]), weight.s(tg.times), pm.grid.h ** pm.grid.d
    w_dt, w_y = (math.sqrt(space_time_sum(block * block, phi, s, 0.0, cell, tg.trap).value)
                 for block in (z_traj.values[:, obs.mask], obs.local_y))
    snapshot_h2 = ops.h2_norm(obs.snapshot)
    rhs_observed = snapshot_h2 + w_dt + w_y
    y0 = ops.l2_norm(traj.frame(0))
    z0 = ops.l2_norm(z_traj.frame(0))
    err = Term(-2.0 * weight.params.tau * float(weight.theta(0.0)) * weight.mu0, y0 + z0)
    denom = rhs_observed + err.value
    quotient = lhs / denom if denom > 0 else 0.0
    reduced_rhs = snapshot_h2 + w_dt + Term(err.log_scale, z0).value
    reduced_quotient = lhs / reduced_rhs if reduced_rhs > 0 else 0.0
    return StabilityResult(
        lhs=lhs, rhs_observed=rhs_observed, rhs_error_term=err.value, log_error_term=err.log,
        quotient=quotient, reduced_quotient=reduced_quotient,
    )


# reconstruction -----------------------------------------------------------


def _normal_equations(grid: g.GridSpec, coeffs: CoefficientFields, r: SineTimeProfile,
                      time_grid: TimeGrid, observation: Observation):
    """G = F^T F and F^T d for the weighted observation map F of a separable source.

    F f stacks sqrt(cell) y(T/2) and sqrt(trap_m cell) y_m on omega for the
    zero-initial trapezoidal march with forcing s_m f, s_m = dt/2 (R(t_m) +
    R(t_{m+1})); d is the observation in the same weights.  One march of the
    forcing block s_m I carries every column of F, through `Stepper.march` in
    chunks of about MARCH_POINTS state entries, and each frame adds its share
    to G and F^T d in frame order, so F is never stored.  Returns G, F^T d and
    the stepper that marched.
    """
    size = g.primal(grid).size
    mask = observation.mask
    obs_index = time_grid.mid
    cell = grid.h ** grid.d
    frame_w = time_grid.trap * cell
    r_vals = np.asarray(r(time_grid.times), dtype=np.float64)
    stepper = Stepper(grid, coeffs, time_grid)
    weights = stepper.forcing(r_vals[:-1], r_vals[1:])[:, None, None]
    eye = np.eye(size)
    Y = np.zeros((size, size))
    gram = np.zeros((size, size))
    rhs = np.zeros(size)
    chunk = max(1, MARCH_POINTS // size ** 2)
    for m0 in range(0, time_grid.steps, chunk):   # each chunk starts from the last frame
        frames = stepper.march(Y, weights[m0:m0 + chunk] * eye, m0)[0]
        for m, Y in enumerate(frames[1:], m0 + 1):
            local = Y[mask]
            gram += frame_w[m] * (local.T @ local)
            rhs += frame_w[m] * (local.T @ observation.local_y[m])
            if m == obs_index:   # in the Fortran layout of a dgtsv or LU solve: the
                Y = np.asfortranarray(Y)   # products' bits depend on it
                gram += cell * (Y.T @ Y)
                rhs += cell * (Y.T @ observation.snapshot.values)
    return gram, rhs, stepper


@dataclass
class ReconstructionResult:
    f_estimate: g.MeshFunction
    beta: float
    iterations: int
    relative_error: float | None
    forward_solves: int


def reconstruct_source(grid: g.GridSpec, coeffs: CoefficientFields, r: SineTimeProfile,
                       time_grid: TimeGrid, observation: Observation, beta: float,
                       truth: g.MeshFunction | None = None) -> ReconstructionResult:
    """Tikhonov least squares for the spatial profile of a separable source.

    Minimises ||F f - d||^2 + beta ||f||_{L^2_h}^2 by a Cholesky solve of the
    normal equations (`iterations` is 0: nothing iterates).  Raises
    SolverError when the regularised G is not positive definite or the
    solution's relative residual exceeds 1e-12.  Relative L2 error against
    the truth is reported when the truth is supplied.
    """
    gram, rhs, stepper = _normal_equations(grid, coeffs, r, time_grid, observation)
    gram[np.diag_indices_from(gram)] += beta * grid.h ** grid.d
    try:
        x = cho_solve(cho_factor(gram), rhs)
    except LinAlgError as exc:
        raise SolverError(f"normal equations not positive definite at beta={beta}: {exc}") from exc
    res = float(np.linalg.norm(gram @ x - rhs))
    if not res <= 1e-12 * float(np.linalg.norm(rhs)):
        raise SolverError(f"normal equations solved to residual {res:.3e}, "
                          f"above 1e-12 of ||F^T d|| = {np.linalg.norm(rhs):.3e}")
    est = g.MeshFunction(g.primal(grid), x)
    rel = None
    if truth is not None:
        diff = g.MeshFunction(est.mesh, est.values - truth.values)
        denom = ops.l2_norm(truth)
        rel = ops.l2_norm(diff) / denom if denom > 0 else ops.l2_norm(diff)
    return ReconstructionResult(f_estimate=est, beta=beta, iterations=0, relative_error=rel,
                                forward_solves=stepper.linear_solves)


def add_observation_noise(obs: Observation, level: float,
                          rng: np.random.Generator) -> Observation:
    """Multiplicative Gaussian noise on every observed entry, seed-controlled."""
    if level <= 0:
        return obs
    snap = obs.snapshot.values * (1.0 + level * rng.standard_normal(obs.snapshot.values.shape))
    loc = obs.local_y * (1.0 + level * rng.standard_normal(obs.local_y.shape))
    return replace(obs, snapshot=g.MeshFunction(obs.snapshot.mesh, snap), local_y=loc)


@dataclass
class CoefficientRecovery:
    p_estimate: g.MeshFunction
    mask: np.ndarray
    relative_error: float | None
    mask_fraction: float


def recover_coefficient(snapshot: g.MeshFunction, dt_snapshot: np.ndarray, time_grid: TimeGrid,
                        base_coeffs: CoefficientFields, alpha: float,
                        truth: g.MeshFunction | None = None) -> CoefficientRecovery:
    """Pointwise zero-order coefficient from the measurement at T/2 of `time_grid`:
    the snapshot y(T/2) and its time derivative there, such as the centred
    difference (y_{mid+1} - y_{mid-1}) / (2 dt) of a run marched one step past T/2.

    On points where |y(T/2)| >= alpha,

        p(x) = (dt y(T/2, x) - A~_h y(T/2, x)) / y(T/2, x),

    with A~_h the operator without the sought zero-order part; masked (NaN)
    elsewhere.  Raises when the mask is empty.
    """
    t = float(time_grid.times[time_grid.mid])
    pm = snapshot.mesh
    y = snapshot.values
    mask = np.abs(y) >= alpha
    if not np.any(mask):
        raise EmptyMaskError(
            f"no snapshot values reach alpha={alpha} (max |y| = {np.max(np.abs(y)):.4g})")
    a_y = assemble_ah(pm.grid, base_coeffs, t) @ y
    est = np.full(pm.size, np.nan)
    est[mask] = (dt_snapshot[mask] - a_y[mask]) / y[mask]
    rel = None
    if truth is not None:
        diff = est[mask] - truth.values[mask]
        denom = math.sqrt(float(np.sum(truth.values[mask] ** 2)))
        rel = math.sqrt(float(np.sum(diff ** 2))) / denom if denom > 0 else None
    return CoefficientRecovery(
        p_estimate=g.MeshFunction(pm, np.where(mask, est, np.nan)),
        mask=mask,
        relative_error=rel,
        mask_fraction=float(mask.mean()),
    )

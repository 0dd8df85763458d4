"""Semi-discrete parabolic operator assembly and implicit time stepping.

The spatial operator on primal unknowns (homogeneous Dirichlet data) is

    A_h y = sum_i D_i(gamma_i D_i y) - sum_i b_i D_i A_i y - c y,

assembled as a sparse matrix of per-axis three-point stencils: one CSR
pattern per (grid, advection), built and checked on first use, and one
vectorised fill, the only route by which the package applies A_h; the tests
keep a matrix-free application, by the grid's difference and average maps, as
its oracle.  A_h is linear in (gamma, b, c) and every time-dependent field is
base + space(x) rho(t), so A_h(t) = A_0 + sum_k rho_k(t) A_k: a stepper fills
A_0, each field's stencil A_k and I once, and forms the frame
I -+ dt/2 A_h(t_m) as one product of its factors with them.

Time integration is ours: one `Stepper` owns the trapezoidal step

    (I - dt/2 A(t_{m+1})) y_{m+1} = (I + dt/2 A(t_m)) y_m + f_m

and checks every step's residual; the forward solve, the z-system march and
the reconstruction's normal equations all run through it.  A step takes one
state or a block of states as columns, so a linear map of the forcing
marches all its columns at once; `Stepper.march` runs a whole march of
either, and a trajectory's diagnostics carry the largest residual it met.
A stepper holds L and R of the last frame formed and applies either by
scipy's CSR kernel, no matrix per frame.
The solve is chosen by the dimension.  At d = 1, L_m is tridiagonal and
solved exactly by Gaussian elimination with partial pivoting: the one L of
time-independent coefficients is factored once by LAPACK's dgttrf, and each
step of one state is one dgttrs solve with the held factor, with dgtsv's
pivot choices and arithmetic, so its bits; every other step, such as one of
a time-dependent L_m or of a block of states, is one dgtsv elimination.  At
d >= 2 a step solves with one sparse LU factor of L taken at some frame, in
SuperLU's minimum-degree ordering of L^T + L (about half the fill of the
default column ordering), followed by iterative refinement against the
current L_m until the worst column's relative residual is at most
REFINE_TOL, for at most REFINE_SWEEPS sweeps; a factor of another frame that
misses the target is replaced by one of L_m, and so is one whose previous
step needed more than REFRESH_SWEEPS sweeps.  Both rules read only the data.
With a factor of another frame, refinement starts from the march's own
states, when the step directly follows the previous one with the same shape
(reusing earlier solutions as Fischer's projection method does, CMAME 163,
1998): the Newton backward extrapolations of degree 3 and 5 from the last
GUESS_STATES solutions, blended per column by the factor in [0, 1] that
minimises the residual.  The trapezoidal rule flips the sign of stiff modes
every step, so a column whose start's residual is no smaller than its rhs
starts from zero instead.
Time-independent coefficients factorise once, and that exact factor meets
the target without a sweep.  Every column must reach relative residual
LINEAR_RESIDUAL_TOL = 1e-10 or the step raises.

The differentiated system for z ~ dt y carries the data at the mid time

    z(T/2) = C_h y(T/2) + g(T/2),      C_h = A_h frozen at T/2,

and the forcing B_h y + dt g, where B_h, by the same linearity, is the fill
of the coefficients' time derivatives; it marches on the stepper of its y
run and takes dt g from the separable form of y's source.  Integrating
forward of T/2 is well posed; on [0, T/2) the frames are the second-order
differences of the y frames (backward in time the heat flow is ill posed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs
from scipy.sparse import _sparsetools

from . import grid as g
from .coefficients import CoefficientFields, ConstantField, sample_frames
from .errors import GridError, SolverError
from .quadrature import exact_sum, trapezoid_weights

LINEAR_RESIDUAL_TOL = 1e-10
REFINE_TOL = 1e-13
REFINE_SWEEPS = 8
# a lower threshold refactorises more often than it saves in sweeps on the
# costliest factor measured (d = 3, N = 15, refining from zero; a blended start
# rarely lets a step come near it); see scripts/bench_steps.py
REFRESH_SWEEPS = 7
# solutions of the lagged path held for the starting guess, newest first: the
# start blends the Newton backward extrapolations of degree BASE_STATES - 1 and
# GUESS_STATES - 1 (a fixed degree 5 makes more sweeps on rough or finer data)
GUESS_STATES = 6
BASE_STATES = 4
# steps a d = 1 march solves between two checks of the residual contract: the
# check holds their right-hand sides, so its memory does not grow with the march
CHECK_STEPS = 64
# basis entries filled at a time: the fill's temporaries stay near the basis's size
FILL_ENTRIES = 1 << 14


@dataclass(frozen=True)
class TimeGrid:
    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0 or self.steps < 1:
            raise GridError(f"invalid time grid T={self.T}, steps={self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    @property
    def trap(self) -> np.ndarray:
        return trapezoid_weights(self.steps + 1, self.dt)

    @property
    def mid(self) -> int:
        """Index of the frame at T/2, the observation time."""
        if self.steps % 2:
            raise GridError(f"no frame at T/2: {self.steps} steps is odd")
        return self.steps // 2

    def index_of(self, t: float) -> int:
        i = int(round(t / self.dt))
        if not 0 <= i <= self.steps or abs(i * self.dt - t) > 1e-9 * max(self.T, 1.0):
            raise GridError(f"time {t} is not a frame of the grid (dt={self.dt})")
        return i


@dataclass
class Trajectory:
    """Frames of a primal field over a time grid, plus solve diagnostics and, from
    `solve_forward`, the `Stepper` that marched them, held while the trajectory
    is; at d >= 2 its SuperLU factor does not pickle."""

    grid: g.GridSpec
    time_grid: TimeGrid
    values: np.ndarray          # shape (steps+1, primal size)
    diagnostics: dict = field(default_factory=dict)
    stepper: Stepper | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.time_grid.steps + 1, g.primal(self.grid).size)
        if self.values.shape != expected:
            raise GridError(f"trajectory shape {self.values.shape}, expected {expected}")

    @property
    def mesh(self) -> g.Mesh:
        return g.primal(self.grid)

    def frame(self, i: int) -> g.MeshFunction:
        return g.MeshFunction(self.mesh, self.values[i])


def central_time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of frames; one-sided at the endpoints."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < 3:
        raise GridError("need at least three frames for second-order differencing")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


@lru_cache(maxsize=None)
def _pattern(grid: g.GridSpec, advection: bool):
    """A checked CSR template of A_h's pattern, and the slot of each entry
    `_stencil` emits.  The template's index arrays are shared by every fill
    and read-only, so an in-place change raises instead of corrupting the cache."""
    pm = g.primal(grid)
    size = pm.size
    idx = np.arange(size, dtype=np.int64).reshape(pm.shape)
    keys = []
    for ax in range(grid.d):
        lo, hi = g.axis_index(grid.d, ax, slice(None, -1), slice(1, None))
        up, dn = idx[lo].ravel(), idx[hi].ravel()
        keys += [up * size + dn, dn * size + up] * (2 if advection else 1)
    uniq, slot = np.unique(np.concatenate(keys + [idx.ravel() * (size + 1)]), return_inverse=True)
    indptr = np.searchsorted(uniq, np.arange(size + 1) * size)
    template = sp.csr_matrix((np.zeros(uniq.size), (uniq % size).astype(np.int32),
                              indptr.astype(np.int32)), shape=(size, size))
    template.indices.flags.writeable = False
    template.indptr.flags.writeable = False
    return template, slot


def _field_points(grid: g.GridSpec, coeffs: CoefficientFields) -> list:
    """(field, points) per field: gamma_i on dual_star(i), then b_i and c on the
    primal mesh."""
    if coeffs.d != grid.d:
        raise GridError(f"coefficients for d={coeffs.d} used with grid d={grid.d}")
    fields = (*coeffs.gamma, *(coeffs.b or ()), coeffs.c)
    points = [g.dual_star(grid, ax).physical for ax in range(grid.d)]
    points += [g.primal(grid).physical] * (len(fields) - grid.d)
    return list(zip(fields, points))


def _stencil(grid: g.GridSpec, vals: list) -> np.ndarray:
    """A_h's CSR data, shape (K, nnz), from K rows of values per field in
    `_field_points` order; linear in the values.

    Per axis: the stencil [gamma_-, -(gamma_+ + gamma_-), gamma_+]/h^2, then the
    advection -b (y_+ - y_-)/(2h); the zero-order part is diagonal.  One
    `np.bincount` over the rows' slots in turn gives each entry the bits of a
    fill of its row alone.
    """
    K = len(vals[-1])
    gammas, bs, c = vals[:grid.d], vals[grid.d:-1] or None, vals[-1]
    template, slot = _pattern(grid, bs is not None)
    shape, h = g.primal(grid).shape, grid.h
    parts, diag = [], np.zeros((K, template.shape[0]))
    for ax, gam in enumerate(gammas):
        lo, hi = g.axis_index(grid.d + 1, ax + 1, slice(None, -1), slice(1, None))
        gam = gam.reshape((K, *g.dual_star(grid, ax).shape))
        g_minus, g_plus = gam[lo], gam[hi]
        diag += (-(g_plus + g_minus) / (h * h)).reshape(K, -1)
        parts += [g_plus[lo] / (h * h), g_minus[hi] / (h * h)]
        if bs is not None:
            b = bs[ax].reshape((K, *shape))
            parts += [-b[lo] / (2.0 * h), b[hi] / (2.0 * h)]
    diag -= c
    weights = np.concatenate([part.reshape(K, -1) for part in parts + [diag]], axis=1)
    slots = (slot + template.nnz * np.arange(K)[:, None]).ravel()   # the rows end to end
    return np.bincount(slots, weights=weights.ravel(), minlength=K * template.nnz).reshape(K, -1)


def _separable(grid: g.GridSpec, coeffs: CoefficientFields, times, half_dt: float) -> tuple:
    """(coef, basis, flags) with I -+ dt/2 A_h(t_m) = coef[m] @ basis, for
    fields base + space(x) rho(t); coef[m] is (2, 2 + F), basis (2 + F, nnz).

    Basis row 0 is A_h of the bases, row 1 + k the stencil of field k's space
    alone and the last row I; coef[m] is -+ dt/2 times 1 and each rho_k(t_m),
    then 1, filled a row or FILL_ENTRIES entries at a time (a row's bits do not
    depend on the others).  flags[m] says some sampled gamma_i is <= 0 at t_m:
    rounding is monotone, so the least value is the base plus the least
    (rho >= 0) or the largest (rho < 0) spatial value times rho.
    """
    fields = _field_points(grid, coeffs)
    rho, forms = np.ones((len(times), 1 + len(fields))), []
    flags = np.zeros(len(times), dtype=bool)
    for k, (f, X) in enumerate(fields):
        if not hasattr(f, "separable"):
            raise GridError(f"time-dependent field {type(f).__name__} has no separable form")
        base, space, rho_k = f.separable(X)
        space = np.zeros(len(X)) if space is None else space
        rho[:, 1 + k] = 1.0 if rho_k is None else rho_k(times)
        if k < grid.d:
            r = rho[:, 1 + k]
            flags |= np.where(r >= 0.0, base + space.min() * r, base + space.max() * r) <= 0.0
        forms.append((base, space))
    template, slot = _pattern(grid, coeffs.b is not None)
    basis = np.zeros((2 + len(fields), template.nnz))
    step = max(1, FILL_ENTRIES // template.nnz)
    for r0 in range(0, 1 + len(fields), step):
        rows = np.arange(r0, min(r0 + step, 1 + len(fields)))[:, None]
        vals = [np.where(rows == 0, base, np.where(rows == 1 + k, space, 0.0))
                for k, (base, space) in enumerate(forms)]
        basis[r0:r0 + len(rows)] = _stencil(grid, vals)
    basis[-1, slot[-g.primal(grid).size:]] = 1.0
    coef = np.ones((len(times), 2, 2 + len(fields)))
    coef[:, :, :-1] = np.multiply.outer([-half_dt, half_dt], rho).transpose(1, 0, 2)
    return coef, basis, flags


def assemble_ah(grid: g.GridSpec, coeffs: CoefficientFields, t: float) -> sp.csr_matrix:
    """Sparse matrix of A_h on primal unknowns at time t, each field sampled by
    `sample_frames`: the one-frame fill, which rejects non-positive diffusion
    with its value, x and t."""
    vals = [sample_frames(f, (t,), X) for f, X in _field_points(grid, coeffs)]
    for ax, gam in enumerate(vals[:grid.d]):
        if np.any(gam <= 0.0):
            j = int(np.argmin(gam[0]))
            raise GridError(f"non-positive diffusion gamma_{ax}={gam[0, j]:.4g} "
                            f"at x={g.dual_star(grid, ax).physical[j]}, t={float(t)}")
    template = _pattern(grid, coeffs.b is not None)[0]
    return sp.csr_matrix((_stencil(grid, vals)[0], template.indices, template.indptr),
                         shape=template.shape)


def _tridiagonal_slots(diag: np.ndarray) -> tuple:
    """Slots of the sub-, main and super-diagonal of a d = 1 pattern, given the
    diagonal's: row i holds columns i - 1, i, i + 1 in turn.  f2py's dgtsv wants
    off-diagonals of length max(n - 1, 1); at n = 1 LAPACK reads none, so the
    diagonal's one slot stands in for both."""
    if diag.size == 1:
        return diag, diag, diag
    return diag[1:] - 1, diag, diag[:-1] + 1


def _scale(rhs: np.ndarray):
    """The 2-norms of rhs's columns against which a residual of L x = rhs is
    relative; a zero column counts its residual absolutely (a zero rhs solves
    exactly to zero).  A plain float for one state."""
    if rhs.ndim == 1:
        return math.sqrt(rhs @ rhs) or 1.0
    norms = np.sqrt(np.einsum("ij,ij->j", rhs, rhs))
    return np.where(norms > 0.0, norms, 1.0)


def _worst(r: np.ndarray, scale) -> float:
    """The largest relative 2-norm over the columns of a residual r, given `_scale(rhs)`."""
    if r.ndim == 1:
        return math.sqrt(r @ r) / scale
    return float(np.max(np.sqrt(np.einsum("ij,ij->j", r, r)) / scale))


def _dots(a: np.ndarray, b: np.ndarray):
    """The dot products of a's and b's columns: a plain dot for one state."""
    return a @ b if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def _unit_ratio(num, den):
    """num / den clipped to [0, 1], and 0 where den is 0: per column, or one float."""
    if np.ndim(num):
        return np.clip(num / np.where(den > 0.0, den, np.inf), 0.0, 1.0)
    return min(max(num / den, 0.0), 1.0) if den > 0.0 else 0.0


@lru_cache(maxsize=None)
def _start_weights(p: int) -> np.ndarray:
    """Weights on p held states, newest first: the Newton backward extrapolation
    sum_j (-1)^j C(q, j + 1) y_j of degree q - 1 = min(p, BASE_STATES) - 1, then,
    when p > BASE_STATES, the step from it to the one of degree p - 1."""
    base, top = ([(-1) ** j * math.comb(q, j + 1) if j < q else 0 for j in range(p)]
                 for q in (min(p, BASE_STATES), p))
    weights = np.array([base, np.subtract(top, base)][:1 + (p > BASE_STATES)], dtype=np.float64)
    weights.flags.writeable = False
    return weights


def _banded(bands: list, X: np.ndarray) -> np.ndarray:
    """L x for each row x of X, where the rows of bands hold each L's diagonals as
    dgtsv takes them; summed in csr_matvec's order, so bitwise `Stepper._product`."""
    lower, diag, upper = bands
    n = X.shape[1]
    LX = diag * X
    LX[:, 1:] += lower[:, :n - 1] * X[:, :-1]   # at n = 1 the stand-ins drop out
    LX[:, :-1] += upper[:, :n - 1] * X[:, 1:]
    return LX


class Stepper:
    """The implicit time step of dt y = A_h(t) y + g on one time grid.

    Step m of the trapezoidal rule solves L_m y_{m+1} = R_m y_m + f_m with

        L_m = I - dt/2 A(t_{m+1}),    R_m = I + dt/2 A(t_m).

    y and f are one state of shape (n,) or a block of states of shape (n, k),
    one per column.  A time-dependent stepper fills a (2 + F, nnz) basis, A_0,
    the F field stencils A_k and I, and the factors of every frame once
    (`_separable`; a field without the separable form raises), and forms
    frame m's L and R as the one product coef[m] @ basis, whose bits depend
    only on m; it holds the last frame formed.  A time-independent stepper
    forms its one frame from `assemble_ah` when built.  A frame with
    non-positive diffusion raises through `assemble_ah` when asked for.
    Products call `csr_matvec(s)` as `csr_matrix @ x` does.

    Solve policy, chosen by the dimension with no option.  At d = 1, L_m is
    tridiagonal and solved exactly, a state or a whole block, by Gaussian
    elimination with partial pivoting.  Time-independent coefficients have one
    L: the first step of one state factors it by LAPACK's dgttrf, the stepper
    holds the factor in `_lu`, and every step of one state, of any march on
    this stepper (the z-system's too), is one dgttrs solve with it, bitwise
    dgtsv's solution.  Otherwise each step hands its L_m's three diagonals to
    dgtsv, one elimination that keeps no factor: a time-dependent L_m, an L
    of n <= 2 unknowns (f2py's dgttrf needs n >= 3), a singular L, whose
    dgtsv raises at its step as an exactly singular L_m does, and a block of
    states, as dgtsv applies each row's multiplier to all columns at once
    and dgttrs solves them one by one, slower from a few columns on.
    At d >= 2 the stepper keeps one `splu` factor of L, in a minimum-degree
    ordering of the pattern of L^T + L, at the frame it was taken.  A step
    solves with it, then refines, x += LU^{-1}(rhs - L_m x), until the largest
    relative residual over the columns is at most REFINE_TOL or REFINE_SWEEPS
    sweeps are spent.  If the target is missed and the factor belongs to
    another frame, L_m is factorised and the step is solved again from
    scratch.  A step that follows one which needed more than REFRESH_SWEEPS
    sweeps factorises its own L_m before solving, so a drifting factor is
    replaced before it runs into the cap.  The rule reads only the data, so a
    rerun repeats every factorisation.  A time-independent march factorises
    once and its exact factor needs no sweep; a time-dependent one factorises
    whenever its coefficients have drifted too far for the lagged factor.
    A time-dependent march holds the last GUESS_STATES solutions of its
    lagged steps as rows, newest first, and the step they lead into.  Step m
    with a factor of another frame, directly following the held states with
    the same shape, starts from their Newton backward extrapolations
    sum_j (-1)^j C(q, j + 1) y_j over the newest q states: g_3 (q = 4) and
    g_5 (q = 6), both one product of the rows (with p < 6 states held, q is
    at most p).  Its start is g = g_3 + alpha (g_5 - g_3), with alpha in
    [0, 1] per column the least-squares minimiser of |rhs - L_m g|, and the
    first solve is x = g + LU^{-1}(rhs - L_m g), where a column whose
    residual is no smaller than its rhs (a stiff mode the trapezoidal rule
    flipped) starts from zero.  A step with an exact factor, and the solve
    again after a miss, start from zero and keep their bits.
    At every dimension, every column
    must reach relative residual LINEAR_RESIDUAL_TOL and a finite state, or
    the step raises; the residual reported is the largest over the columns.
    `factorisations`, `sweeps` and `linear_solves` (one per step) count the
    work done; at d = 1 there is no sweep, and a dgtsv step counts one
    factorisation, a held factor one for the stepper's whole life.
    `diagnostics` hands a march's largest residual and these counters to its
    `Trajectory`; no later pass checks a trajectory's steps again.

    `march` runs the steps of one state or of a block of states with the
    frames, residuals, counters and errors of a `step` loop, which stays its
    oracle; at d >= 2 it is that loop, as a lagged step needs each solve's
    residual to choose its sweeps.  At d = 1 a step is one R product and one
    dgttrs with the held factor, or one dgtsv on bands formed before its
    block of CHECK_STEPS steps, and the contract is checked once a block, the
    worst column of each step for a block of states; the first flagged frame
    ends its block, which is solved and checked up to it before the frame
    raises, as in the loop.
    """

    def __init__(self, grid: g.GridSpec, coeffs: CoefficientFields, time_grid: TimeGrid):
        self.grid, self.coeffs = grid, coeffs
        self.times = time_grid.times
        self.half_dt = 0.5 * time_grid.dt
        self.factorisations = 0
        self.sweeps = 0
        self.linear_solves = 0
        self._lu = None         # (frame of L, its SuperLU, or at d = 1 dgttrf's arrays or None)
        self._last_sweeps = 0   # sweeps the previous step needed
        self._history = np.empty(0)   # solutions of lagged steps as rows, newest first
        self._states = 0        # how many of its rows are held
        self._next = None       # the step they lead into
        self._template, slot = _pattern(grid, coeffs.b is not None)
        self._diag = slot[-g.primal(grid).size:]   # `_stencil` emits the diagonal last
        self._bands = _tridiagonal_slots(self._diag) if grid.d == 1 else None
        if coeffs.time_independent:   # one frame, held from the start
            LR = np.multiply.outer([-self.half_dt, self.half_dt],
                                   assemble_ah(grid, coeffs, float(self.times[0])).data)
            LR[:, self._diag] += 1.0
            self._held = (0, LR)
            self._bad = np.zeros(len(self.times), dtype=bool)   # assemble_ah checked it
        else:
            self._coef, self._basis, self._bad = _separable(grid, coeffs, self.times, self.half_dt)
            self._held = (None, None)   # the last frame formed and its L, R

    def forcing(self, g0, g1, out=None):
        """The source term f_m = dt/2 (g0 + g1) of one step from the sources at both
        ends, or of every step from the rows g[:-1], g[1:] with out=g[:-1], in place."""
        return np.multiply(self.half_dt, np.add(g0, g1, out=out), out=out)

    def _frames(self, m0: int, count: int) -> np.ndarray:
        """The (count, 2, nnz) rows of frames m0, ..., m0 + count - 1 as one product
        coef[m0:m0 + count] @ basis, bitwise the per-frame products; (1, 2, nnz) for
        time-independent coefficients, whose one frame serves every m.  Unlike
        `_frame` it does not check the flags: `march` forms no flagged frame."""
        if self.coeffs.time_independent:
            return self._held[1][None]
        return self._coef[m0:m0 + count] @ self._basis

    def _frame(self, m: int) -> np.ndarray:
        """The CSR data of I - dt/2 A and I + dt/2 A at frame m as the rows of a
        (2, nnz) array, coef[m] @ basis; the last frame formed is held."""
        if self.coeffs.time_independent:
            m = 0
        if m != self._held[0]:
            if self._bad[m]:   # the one-frame fill raises with the value, its x and t
                assemble_ah(self.grid, self.coeffs, float(self.times[m]))
            self._held = (m, self._coef[m] @ self._basis)
        return self._held[1]

    def _product(self, data: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """`data` on A's pattern times x by the kernel `csr_matrix @ x` calls, into
        a new array or the C-ordered `out` of x's shape."""
        n, t = x.shape[0], self._template
        if out is None:
            out = np.zeros(x.shape)
        else:
            out.fill(0.0)
        if x.size == n:
            _sparsetools.csr_matvec(n, n, t.indptr, t.indices, data, x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(n, n, x.size // n, t.indptr, t.indices, data, x.ravel(),
                                     out.ravel())
        return out

    def _factorise(self, frame: int, L: np.ndarray):
        self.factorisations += 1
        t = self._template
        L = sp.csr_matrix((L, t.indices, t.indptr), shape=t.shape).tocsc()
        self._lu = (frame, spla.splu(L, permc_spec="MMD_AT_PLUS_A"))

    def _follows(self, m: int, shape: tuple) -> bool:
        """Whether the held states lead into step m with states of this shape."""
        return m == self._next and self._history.shape[1:] == shape

    def _guess(self, m: int, rhs: np.ndarray) -> tuple | None:
        """The extrapolation of degree 3 of the held states to step m, and the step
        from it to the one of degree GUESS_STATES - 1 (None while at most
        BASE_STATES are held): one product of their rows.  None unless they lead
        into step m with rhs's shape."""
        if not self._follows(m, rhs.shape):
            return None
        p = self._states
        weights = _start_weights(p)
        rows = (weights @ self._history[:p].reshape(p, -1)).reshape(len(weights), *rhs.shape)
        return rows[0], rows[1] if len(rows) > 1 else None

    def _remember(self, m: int, x: np.ndarray):
        """Hold x, the solution of step m, newest first with the states leading into it."""
        if self._follows(m, x.shape):
            keep = min(self._states, GUESS_STATES - 1)
            self._history[1:keep + 1] = self._history[:keep]
            self._states = keep + 1
        else:
            if self._history.shape[1:] != x.shape:
                self._history = np.empty((GUESS_STATES, *x.shape))
            self._states = 1
        self._history[0] = x
        self._next = m + 1

    def _start(self, L: np.ndarray, rhs: np.ndarray, guess: np.ndarray,
               step: np.ndarray | None = None) -> np.ndarray:
        """g + LU^{-1}(rhs - L g) from g = guess + alpha step, with alpha in [0, 1] per
        column the least-squares minimiser of the residual; a column whose residual
        is no smaller than its rhs starts from zero instead.  Writes into guess."""
        r = rhs - self._product(L, guess)
        if step is not None:
            Ls = self._product(L, step)
            alpha = _unit_ratio(_dots(r, Ls), _dots(Ls, Ls))
            guess += alpha * step
            r -= alpha * Ls
        cold = _dots(r, r) >= _dots(rhs, rhs)
        if cold.any():
            n, cold = rhs.shape[0], np.atleast_1d(cold)
            guess.reshape(n, -1)[:, cold] = 0.0
            r.reshape(n, -1)[:, cold] = rhs.reshape(n, -1)[:, cold]
        return guess + self._lu[1].solve(r)

    def _refine(self, L: np.ndarray, rhs: np.ndarray, scale, x: np.ndarray) -> tuple:
        """Refine x against L with the current factor, in place, until the worst
        column's relative residual is at most REFINE_TOL or REFINE_SWEEPS sweeps are spent."""
        solve, sweeps, Lx = self._lu[1].solve, 0, np.empty(rhs.shape)
        while True:
            r = rhs - self._product(L, x, Lx)
            res = _worst(r, scale)
            if res <= REFINE_TOL or sweeps == REFINE_SWEEPS or not math.isfinite(res):
                break
            x += solve(r)
            sweeps += 1
        self.sweeps += sweeps
        self._last_sweeps = sweeps
        return x, res

    def _lagged(self, m: int, frame: int, L: np.ndarray,
                rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve with the lagged factor and refine, refactorising by the policy's rules;
        a factor of another frame starts from the held states."""
        if self._lu is None or (self._lu[0] != frame and self._last_sweeps > REFRESH_SWEEPS):
            self._factorise(frame, L)
        scale = _scale(rhs)
        guess = self._guess(m, rhs) if self._lu[0] != frame else None
        x = self._lu[1].solve(rhs) if guess is None else self._start(L, rhs, *guess)
        x, res = self._refine(L, rhs, scale, x)
        # a non-finite residual is a miss too: a diverged refinement gets a fresh factor
        if not res <= REFINE_TOL and self._lu[0] != frame:
            self._factorise(frame, L)
            x, res = self._refine(L, rhs, scale, self._lu[1].solve(rhs))
        if not self.coeffs.time_independent:
            self._remember(m, x)
        return x, res

    def _singular(self, m: int, info: int) -> SolverError:
        return SolverError(f"singular L at step {m + 1} (t={float(self.times[m + 1])}): "
                           f"zero pivot in row {info}")

    def _held_factor(self) -> list | None:
        """The dgttrf factor of the one tridiagonal L of time-independent
        coefficients (d = 1) for steps of one state, taken on first use and held;
        None where each step eliminates its own L by dgtsv: a time-dependent L,
        n <= 2 (f2py's dgttrf needs n >= 3) or a singular L, whose dgtsv raises
        at its step."""
        if self._lu is None and self.coeffs.time_independent and self._diag.size > 2:
            self.factorisations += 1
            L = self._held[1][0]
            *factor, info = dgttrf(*(L[slots] for slots in self._bands))
            self._lu = (0, None if info else factor)
        return None if self._lu is None else self._lu[1]

    def _tridiagonal(self, m: int, L: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Solve the tridiagonal L (d = 1) exactly: one state by one dgttrs solve with
        the held factor, else by one dgtsv elimination, a factorisation; no sweep."""
        factor = self._held_factor() if rhs.ndim == 1 else None
        if factor is None:
            self.factorisations += 1
            lower, diag, upper = (L[slots] for slots in self._bands)
            x, info = dgtsv(lower, diag, upper, rhs, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1)[3:]
            if info > 0:
                raise self._singular(m, info)
        else:
            x = dgttrs(*factor, rhs)[0]
        return x, _worst(rhs - self._product(L, x), _scale(rhs))

    def _contract(self, m: int, x: np.ndarray, res: float):
        """Raise unless step m's state x is finite and its residual meets LINEAR_RESIDUAL_TOL."""
        if res <= LINEAR_RESIDUAL_TOL:   # then x is finite: each row of L holds its diagonal
            return
        if not np.isfinite(x).all():
            raise SolverError(f"non-finite state at step {m + 1} (t={float(self.times[m + 1])})")
        raise SolverError(f"linear solve failed at step {m + 1}: relative residual {res:.3e}")

    def _solve(self, m: int, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """x with L_m x = rhs, and its largest relative residual over the columns."""
        self.linear_solves += 1
        frame = 0 if self.coeffs.time_independent else m + 1
        L = self._frame(frame)[0]
        if self._bands is None:
            x, res = self._lagged(m, frame, L, rhs)
        else:
            x, res = self._tridiagonal(m, L, rhs)
        self._contract(m, x, res)
        return x, res

    def step(self, m: int, y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
        """y_{m+1} and the largest relative residual of its linear solves."""
        return self._solve(m, self._product(self._frame(m)[1], y) + f)

    def march(self, y0: np.ndarray, F: np.ndarray, m0: int = 0) -> tuple[np.ndarray, float]:
        """The states y_{m0}, ..., y_{m0 + s} of a march from y0, one state (n,) or
        a block (n, k), with forcing F[k] of y0's shape at step m0 + k, s = len(F),
        and the largest relative residual of its solves; bitwise the `step` loop."""
        frames = np.empty((len(F) + 1, *np.shape(y0)))
        frames[0] = y0
        worst = 0.0
        if self._bands is None:
            for k, f in enumerate(F):
                frames[k + 1], res = self.step(m0 + k, frames[k], f)
                worst = max(worst, res)
            return frames, worst
        steps, n, t = len(F), frames.shape[1], self._template
        cols = frames.shape[2] if frames.ndim == 3 else None
        factor = self._held_factor() if cols is None else None
        rhs = np.empty((CHECK_STEPS, *frames.shape[1:]))
        # a block's check takes L x from the loop: the banded products cost more there
        LX = None if cols is None else np.empty_like(rhs)
        # the first flagged frame cuts its block: the loop solves every step before it
        flagged = np.flatnonzero(self._bad[m0:m0 + steps + 1])
        stop = int(flagged[0]) if flagged.size else steps + 1
        for k0 in range(0, steps, CHECK_STEPS):   # form a block's frames and bands of L, then solve
            count = min(CHECK_STEPS, steps - k0)
            cut = k0 + count >= stop
            if cut:
                count = max(stop - k0 - 1, 0)
            LR = self._frames(m0 + k0, count + 1)
            R = np.broadcast_to(LR[:, 1], (count + 1, LR.shape[2]))
            bands = [np.broadcast_to(LR[:, 0, s], (count + 1, s.size)) for s in self._bands]
            lower, diag, upper = bands
            rhs[:], info = 0.0, 0
            if cols is None:   # one state's own loop, free of a block's branch and products
                for j, k in enumerate(range(k0, k0 + count)):
                    b = rhs[j]
                    _sparsetools.csr_matvec(n, n, t.indptr, t.indices, R[j], frames[k], b)
                    b += F[k]
                    frames[k + 1], info = (dgtsv(lower[j + 1], diag[j + 1], upper[j + 1], b)[3:]
                                           if factor is None else dgttrs(*factor, b))
                    if info > 0:
                        count = j
                        break
            else:
                L = np.broadcast_to(LR[:, 0], R.shape)
                LX[:] = 0.0
                for j, k in enumerate(range(k0, k0 + count)):
                    b = rhs[j]
                    _sparsetools.csr_matvecs(n, n, cols, t.indptr, t.indices, R[j], frames[k], b)
                    b += F[k]
                    frames[k + 1], info = dgtsv(lower[j + 1], diag[j + 1], upper[j + 1], b)[3:]
                    if info > 0:
                        count = j
                        break
                    _sparsetools.csr_matvecs(n, n, cols, t.indptr, t.indices, L[j + 1],
                                             frames[k + 1], LX[j])
            X = frames[k0 + 1:k0 + count + 1]
            products = _banded([a[1:count + 1] for a in bands], X) if LX is None else LX[:count]
            worst = max(worst, self._check(m0 + k0, products, X, rhs[:count]))
            if info > 0:   # after any failure earlier in its block
                raise self._singular(m0 + k0 + count, info)
            if cut:   # after every step before it, through `assemble_ah`
                self._frame(m0 + stop)
        if factor is None:
            self.factorisations += steps
        self.linear_solves += steps
        return frames, worst

    def _check(self, m: int, LX: np.ndarray, X: np.ndarray, rhs: np.ndarray) -> float:
        """The largest relative residual of steps m, m + 1, ... from rows of their
        states X (one state or a block each), products L x and right-hand sides, the
        worst column of each step; the first step that breaks the contract raises."""
        r = rhs - LX
        if X.ndim == 2:
            norms = np.sqrt(np.einsum("ij,ij->i", rhs, rhs))
            res = np.sqrt(np.einsum("ij,ij->i", r, r)) / np.where(norms > 0.0, norms, 1.0)
            finite = np.isfinite(X).all(axis=1)
        else:
            norms = np.sqrt(np.einsum("kij,kij->kj", rhs, rhs))
            res = np.max(np.sqrt(np.einsum("kij,kij->kj", r, r))
                         / np.where(norms > 0.0, norms, 1.0), axis=1)
            finite = np.isfinite(X).all(axis=(1, 2))
        ok = finite & (res <= LINEAR_RESIDUAL_TOL)
        if not ok.all():
            j = int(np.argmin(ok))
            self._contract(m + j, X[j], res[j])
        return float(res.max(initial=0.0))

    def diagnostics(self, max_res: float) -> dict:
        """A march's `Trajectory.diagnostics`: its largest residual and the work counted."""
        return {"max_linear_residual": max_res, "factorisations": self.factorisations,
                "sweeps": self.sweeps, "linear_solves": self.linear_solves}


def solve_forward(grid: g.GridSpec, coeffs: CoefficientFields, source,
                  time_grid: TimeGrid, y_ini: g.MeshFunction | None = None) -> Trajectory:
    """March the semi-discrete system dt y = A_h y + g from its initial frame.

    `source` maps (t, X) to primal values in enumeration order.  Every step
    enforces the linear residual contract and aborts on non-finite values.
    """
    stepper = Stepper(grid, coeffs, time_grid)
    pm = g.primal(grid)
    X = pm.physical
    if y_ini is None:
        y = np.zeros(pm.size)
    else:
        g.require_mesh(y_ini, pm, "initial frame")
        y = y_ini.values
    g_all = sample_frames(source, time_grid.times, X)
    frames, max_res = stepper.march(y, stepper.forcing(g_all[:-1], g_all[1:], out=g_all[:-1]))
    return Trajectory(grid, time_grid, frames, diagnostics=stepper.diagnostics(max_res),
                      stepper=stepper)


def _rates(coeffs: CoefficientFields) -> CoefficientFields:
    """The coefficients' time-derivative samplers as fields, zero where one is
    missing; b's stay None without advection, so the fill keeps A_h's pattern."""
    zero, d = ConstantField(0.0), coeffs.d
    dt_b = None if coeffs.b is None else coeffs.dt_b or (zero,) * d
    return CoefficientFields(coeffs.dt_gamma or (zero,) * d, dt_b, coeffs.dt_c or zero)


def solve_z_system(y_traj: Trajectory, source) -> Trajectory:
    """Trajectory of z ~ dt y with data imposed at the mid time, for the y run
    that `solve_forward` marched with `source`.

    Above T/2 the system is marched forward on the y run's stepper, so with
    its coefficients, and forcing B_h y + dt g: A_h's linearity in (gamma, b, c)
    makes B_h(t_m) the fill of their time derivatives at t_m, and dt g is
    f(x) R'(t) from the source's separable form (zero where f is None).
    Below T/2 the frames are the second-order differences of the y frames.
    Diagnostics hold the stepper's totals over both marches, the larger of
    their largest residuals and, in 'cross_check_rel', the largest gap to the
    differenced y frames, relative to their largest norm.
    """
    tg = y_traj.time_grid
    half = tg.mid
    stepper = y_traj.stepper
    if stepper is None:
        raise GridError("the z-system marches on its y run's stepper: this trajectory has none")
    if not hasattr(source, "separable"):
        raise GridError(f"source {type(source).__name__} has no separable form to give dt g")
    grid, coeffs, times = y_traj.grid, stepper.coeffs, tg.times
    X = g.primal(grid).physical
    zc = central_time_derivative(y_traj.values, tg.dt)
    frames = np.empty_like(y_traj.values)
    frames[:half] = zc[:half]

    t_half = float(times[half])
    frames[half] = assemble_ah(grid, coeffs, t_half) @ y_traj.values[half] \
        + np.asarray(source(t_half, X), dtype=np.float64)

    _, space, rho = source.separable(X)
    rates = np.zeros((len(times) - half, len(X))) if space is None \
        else space * rho.dt(times[half:, None])
    if not coeffs.time_independent:
        vals = [sample_frames(f, times[half:], Xf) for f, Xf in _field_points(grid, _rates(coeffs))]
        for k, y in enumerate(y_traj.values[half:]):
            rates[k] += stepper._product(_stencil(grid, [v[k:k + 1] for v in vals])[0], y)
    frames[half:], max_res = stepper.march(frames[half], stepper.forcing(rates[:-1], rates[1:],
                                                                         out=rates[:-1]), half)

    cell = grid.h ** grid.d
    gap = np.sqrt(np.sum((frames - zc) ** 2, axis=1) * cell)
    z_scale = float(np.max(np.sqrt(np.sum(zc ** 2, axis=1) * cell)))
    return Trajectory(grid, tg, frames, diagnostics={
        **stepper.diagnostics(max(y_traj.diagnostics["max_linear_residual"], max_res)),
        "cross_check_rel": float(np.max(gap) / max(z_scale, 1e-300))})


@dataclass
class EnergyReport:
    t0: float
    t1: float
    lhs: float
    rhs: float
    c_tilde: float
    holds: bool


def energy_check(traj: Trajectory, coeffs: CoefficientFields, source,
                 t0: float, t1: float) -> EnergyReport:
    """Exponential energy bound between two frames.

    Checks  int |y(t1)|^2 <= exp(C~ (t1-t0)) (int |y(t0)|^2 + int_t0^t1 int |g|^2)
    with C~ = (d/2) reg(Gamma) ||b||_inf^2 + ||c||_inf + 1/2, where ||b||_inf
    is the largest sup norm among the advection components.
    """
    tg = traj.time_grid
    i0, i1 = tg.index_of(t0), tg.index_of(t1)
    if not i0 < i1:
        raise GridError(f"need t0 < t1 on the grid, got {t0}, {t1}")
    grid = traj.grid
    pm = g.primal(grid)
    X = pm.physical
    cell = grid.h ** grid.d
    lhs = cell * exact_sum(traj.values[i1] ** 2)
    y0_sq = cell * exact_sum(traj.values[i0] ** 2)
    times = tg.times
    sub = times[i0:i1 + 1]
    g_sq = np.array([cell * exact_sum(row ** 2) for row in sample_frames(source, sub, X)])
    tw = trapezoid_weights(len(sub), tg.dt)
    g_int = exact_sum(g_sq * tw)
    sample_times = times[:: max(1, len(times) // 16)]
    regrep = coeffs.regularity(grid, sample_times)
    c_tilde = 0.5 * grid.d * regrep.reg * regrep.b_sup ** 2 + regrep.c_sup + 0.5
    rhs = np.exp(c_tilde * (times[i1] - times[i0])) * (y0_sq + g_int)
    return EnergyReport(float(times[i0]), float(times[i1]), lhs, rhs, c_tilde,
                        holds=bool(lhs <= rhs * (1.0 + 1e-8)))

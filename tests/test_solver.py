import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carlstab import grid as g
from carlstab import operators as ops
from carlstab import solver
from carlstab.coefficients import (CoefficientFields, ConstantField, FieldTimeDerivative,
                                   SmoothField, random_smooth_coefficients, sample_frames)
from carlstab.errors import GridError, SolverError
from carlstab.inverse import random_bump
from carlstab.solver import (Stepper, TimeGrid, assemble_ah, central_time_derivative,
                             energy_check, solve_forward, solve_z_system)

GRID = g.GridSpec(1, 15)


def product_sine(X):
    return np.prod(np.sin(np.pi * X), axis=1)


def product_sine_source(t, X):
    return product_sine(X)


def test_time_grid_index_lookup():
    tg = TimeGrid(1.0, 8)
    assert tg.index_of(0.5) == 4
    assert tg.index_of(0.0) == 0
    with pytest.raises(GridError):
        tg.index_of(0.3)
    assert tg.mid == 4
    with pytest.raises(GridError, match="T/2"):
        TimeGrid(1.0, 7).mid


def test_constant_coefficient_stencil_rows():
    A = assemble_ah(GRID, CoefficientFields.constant(1), 0.0).toarray()
    h2 = GRID.h ** 2
    for i in range(1, 14):
        assert A[i, i] * h2 == pytest.approx(-2.0)
        assert A[i, i - 1] * h2 == pytest.approx(1.0)
        assert A[i, i + 1] * h2 == pytest.approx(1.0)


@pytest.mark.parametrize("b_amp", [0.0, 0.7], ids=["no-advection", "advection"])
@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)], ids=["d1", "d2", "d3"])
def test_matrix_matches_operator_application(rng, d, n, b_amp):
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=b_amp)
    grid = g.GridSpec(d, n)
    A = assemble_ah(grid, coeffs, 0.37)
    pm = g.primal(grid)
    for _ in range(20):
        u = g.MeshFunction(pm, rng.normal(size=pm.size))
        direct = apply_ah(grid, coeffs, 0.37, u).values
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(A @ u.values - direct)) <= 1e-12 * scale


def test_nonpositive_diffusion_rejected_with_location():
    bad = CoefficientFields(gamma=(ConstantField(0.0),), b=None, c=ConstantField(0.0))
    with pytest.raises(GridError, match="gamma_0"):
        assemble_ah(GRID, bad, 0.0)


def test_symmetry_without_advection(rng):
    coeffs = random_smooth_coefficients(rng, 1, 1.0)
    A = assemble_ah(GRID, coeffs, 0.0)
    asym = np.max(np.abs((A - A.T).toarray()))
    assert asym <= 1e-12 * np.max(np.abs(A.toarray()))


def test_zero_data_zero_solution():
    tg = TimeGrid(1.0, 16)
    traj = solve_forward(GRID, CoefficientFields.constant(1),
                         lambda t, X: np.zeros(X.shape[0]), tg)
    assert np.all(traj.values == 0.0)


def test_discrete_manufactured_reproduction():
    pm = g.primal(GRID)
    u0 = g.sample(pm, product_sine)
    coeffs = CoefficientFields.constant(1)
    a_u0 = apply_ah(GRID, coeffs, 0.0, u0).values

    def src(t, X):
        return -math.exp(-t) * (u0.values + a_u0)

    tg = TimeGrid(0.25, 2048)
    traj = solve_forward(GRID, coeffs, src, tg, y_ini=u0)
    scale = np.max(np.abs(u0.values))
    worst = max(np.max(np.abs(traj.values[m] - math.exp(-t) * u0.values)) / scale
                for m, t in enumerate(tg.times))
    assert worst <= 1e-9


def test_spatial_convergence_order():
    errs = []
    for n in (7, 15):
        grid = g.GridSpec(1, n)
        pm = g.primal(grid)
        u0 = g.sample(pm, product_sine)

        def src(t, X):
            return (math.pi ** 2 - 1.0) * math.exp(-t) * np.sin(math.pi * X[:, 0])

        tg = TimeGrid(0.25, 1024)
        traj = solve_forward(grid, CoefficientFields.constant(1), src, tg, y_ini=u0)
        exact = math.exp(-0.25) * u0.values
        errs.append(np.sqrt(grid.h * np.sum((traj.values[-1] - exact) ** 2)))
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_temporal_convergence_trapezoid_and_backward_euler():
    pm = g.primal(GRID)
    u0 = g.sample(pm, product_sine)
    coeffs = CoefficientFields.constant(1)
    a_u0 = apply_ah(GRID, coeffs, 0.0, u0).values

    def src(t, X):
        return -math.exp(-t) * (u0.values + a_u0)

    def final_err(steps):
        tg = TimeGrid(0.5, steps)
        traj = solve_forward(GRID, coeffs, src, tg, y_ini=u0)
        return np.max(np.abs(traj.values[-1] - math.exp(-0.5) * u0.values))

    tr = [final_err(m) for m in (32, 64)]
    assert math.log2(tr[0] / tr[1]) >= 1.9


def test_nan_detection_aborts():
    class ExplodingSource:
        def __call__(self, t, X):
            return np.full(X.shape[0], np.nan if t > 0.5 else 0.0)

    with pytest.raises(SolverError):
        solve_forward(GRID, CoefficientFields.constant(1), ExplodingSource(),
                      TimeGrid(1.0, 8))


def test_central_time_derivative_quadratic_exact():
    t = np.linspace(0.0, 1.0, 9)[:, None]
    vals = 3.0 * t ** 2 + 2.0 * t + 1.0
    d = central_time_derivative(vals, 0.125)
    assert np.allclose(d, 6.0 * t + 2.0, rtol=0, atol=1e-12)


def test_z_system_time_independent_bh_vanishes(rng):
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=False, b_amp=0.5)
    assert np.all(rate_fill(GRID, coeffs, 0.3).data == 0.0)


@pytest.mark.parametrize("b_amp,frozen_b", [(0.0, False), (0.7, False), (0.7, True)],
                         ids=["no-advection", "advection", "advection-without-dt_b"])
@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)], ids=["d1", "d2", "d3"])
def test_rate_fill_matches_the_bh_oracle(rng, d, n, b_amp, frozen_b):
    """B_h is the fill of the derivative samplers: A_h is linear in (gamma, b, c).
    Without dt_b, b is frozen and its rows of the fill are zero."""
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=b_amp)
    if frozen_b:
        coeffs = replace(coeffs, dt_b=None)
    grid = g.GridSpec(d, n)
    pm = g.primal(grid)
    for t in (0.0, 0.37, 0.8):
        B = rate_fill(grid, coeffs, t)
        assert np.array_equal(B.indptr, assemble_ah(grid, coeffs, t).indptr)
        for _ in range(5):
            u = g.MeshFunction(pm, rng.normal(size=pm.size))
            want = apply_bh(grid, coeffs, t, u).values
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(B @ u.values - want)) <= 1e-12 * scale


def test_time_dependent_z_system_matches_the_oracle_forcing_d2(rng):
    """A d = 2 z-system with advection, marched once by `solve_z_system` and once
    from the oracle data A_h y(T/2) + g(T/2) and forcing B_h y + dt g."""
    grid = g.GridSpec(2, 7)
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.5)

    def src(t, X):
        return product_sine(X) * (1.0 + 0.5 * math.sin(2 * math.pi * t))

    def dsrc(t, X):
        return product_sine(X) * math.pi * math.cos(2 * math.pi * t)

    tg = TimeGrid(1.0, 64)
    traj = solve_forward(grid, coeffs, src, tg, y_ini=g.sample(g.primal(grid), product_sine))
    z = solve_z_system(traj, coeffs, src, dsrc)
    half, X = tg.mid, g.primal(grid).physical
    z_half = apply_ah(grid, coeffs, 0.5, traj.frame(half)).values + src(0.5, X)
    rates = np.array([dsrc(t, X) + apply_bh(grid, coeffs, t, traj.frame(m)).values
                      for m, t in enumerate(tg.times) if m >= half])
    stepper = Stepper(grid, coeffs, tg)
    want = stepper.march(z_half, stepper.forcing(rates[:-1], rates[1:]), half)[0]
    assert np.max(np.abs(z.values[half:] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(z.values[:half], central_time_derivative(traj.values, tg.dt)[:half])
    assert z.diagnostics["linear_solves"] == tg.steps - half


def test_z_system_cross_check_small():
    rng = np.random.default_rng(7)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True)

    def src(t, X):
        return np.sin(np.pi * X[:, 0]) * (1.0 + 0.5 * math.sin(2 * math.pi * t))

    def dsrc(t, X):
        return np.sin(np.pi * X[:, 0]) * (math.pi * math.cos(2 * math.pi * t))

    tg = TimeGrid(1.0, 2048)
    traj = solve_forward(GRID, coeffs, src, tg)
    z = solve_z_system(traj, coeffs, src, dsrc)
    assert z.diagnostics["cross_check_rel"] <= 1e-3


def test_z_system_steady_state_decay():
    coeffs = CoefficientFields.constant(1, gamma=1.0, c=0.5)

    def src(t, X):
        return np.sin(np.pi * X[:, 0])

    def zsrc(t, X):
        return np.zeros(X.shape[0])

    tg = TimeGrid(2.0, 256)
    traj = solve_forward(GRID, coeffs, src, tg)
    z = solve_z_system(traj, coeffs, src, zsrc)
    cell = GRID.h
    norms = np.sqrt(cell * np.sum(z.values ** 2, axis=1))
    assert norms[-1] <= 1e-3 * norms[128 + 8]


def test_energy_trivial_and_reduced_constant():
    coeffs = CoefficientFields.constant(1, gamma=1.0, c=0.75)

    def src(t, X):
        return np.zeros(X.shape[0])

    traj = solve_forward(GRID, coeffs, src, TimeGrid(1.0, 32))
    rep = energy_check(traj, coeffs, src, 0.0, 1.0)
    assert rep.holds and rep.lhs == 0.0
    # b absent: C~ collapses to ||c||_inf + 1/2
    assert rep.c_tilde == pytest.approx(0.75 + 0.5, rel=1e-12)


def test_energy_randomized_small(rng):
    violations = 0
    for k in range(10):
        r = np.random.default_rng(1000 + k)
        d = int(r.integers(1, 3))
        grid = g.GridSpec(d, int(r.integers(5, 9)))
        coeffs = random_smooth_coefficients(r, d, 1.0, time_dependent=True,
                                            b_amp=0.5)
        pm = g.primal(grid)
        y0 = g.MeshFunction(pm, r.normal(size=pm.size))

        def src(t, X, a=r.normal(size=2)):
            return a[0] * np.prod(np.sin(np.pi * X), axis=1) * (1 + a[1] * math.sin(t))

        traj = solve_forward(grid, coeffs, src, TimeGrid(1.0, 64), y_ini=y0)
        for t0, t1 in ((0.0, 1.0), (0.25, 0.75)):
            violations += int(not energy_check(traj, coeffs, src, t0, t1).holds)
    assert violations == 0


def test_linear_solver_residual_contract(rng):
    # (grid, time-dependent, b_amp, time grid, zero source): the last case is a decaying
    # zero-source state, on which a Krylov solve with an absolute breakdown test gave up
    cases = [(GRID, True, 0.9, TimeGrid(0.5, 256), False),
             (GRID, False, 0.0, TimeGrid(0.5, 256), False),
             (g.GridSpec(2, 7), True, 0.9, TimeGrid(0.5, 256), False),
             (g.GridSpec(2, 7), True, 0.9, TimeGrid(1.0, 256), True)]

    def src(t, X):
        return np.prod(np.sin(np.pi * X), axis=1)

    def zero(t, X):
        return np.zeros(X.shape[0])

    for grid, time_dependent, b_amp, tg, zero_source in cases:
        coeffs = random_smooth_coefficients(rng, grid.d, 1.0, b_amp=b_amp,
                                            time_dependent=time_dependent)
        pm = g.primal(grid)
        y0 = g.MeshFunction(pm, rng.normal(size=pm.size)) if zero_source else None
        traj = solve_forward(grid, coeffs, zero if zero_source else src, tg, y_ini=y0)
        assert traj.diagnostics["max_linear_residual"] <= 1e-10
        assert traj.diagnostics["linear_solves"] == 256
        if grid.d == 1:
            # one exact tridiagonal elimination per step
            assert (traj.diagnostics["factorisations"], traj.diagnostics["sweeps"]) == (256, 0)
        elif time_dependent:
            assert 1 <= traj.diagnostics["factorisations"] < 256
        else:
            assert (traj.diagnostics["factorisations"], traj.diagnostics["sweeps"]) == (1, 0)


def _unguessed(self, m, rhs):
    """`Stepper._guess` of the oracle: every lagged step starts from zero."""
    return None


def test_refresh_rule_repeats_and_cuts_sweeps(rng, monkeypatch):
    # a step that needed more than REFRESH_SWEEPS sweeps gets a fresh factor for the
    # next one; replacing the factor only on a missed target took 6.41 sweeps per step.
    # Started from the extrapolated state, one factor lasts this whole march, so the
    # rule is measured on the unguessed path it was tuned on
    monkeypatch.setattr(Stepper, "_guess", _unguessed)
    grid = g.GridSpec(2, 15)
    pm = g.primal(grid)
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    y0 = g.MeshFunction(pm, rng.normal(size=pm.size))
    tg = TimeGrid(1.0, 256)
    first, second = (solve_forward(grid, coeffs, product_sine_source, tg, y_ini=y0)
                     for _ in range(2))
    assert first.diagnostics["sweeps"] < 6.4 * tg.steps
    assert first.diagnostics["factorisations"] > 1
    # the rule reads only the data: a rerun repeats every frame and every counter
    assert first.values.tobytes() == second.values.tobytes()
    assert first.diagnostics == second.diagnostics
    frozen = random_smooth_coefficients(rng, 2, 1.0, b_amp=0.3)
    traj = solve_forward(grid, frozen, product_sine_source, tg, y_ini=y0)
    assert (traj.diagnostics["factorisations"], traj.diagnostics["sweeps"]) == (1, 0)


def test_refresh_fires_only_above_refresh_sweeps(rng):
    grid = g.GridSpec(2, 7)
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 64))
    # smooth data, so that the lagged steps keep their extrapolated starts
    y = product_sine(g.primal(grid).physical)
    f = np.zeros(y.size)
    for m in range(3):
        y = stepper.step(m, y, f)[0]
    assert (stepper.factorisations, stepper._lu[0]) == (1, 1)
    stepper._last_sweeps = solver.REFRESH_SWEEPS
    y = stepper.step(3, y, f)[0]
    assert (stepper.factorisations, stepper._lu[0]) == (1, 1)
    stepper._last_sweeps = solver.REFRESH_SWEEPS + 1
    x = stepper.step(4, y, f)[0]
    # step 4 solves L_4 at frame 5 with its own exact factor: no sweep, and no guess
    # from the states it follows, so it has the bits of a fresh stepper's step 4
    assert (stepper.factorisations, stepper._lu[0], stepper._last_sweeps) == (2, 5, 0)
    assert x.tobytes() == Stepper(grid, coeffs, TimeGrid(1.0, 64)).step(4, y, f)[0].tobytes()


def _d2_march(rng, n, bump):
    grid = g.GridSpec(2, n)
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    pm = g.primal(grid)
    y0 = g.sample(pm, random_bump(rng, 2)) if bump else \
        g.MeshFunction(pm, rng.normal(size=pm.size))
    return lambda: solve_forward(grid, coeffs, product_sine_source, TimeGrid(1.0, 256), y_ini=y0)


def test_guessed_march_matches_unguessed_oracle(rng, monkeypatch):
    # from a smooth bump the extrapolated state is close: the same march to within a
    # few REFINE_TOL, in no more sweeps than refinement from zero
    march = _d2_march(rng, 15, bump=True)
    guessed = march()
    monkeypatch.setattr(Stepper, "_guess", _unguessed)
    oracle = march()
    err = np.linalg.norm(guessed.values - oracle.values) / np.linalg.norm(oracle.values)
    assert err <= 1e-12
    assert oracle.diagnostics["sweeps"] >= guessed.diagnostics["sweeps"]
    assert guessed.diagnostics["max_linear_residual"] <= solver.REFINE_TOL


@pytest.mark.parametrize("n", [15, 63])
def test_guess_costs_no_work_on_rough_data(rng, monkeypatch, n):
    # random-normal data carries stiff modes that flip sign every step; the
    # safeguard starts such columns from zero, so the guess never costs work
    # (unguarded, the N = 63 march took 9 factorisations against the oracle's 7)
    march = _d2_march(rng, n, bump=False)
    guessed = march().diagnostics
    monkeypatch.setattr(Stepper, "_guess", _unguessed)
    oracle = march().diagnostics
    assert guessed["factorisations"] <= oracle["factorisations"]
    assert guessed["sweeps"] <= oracle["sweeps"]


def test_guess_needs_the_following_step_and_its_shape(rng, monkeypatch):
    grid = g.GridSpec(2, 7)
    size = g.primal(grid).size
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    stepper, oracle = (Stepper(grid, coeffs, TimeGrid(1.0, 64)) for _ in range(2))
    oracle._guess = lambda m, rhs: None
    guessed = []
    guess = Stepper._guess

    def spy(self, m, rhs):
        out = guess(self, m, rhs)
        if self is stepper:
            guessed.append((m, out is not None))
        return out

    monkeypatch.setattr(Stepper, "_guess", spy)
    states = [rng.normal(size=size)]
    f = np.zeros(size)
    for m in range(7):
        states.append(stepper.step(m, states[-1], f)[0])
        oracle.step(m, states[-2], f)
    # step 0 factorises its own L (exact: no guess asked); the lagged steps 1-6 extrapolate
    assert guessed == [(m, True) for m in range(1, 7)]
    # the start blends the degree-3 extrapolation with the degree-5 one of the six
    # states held, newest first
    y = states[:0:-1][:solver.GUESS_STATES]
    base, step = stepper._guess(7, y[0])
    cubic = 4 * y[0] - 6 * y[1] + 4 * y[2] - y[3]
    quintic = 6 * y[0] - 15 * y[1] + 20 * y[2] - 15 * y[3] + 6 * y[4] - y[5]
    scale = np.linalg.norm(quintic)
    assert np.linalg.norm(base - cubic) <= 1e-14 * scale
    assert np.linalg.norm(base + step - quintic) <= 1e-14 * scale
    assert stepper._guess(8, y[0]) is None and stepper._guess(7, np.zeros((size, 2))) is None
    guessed.clear()
    # a step that does not follow, then a block that follows with another shape: both
    # start from zero, with the oracle's bits (its factors are the same)
    y = rng.normal(size=size)
    assert stepper.step(10, y, f)[0].tobytes() == oracle.step(10, y, f)[0].tobytes()
    Y = rng.normal(size=(size, 3))
    assert stepper.step(11, Y, 0 * Y)[0].tobytes() == oracle.step(11, Y, 0 * Y)[0].tobytes()
    # step 10, refined from zero, took more than REFRESH_SWEEPS sweeps: step 11
    # solved with its own exact factor, so it asked for no guess
    assert stepper._lu[0] == 12
    # the next block follows with the same shape: guessed from the one state held, so
    # there is no degree to blend with until more than BASE_STATES are held
    stepper.step(12, Y, 0 * Y)
    assert guessed == [(10, False), (12, True)]
    assert stepper._states == 2 and stepper._guess(13, Y)[1] is None
    assert stepper.factorisations == oracle.factorisations


class _ZeroSolve:
    """A factor whose solve returns zero, so `Stepper._start` returns the start itself."""

    def solve(self, rhs):
        return np.zeros_like(rhs)


@given(seed=st.integers(0, 2 ** 32 - 1), cols=st.sampled_from([0, 1, 3]),
       held=st.integers(1, solver.GUESS_STATES), degree=st.integers(0, 6),
       noise=st.sampled_from([0.0, 1e-9, 1e-4, 1e-1, 1.0]))
def test_blended_start_is_no_worse_than_degree_3_or_zero(seed, cols, held, degree, noise):
    # held states on a random polynomial path of time plus noise, and the rhs of the
    # path's next state: per column, the blended start's residual is at most the
    # degree-3 start's and the zero start's
    rng = np.random.default_rng(seed)
    grid = g.GridSpec(2, 7)
    size = g.primal(grid).size
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.3)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 16))
    L = stepper._frame(9)[0]
    shape = (size,) if cols == 0 else (size, cols)
    path = rng.normal(size=(degree + 1, *shape))

    def state(s):
        return sum(c * (0.1 * s) ** k for k, c in enumerate(path)) + noise * rng.normal(size=shape)

    for k in range(held):
        stepper._remember(8 - held + k, state(k))
    rhs = stepper._product(L, state(held))
    stepper._lu = (0, _ZeroSolve())
    base, step = stepper._guess(8, rhs)
    cubic = base.copy()
    start = stepper._start(L, rhs, base, step)

    def norms(a):
        return np.linalg.norm(a.reshape(size, -1), axis=0)

    got = norms(rhs - stepper._product(L, start))
    slack = 1e-12 * (norms(rhs) + norms(stepper._product(L, start)))
    assert np.all(got <= norms(rhs - stepper._product(L, cubic)) + slack)
    assert np.all(got <= norms(rhs) + slack)


def test_safeguard_starts_a_worse_column_from_zero(rng):
    grid = g.GridSpec(2, 7)
    size = g.primal(grid).size
    stepper = Stepper(grid, random_smooth_coefficients(rng, 2, 1.0, time_dependent=True),
                      TimeGrid(1.0, 16))
    L = stepper._frame(1)[0]
    stepper._factorise(1, L)
    solve = stepper._lu[1].solve
    rhs = rng.normal(size=size)
    x = solve(rhs)
    # -x leaves residual 2 rhs: the start is the zero start's bits
    assert stepper._start(L, rhs, -x).tobytes() == x.tobytes()
    # a close guess is kept and corrected
    near = x + 1e-6 * rng.normal(size=size)
    start = stepper._start(L, rhs, near.copy())
    assert start.tobytes() != x.tobytes()
    assert np.linalg.norm(start - x) <= 1e-12 * np.linalg.norm(x)
    # a zero column of the rhs solves to exactly zero whatever its guess
    rhs = np.column_stack([np.zeros(size), rhs])
    start = stepper._start(L, rhs, rng.normal(size=(size, 2)))
    assert not start[:, 0].any()


def _oracle_step(stepper, m, y, f):
    """One step solved by a fresh sparse LU factorisation of the assembled L_m."""
    A0 = assemble_ah(stepper.grid, stepper.coeffs, float(stepper.times[m]))
    A1 = assemble_ah(stepper.grid, stepper.coeffs, float(stepper.times[m + 1]))
    L = sp.identity(A1.shape[0], format="csc") - stepper.half_dt * A1
    return spla.splu(L.tocsc()).solve(y + stepper.half_dt * (A0 @ y) + f)


@pytest.mark.parametrize("d,n,time_dependent,b_amp", [
    (1, 15, False, 0.0), (1, 15, True, 0.8), (2, 7, False, 0.0), (2, 7, True, 0.8),
    (3, 5, True, 0.8)], ids=["d1-time-independent", "d1-time-dependent-advection",
                             "d2-time-independent", "d2-time-dependent-advection",
                             "d3-time-dependent-advection"])
def test_direct_steps_match_krylov_oracle(rng, d, n, time_dependent, b_amp):
    # every step of a march against a fresh LU solve of its own L_m
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=time_dependent, b_amp=b_amp)
    steps = 64
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, steps))
    y = rng.normal(size=g.primal(grid).size)
    for m in range(steps):
        f = rng.normal(size=y.size)
        want = _oracle_step(stepper, m, y, f)
        got = stepper.step(m, y, f)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), m
        y = got
    assert stepper.linear_solves == steps
    if d == 1:
        assert (stepper.factorisations, stepper.sweeps) == (steps, 0)
    elif time_dependent:
        assert 1 <= stepper.factorisations < steps
    else:
        assert (stepper.factorisations, stepper.sweeps) == (1, 0)


@pytest.mark.parametrize("d", [1, 2], ids=["direct-d1-time-dependent", "krylov-d2-time-dependent"])
def test_block_step_matches_column_steps(rng, d):
    grid = g.GridSpec(d, 15 if d == 1 else 7)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.8)
    block, column = (Stepper(grid, coeffs, TimeGrid(1.0, 64)) for _ in range(2))
    size = g.primal(grid).size
    y, f = rng.normal(size=(2, size, 3))
    for m in (0, 1, 40):
        got, res = block.step(m, y, f)
        steps = [column.step(m, y[:, j], f[:, j]) for j in range(3)]
        want = np.column_stack([x for x, _ in steps])
        assert got.shape == (size, 3)
        # a block refines until its worst column meets REFINE_TOL, so the other columns
        # may take more sweeps than they would alone: equal to the refinement tolerance
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert res <= 1e-10
        y = got
    assert block.linear_solves == 3
    if d == 1:
        assert (block.factorisations, block.sweeps) == (3, 0)
        assert (column.factorisations, column.sweeps) == (9, 0)
    else:
        assert block.factorisations < 3
        assert column.factorisations < 9


class _PerturbedLU:
    """A factor whose solves are 3 times too large in the last column.

    Refinement multiplies that column's error by 1 - 3 = -2 per sweep, so it
    cannot reach the residual contract.
    """

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        x.reshape(rhs.shape[0], -1)[:, -1] *= 3.0
        return x


_dgtsv = solver.dgtsv


def _perturbed_dgtsv(*args, **kw):
    """dgtsv with its solution 3 times too large in the last column."""
    *factors, x, info = _dgtsv(*args, **kw)
    x.reshape(x.shape[0], -1)[:, -1] *= 3.0
    return (*factors, x, info)


def test_direct_solve_enforces_residual_contract(rng, monkeypatch):
    # d = 1 solves by dgtsv, d = 2 by the lagged LU: each kernel gets a faulty last column
    monkeypatch.setattr(solver, "dgtsv", _perturbed_dgtsv)
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: _PerturbedLU(splu(A, **kw)))
    for grid in (GRID, g.GridSpec(2, 5)):
        size = g.primal(grid).size
        stepper = Stepper(grid, random_smooth_coefficients(rng, grid.d, 1.0), TimeGrid(1.0, 16))
        y, f = rng.normal(size=(2, size))
        with pytest.raises(SolverError, match="residual"):
            stepper.step(0, y, f)
        # only the last of three columns is off: the block's residual is the worst column's
        y, f = rng.normal(size=(2, size, 3))
        with pytest.raises(SolverError, match="residual"):
            stepper.step(0, y, f)


def test_tridiagonal_solve_rejects_singular_step(rng):
    # L = I with a zero last pivot, and a rhs whose last entry is zero: dgtsv reports the
    # pivot and leaves x = rhs, which meets L x = rhs exactly, so only the pivot check raises
    stepper = Stepper(GRID, random_smooth_coefficients(rng, 1, 1.0), TimeGrid(1.0, 16))
    L = stepper._frame(0)[0]
    L[:] = 0.0
    L[stepper._diag[:-1]] = 1.0
    f = rng.normal(size=15)
    f[-1] = 0.0
    with pytest.raises(SolverError, match="singular"):
        stepper.step(0, np.zeros(15), f)


def test_one_point_grid_marches(rng):
    # n = 1: f2py's dgtsv rejects empty off-diagonals
    grid = g.GridSpec(1, 1)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True, b_amp=0.8)
    tg = TimeGrid(1.0, 16)
    traj = solve_forward(grid, coeffs, product_sine_source, tg,
                         y_ini=g.MeshFunction(g.primal(grid), np.ones(1)))
    assert traj.diagnostics["max_linear_residual"] <= 1e-15
    stepper = Stepper(grid, coeffs, tg)
    y, f = rng.normal(size=(2, 1, 3))
    x, res = stepper.step(3, y, f)
    A0, A1 = (assemble_ah(grid, coeffs, float(t)).toarray()[0, 0] for t in tg.times[3:5])
    want = (y + stepper.half_dt * A0 * y + f) / (1.0 - stepper.half_dt * A1)
    assert np.allclose(x, want, rtol=1e-15, atol=0.0) and res <= 1e-15


@pytest.mark.parametrize("time_dependent", [False, True], ids=["time-independent", "time-dependent"])
def test_d1_steps_make_no_sparse_lu(rng, monkeypatch, time_dependent):
    def no_splu(*args, **kw):
        raise AssertionError("splu called at d = 1")

    monkeypatch.setattr(spla, "splu", no_splu)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=time_dependent, b_amp=0.8)
    traj = solve_forward(GRID, coeffs, product_sine_source, TimeGrid(1.0, 64))
    assert traj.diagnostics["linear_solves"] == 64


def test_solve_forward_rejects_wrong_initial_mesh():
    other = g.MeshFunction(g.dual_star(GRID, 0), np.zeros(16))
    with pytest.raises(Exception):
        solve_forward(GRID, CoefficientFields.constant(1),
                      lambda t, X: np.zeros(X.shape[0]), TimeGrid(1.0, 4), y_ini=other)


def test_coefficient_sampler_shape_validated():
    class BadSampler:
        def __call__(self, t, X):
            return np.zeros(3)  # wrong length

    bad = CoefficientFields(gamma=(BadSampler(),), b=None, c=ConstantField(0.0))
    with pytest.raises(GridError, match="shape"):
        assemble_ah(GRID, bad, 0.0)


def reference_assemble_ah(grid, coeffs, t):
    """A_h built entry by entry in COO form and converted to CSR: the oracle
    for the fixed-pattern fill."""
    Xp = g.primal(grid).physical
    gammas = []
    for ax in range(grid.d):
        star = g.dual_star(grid, ax)
        gam = np.asarray(coeffs.gamma[ax](t, star.physical), dtype=np.float64)
        if np.any(gam <= 0.0):
            k = int(np.argmin(gam))
            raise GridError(
                f"non-positive diffusion gamma_{ax}={gam[k]:.4g} at x={star.physical[k]}, t={t}")
        gammas.append(gam)
    bs = None if coeffs.b is None else [np.asarray(b(t, Xp), dtype=np.float64) for b in coeffs.b]
    return reference_stencil(grid, gammas, bs, np.asarray(coeffs.c(t, Xp), dtype=np.float64))


def reference_stencil(grid, gammas, bs, c):
    """The COO assembly of A_h from sampled values: gamma_i on dual_star(i),
    b_i (or None) and c on the primal mesh; no sign check."""
    pm = g.primal(grid)
    d, h, shape, size = grid.d, grid.h, pm.shape, pm.size
    idx = np.arange(size).reshape(shape)
    rows, cols, data = [], [], []
    diag = np.zeros(size)
    for ax in range(d):
        gam = np.broadcast_to(gammas[ax], (g.dual_star(grid, ax).size,))
        gam = gam.reshape(g.dual_star(grid, ax).shape)
        sl_lo = [slice(None)] * d
        sl_hi = [slice(None)] * d
        sl_lo[ax] = slice(None, -1)
        sl_hi[ax] = slice(1, None)
        g_minus = gam[tuple(sl_lo)]
        g_plus = gam[tuple(sl_hi)]
        diag += (-(g_plus + g_minus) / (h * h)).ravel()
        rows_up = idx[tuple(sl_lo)].ravel()
        cols_up = idx[tuple(sl_hi)].ravel()
        rows.extend([rows_up, cols_up])
        cols.extend([cols_up, rows_up])
        data.extend([(g_plus[tuple(sl_lo)] / (h * h)).ravel(),
                     (g_minus[tuple(sl_hi)] / (h * h)).ravel()])
        if bs is not None:
            bvals = np.broadcast_to(bs[ax], (size,)).reshape(shape)
            rows.extend([rows_up, cols_up])
            cols.extend([cols_up, rows_up])
            data.extend([(-bvals[tuple(sl_lo)] / (2.0 * h)).ravel(),
                         (bvals[tuple(sl_hi)] / (2.0 * h)).ravel()])
    diag -= c
    rows.append(np.arange(size))
    cols.append(np.arange(size))
    data.append(diag)
    A = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(size, size))
    return A.tocsr()


def apply_ah(grid, coeffs, t, u):
    """Matrix-free A_h through the difference/average operators: the oracle of
    the CSR fill's products."""
    pm = g.primal(grid)
    g.require_mesh(u, pm, "apply_ah argument")
    out = np.zeros(pm.size)
    for ax in range(grid.d):
        du = ops.diff(u, ax)
        gam = sample_frames(coeffs.gamma[ax], (t,), du.mesh.physical)[0]
        if np.any(gam <= 0.0):
            k = int(np.argmin(gam))
            raise GridError(
                f"non-positive diffusion gamma_{ax}={gam[k]:.4g} at x={du.mesh.physical[k]}, t={t}")
        out += ops.diff(g.MeshFunction(du.mesh, gam * du.values), ax).values
        if coeffs.b is not None:
            b = sample_frames(coeffs.b[ax], (t,), pm.physical)[0]
            out -= b * ops.avg_diff(u, ax).values
    out -= sample_frames(coeffs.c, (t,), pm.physical)[0] * u.values
    return g.MeshFunction(pm, out)


def apply_bh(grid, coeffs, t, u):
    """Matrix-free B_h u = sum_i D_i(dt(gamma_i) D_i u) - sum_i dt(b_i) D_i A_i u
    - dt(c) u, a missing derivative sampler counting as zero: the oracle of the
    fill of the derivative samplers."""
    pm = g.primal(grid)
    g.require_mesh(u, pm, "apply_bh argument")
    out = np.zeros(pm.size)
    for ax in range(grid.d):
        if coeffs.dt_gamma is not None:
            du = ops.diff(u, ax)
            dgam = sample_frames(coeffs.dt_gamma[ax], (t,), du.mesh.physical)[0]
            out += ops.diff(g.MeshFunction(du.mesh, dgam * du.values), ax).values
        if coeffs.dt_b is not None:
            dbv = sample_frames(coeffs.dt_b[ax], (t,), pm.physical)[0]
            out -= dbv * ops.avg_diff(u, ax).values
    if coeffs.dt_c is not None:
        out -= sample_frames(coeffs.dt_c, (t,), pm.physical)[0] * u.values
    return g.MeshFunction(pm, out)


def rate_fill(grid, coeffs, t) -> sp.csr_matrix:
    """B_h at time t as `solve_z_system` forms it: the `_stencil` fill of the
    coefficients' derivative samplers, on A_h's pattern."""
    vals = [sample_frames(f, (t,), X)
            for f, X in solver._field_points(grid, solver._rates(coeffs))]
    template = solver._pattern(grid, coeffs.b is not None)[0]
    return sp.csr_matrix((solver._stencil(grid, vals)[0], template.indices, template.indptr),
                         shape=template.shape)


def operator_at(stepper: Stepper, m: int) -> sp.csr_matrix:
    """A_h at frame m after the stepper has handed out that frame, which raises
    where the stepper's diffusion check flags it: `assemble_ah` is the
    one-frame fill."""
    stepper._frame(m)
    return assemble_ah(stepper.grid, stepper.coeffs, float(stepper.times[m]))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("time_dependent", [False, True], ids=["frozen", "time-dependent"])
@pytest.mark.parametrize("b_amp", [0.0, 0.3], ids=["no-advection", "advection"])
@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)], ids=["d1", "d2", "d3"])
def test_fill_matches_coo_reference_bitwise(rng, d, n, b_amp, time_dependent):
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=time_dependent, b_amp=b_amp)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 16))
    for m, t in enumerate(stepper.times):
        want = reference_assemble_ah(grid, coeffs, float(t))
        assert_same_csr(assemble_ah(grid, coeffs, float(t)), want)
        assert_same_csr(operator_at(stepper, m), want)


def test_fill_matches_coo_reference_constant_fields():
    for d in (1, 2, 3):
        grid = g.GridSpec(d, 5)
        for coeffs in (CoefficientFields.constant(d, gamma=1.5, c=0.25),
                       CoefficientFields.constant(d, gamma=0.5, b=0.75, c=-1.0)):
            assert_same_csr(assemble_ah(grid, coeffs, 0.25),
                            reference_assemble_ah(grid, coeffs, 0.25))


def test_cached_fill_rejects_nonpositive_diffusion_with_location():
    # gamma = 0.5 - 0.45 sin(pi x) rho(t), rho in [0.7, 1.3]: positive on some frames only
    gamma = SmoothField(base=0.5, amp=0.45, w=(1.0,), phase=math.pi, tamp=0.3)
    c = SmoothField(base=0.0, amp=0.5, w=(1.0,), tamp=0.2)
    coeffs = CoefficientFields(gamma=(gamma,), b=None, c=c,
                               dt_gamma=(FieldTimeDerivative(gamma),),
                               dt_c=FieldTimeDerivative(c))
    stepper = Stepper(GRID, coeffs, TimeGrid(1.0, 16))
    rejected = 0
    for m, t in enumerate(stepper.times):
        try:
            reference_assemble_ah(GRID, coeffs, float(t))
        except GridError as exc:
            with pytest.raises(GridError) as info:
                operator_at(stepper, m)
            assert str(info.value) == str(exc)
            assert "gamma_0" in str(exc) and "x=[" in str(exc) and f"t={float(t)}" in str(exc)
            rejected += 1
        else:
            operator_at(stepper, m)
    assert 0 < rejected < len(stepper.times)


@pytest.mark.parametrize("d,n,b_amp", [(1, 15, 0.0), (2, 7, 0.3), (3, 5, 0.3)])
def test_fill_equals_the_constructor_built_matrix(rng, d, n, b_amp):
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=b_amp)
    A, B = (assemble_ah(grid, coeffs, t) for t in (0.25, 0.75))
    want = sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)
    want.check_format(full_check=True)
    assert type(A) is type(want) and A.shape == want.shape
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(A, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    assert A.has_sorted_indices and A.has_canonical_format
    # the fills share the pattern's index arrays, which refuse in-place changes
    assert np.shares_memory(A.indices, B.indices) and np.shares_memory(A.indptr, B.indptr)
    assert not np.shares_memory(A.data, B.data)
    with pytest.raises(ValueError):
        A.indices[0] = 1
    with pytest.raises(ValueError):
        B.indptr[-1] = 0


def reference_separable(grid, coeffs, stepper):
    """(coef, basis) of I -+ dt/2 A_h(t_m) = coef[m] @ basis with each basis row
    A_h assembled in COO form: the bases, then each field's space alone, then I."""
    fields = [*coeffs.gamma, *(coeffs.b or ()), coeffs.c]
    points = [g.dual_star(grid, ax).physical for ax in range(grid.d)]
    points += [g.primal(grid).physical] * (len(fields) - grid.d)
    parts = [f.separable(X) for f, X in zip(fields, points)]
    rows = [[base for base, _, _ in parts]]
    for k, (_, space, _) in enumerate(parts):
        rows.append([0.0] * len(parts))
        rows[-1][k] = 0.0 if space is None else space
    basis = []
    for vals in rows:
        bs = vals[grid.d:-1] if coeffs.b is not None else None
        basis.append(reference_stencil(grid, vals[:grid.d], bs, vals[-1]))
    eye = reference_stencil(grid, [0.0] * grid.d, [0.0] * grid.d if coeffs.b else None, 0.0)
    eye.data[eye.indices == np.repeat(np.arange(eye.shape[0]), np.diff(eye.indptr))] = 1.0
    basis.append(eye)
    rho = np.ones((len(stepper.times), 1 + len(parts)))
    for k, (_, _, rho_k) in enumerate(parts):
        if rho_k is not None:
            rho[:, 1 + k] = rho_k(stepper.times)
    coef = np.ones((len(stepper.times), 2, 2 + len(parts)))
    coef[:, 0, :-1], coef[:, 1, :-1] = -stepper.half_dt * rho, stepper.half_dt * rho
    return coef, basis


@pytest.mark.parametrize("mode", ["one-frame-blocks", "five-frame-blocks", "time-independent"])
@pytest.mark.parametrize("b_amp", [0.0, 0.3], ids=["no-advection", "advection"])
@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)], ids=["d1", "d2", "d3"])
def test_block_frames_match_coo_reference_bitwise(rng, d, n, b_amp, mode):
    """Every frame the stepper hands out, in the walk the mode names over 17
    frames, matches a COO oracle bit for bit: I -+ dt/2 A_h(t_m) for frozen
    coefficients, and for time-dependent ones coef[m] @ basis, each basis row
    assembled in COO form from the separable parts."""
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=mode != "time-independent",
                                        b_amp=b_amp)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 16))
    if mode == "five-frame-blocks":   # runs of five, the last run first
        walk = [m for start in (15, 10, 5, 0) for m in range(start, min(start + 5, 17))]
    else:                             # forward one at a time, then back
        walk = [*range(17), 12, 3, 16, 0]
    if mode == "time-independent":
        assert stepper._held[0] == 0
        eye = sp.identity(g.primal(grid).size, format="csr")
    else:
        coef, basis = reference_separable(grid, coeffs, stepper)
        assert stepper._coef.tobytes() == coef.tobytes()
        for got, want in zip(stepper._basis, basis):
            assert_same_csr(sp.csr_matrix((got, stepper._template.indices,
                                           stepper._template.indptr), shape=want.shape), want)
        data = np.stack([want.data for want in basis])
    for m in walk:
        want = reference_assemble_ah(grid, coeffs, float(stepper.times[m]))
        assert_same_csr(operator_at(stepper, m), want)
        if mode == "time-independent":
            L, R = (sp.csr_matrix((data.copy(), want.indices, want.indptr), shape=want.shape)
                    for data in stepper._frame(m))
            assert np.array_equal(L.toarray(), (eye - stepper.half_dt * want).toarray())
            assert np.array_equal(R.toarray(), (eye + stepper.half_dt * want).toarray())
        else:
            assert stepper._frame(m).tobytes() == (coef[m] @ data).tobytes()


def _dense(stepper: Stepper, data: np.ndarray) -> np.ndarray:
    t = stepper._template
    return sp.csr_matrix((data.copy(), t.indices, t.indptr), shape=t.shape).toarray()


@pytest.mark.parametrize("b_amp", [0.0, 0.3], ids=["no-advection", "advection"])
@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)], ids=["d1", "d2", "d3"])
def test_frames_match_the_one_frame_fill(rng, d, n, b_amp):
    """L_m and R_m of the separable basis are I -+ dt/2 assemble_ah(t_m) within a
    few ulp of each row's largest entry; frozen coefficients match bit for bit."""
    grid = g.GridSpec(d, n)
    eye = np.eye(g.primal(grid).size)
    for time_dependent in (True, False):
        coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=time_dependent,
                                            b_amp=b_amp)
        stepper = Stepper(grid, coeffs, TimeGrid(1.0, 16))
        for m, t in enumerate(stepper.times):
            A = assemble_ah(grid, coeffs, float(t)).toarray()
            for data, sign in zip(stepper._frame(m), (-1.0, 1.0)):
                got, want = _dense(stepper, data), eye + sign * stepper.half_dt * A
                if time_dependent:
                    scale = np.max(np.abs(want), axis=1, keepdims=True)
                    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
                else:
                    assert np.array_equal(got, want)
        if not time_dependent:
            A = assemble_ah(grid, coeffs, 0.0).data
            want = np.multiply.outer([-stepper.half_dt, stepper.half_dt], A)
            want[:, stepper._diag] += 1.0
            assert all(stepper._frame(m).tobytes() == want.tobytes() for m in (0, 7, 16))


@pytest.mark.parametrize("d,n", [(1, 15), (2, 7)], ids=["d1", "d2"])
def test_frame_bytes_do_not_depend_on_access_order(rng, d, n):
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    tg = TimeGrid(1.0, 96)
    orders = {
        "march": [k for m in range(tg.steps) for k in (m, m + 1)],   # R_m, then L_m
        "stride": [k for m in range(0, tg.steps, 2) for k in (m, m + 1)],
        "reverse": list(range(tg.steps, -1, -1)),
    }
    frames = {}
    for name, order in orders.items():
        stepper = Stepper(grid, coeffs, tg)
        for m in order:
            frames.setdefault(m, set()).add(stepper._frame(m).tobytes())
    assert len(frames) == tg.steps + 1 and all(len(seen) == 1 for seen in frames.values())


def test_diffusion_flags_equal_the_sampled_check():
    # rho = 1 + 3 sin(2 pi t + 1) spans [-2, 4]; S = sin(pi x) > 0 on the grid, so
    # gamma_0 (amp > 0) turns non-positive only where rho < 0 and gamma_1 only where
    # rho > 0: each branch of the flag decides some frames
    gammas = tuple(SmoothField(base=0.5, amp=amp, w=(1.0, 0.0), tamp=3.0, tphase=1.0)
                   for amp in (0.4, -0.4))
    c = SmoothField(base=0.0, amp=0.5, w=(1.0, 1.0), tamp=0.2)
    coeffs = CoefficientFields(gamma=gammas, b=None, c=c,
                               dt_gamma=tuple(FieldTimeDerivative(gm) for gm in gammas),
                               dt_c=FieldTimeDerivative(c))
    grid = g.GridSpec(2, 7)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 64))
    rho = 1.0 + 3.0 * np.sin(2.0 * math.pi * stepper.times + 1.0)
    flagged = []
    for ax, gm in enumerate(gammas):
        X = g.dual_star(grid, ax).physical
        flagged.append(np.array([(gm(float(t), X) <= 0.0).any() for t in stepper.times]))
    assert 0 < flagged[0].sum() and not (flagged[0] & (rho >= 0.0)).any()
    assert 0 < flagged[1].sum() and not (flagged[1] & (rho < 0.0)).any()
    assert np.array_equal(stepper._bad, flagged[0] | flagged[1])
    for m in np.flatnonzero(stepper._bad)[:3].tolist():
        with pytest.raises(GridError, match="non-positive diffusion gamma_"):
            stepper._frame(m)


def test_time_dependent_field_without_separable_form_raises_at_construction():
    class Plain:
        def __call__(self, t, X):
            return np.full(np.atleast_2d(X).shape[0], 1.0 + 0.1 * t)

    gamma = SmoothField(base=1.0, amp=0.2, w=(1.0,), tamp=0.2)
    coeffs = CoefficientFields(gamma=(gamma,), b=None, c=Plain(),
                               dt_gamma=(FieldTimeDerivative(gamma),), dt_c=Plain())
    with pytest.raises(GridError, match="Plain has no separable form"):
        Stepper(GRID, coeffs, TimeGrid(1.0, 16))
    # frozen, the same field takes the one-frame fill
    Stepper(GRID, CoefficientFields(gamma=(gamma,), b=None, c=Plain()), TimeGrid(1.0, 16))


def test_basis_fill_peaks_below_twice_the_basis():
    # a time-dependent d = 3 stepper with advection: a fill of all 2 + F rows in one
    # pass holds several times the basis in temporaries, while at N = 15 the fill
    # takes one row a pass.  The first build warms the pattern cache; the second is
    # measured.
    grid = g.GridSpec(3, 15)
    coeffs = random_smooth_coefficients(np.random.default_rng(3), 3, 1.0,
                                        time_dependent=True, b_amp=0.3)
    Stepper(grid, coeffs, TimeGrid(1.0, 256))
    tracemalloc.start()
    try:
        stepper = Stepper(grid, coeffs, TimeGrid(1.0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stepper._basis.nbytes, (peak, stepper._basis.nbytes)


@pytest.mark.parametrize("d,n", [(1, 15), (2, 7)], ids=["d1", "d2"])
def test_direct_product_equals_csr_matmul_bitwise(rng, d, n):
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    stepper = Stepper(grid, coeffs, TimeGrid(1.0, 16))
    size = g.primal(grid).size
    states = [rng.normal(size=size), rng.normal(size=2 * size)[::2], rng.normal(size=(size, 1)),
              rng.normal(size=(size, 4)), np.asfortranarray(rng.normal(size=(size, 4))),
              rng.normal(size=(size, 8))[:, ::2], rng.normal(size=(size, size))]
    for m in (0, 9, 16):
        A = assemble_ah(grid, coeffs, float(stepper.times[m])).data
        for data in (A, *stepper._frame(m)):
            M = sp.csr_matrix((data.copy(), stepper._template.indices.copy(),
                               stepper._template.indptr.copy()), shape=(size, size))
            for x in states:
                got, want = stepper._product(data, x), M @ x
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the whole-march kernel against the step loop -------------------------------------


def _step_loop(stepper, y0, F, m0=0):
    """The oracle of `Stepper.march`: one `step` per forcing row, its frames and
    largest residual."""
    frames, worst = [np.asarray(y0, dtype=np.float64)], 0.0
    for k, f in enumerate(F):
        y, res = stepper.step(m0 + k, frames[-1], f)
        frames.append(y)
        worst = max(worst, res)
    return np.array(frames), worst


def _raised(fn, *args):
    """The type and message of what fn(*args) raises."""
    with pytest.raises((SolverError, GridError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


# 2 CHECK_STEPS + 22 steps: from 0 and from the mid frame, neither a multiple of the block
MARCH_STEPS = 2 * solver.CHECK_STEPS + 22


def _states(rng, n, cols, *lead):
    """Random-normal states of shape (*lead, n): one state, or blocks of `cols` columns
    ("n" for n columns, as the normal equations march)."""
    k = n if cols == "n" else cols
    return rng.normal(size=(*lead, n) if k is None else (*lead, n, k))


@pytest.mark.parametrize("n", [1, 2, 15, 63])
@pytest.mark.parametrize("time_dependent,b_amp", [(False, 0.0), (False, 0.8), (True, 0.0),
                                                  (True, 0.8)],
                         ids=["time-independent", "time-independent-advection",
                              "time-dependent", "time-dependent-advection"])
def test_march_equals_the_step_loop_bitwise(rng, n, time_dependent, b_amp):
    # one state, a block of 3 and a block of n columns, as the normal equations march
    grid = g.GridSpec(1, n)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=time_dependent, b_amp=b_amp)
    tg = TimeGrid(1.0, MARCH_STEPS)
    for cols, m0 in itertools.product((None, 3, "n"), (0, tg.mid)):
        y0, F = _states(rng, n, cols), _states(rng, n, cols, tg.steps - m0)
        fast, slow = (Stepper(grid, coeffs, tg) for _ in range(2))
        frames, worst = fast.march(y0, F, m0)
        want, want_worst = _step_loop(slow, y0, F, m0)
        assert frames.shape == want.shape and frames.tobytes() == want.tobytes()
        if cols is None:   # the same residuals, whose norms may be summed in another order
            assert math.isclose(worst, want_worst, rel_tol=1e-12)
        else:   # a block's check takes the step's own products and column norms
            assert worst == want_worst
        assert worst <= 1e-10
        # one exact elimination a step
        counters = [(s.factorisations, s.sweeps, s.linear_solves) for s in (fast, slow)]
        assert counters[0] == counters[1] == (tg.steps - m0, 0, tg.steps - m0)


def test_march_at_d2_is_the_step_loop(rng):
    # time-independent and time-dependent coefficients, with and without advection, from
    # 0 and from the mid frame; the smooth march keeps its blended starts, the rough one
    # starts stiff columns from zero
    grid = g.GridSpec(2, 7)
    tg = TimeGrid(1.0, 46)
    X = g.primal(grid).physical
    for time_dependent, b_amp in ((False, 0.8), (True, 0.0), (True, 0.8)):
        coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=time_dependent,
                                            b_amp=b_amp)
        for init, m0 in itertools.product(("rough", "smooth"), (0, tg.mid)):
            steps = tg.steps - m0
            if init == "rough":
                y0, F = rng.normal(size=49), rng.normal(size=(steps, 49))
            else:
                y0 = g.sample(g.primal(grid), random_bump(rng, 2)).values
                F = np.outer(np.cos(tg.times[m0:-1]), product_sine(X)) * tg.dt
            fast, slow = (Stepper(grid, coeffs, tg) for _ in range(2))
            frames, worst = fast.march(y0, F, m0)
            want, want_worst = _step_loop(slow, y0, F, m0)
            assert frames.shape == want.shape and frames.tobytes() == want.tobytes()
            assert worst == want_worst and worst <= solver.REFINE_TOL
            counters = [(s.factorisations, s.sweeps, s.linear_solves) for s in (fast, slow)]
            assert counters[0] == counters[1] and counters[0][2] == steps


def _d2_flagged(tphase: float = -0.5) -> CoefficientFields:
    """d = 2 fields whose gamma_0 = 0.5 - 0.45 sin(pi x) rho(t) is non-positive on frames
    10 to 32 of a 64-step grid."""
    gamma = SmoothField(base=0.5, amp=0.45, w=(1.0, 0.0), phase=math.pi, tamp=0.3, tphase=tphase)
    flat = SmoothField(base=1.0, amp=0.0, w=(0.0, 0.0))
    c = SmoothField(base=0.0, amp=0.5, w=(1.0, 1.0), tamp=0.2)
    return CoefficientFields(gamma=(gamma, flat), b=None, c=c,
                             dt_gamma=(FieldTimeDerivative(gamma), FieldTimeDerivative(flat)),
                             dt_c=FieldTimeDerivative(c))


_splu = spla.splu


def _faulty_splu(after: int):
    """splu whose factors' solves are 3 times too large from the given solve on,
    counted from 1 over every factor it makes."""
    calls = [0]

    class Faulty:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls[0] += 1
            return self.lu.solve(rhs) * (3.0 if calls[0] >= after else 1.0)

    return lambda A, **kw: Faulty(_splu(A, **kw))


def test_march_at_d2_raises_what_the_loop_raises_at_its_step(rng, monkeypatch):
    grid, tg = g.GridSpec(2, 7), TimeGrid(1.0, 64)
    coeffs = _d2_flagged()
    first = int(np.argmax(Stepper(grid, coeffs, tg)._bad))
    assert first == 10
    y0 = g.sample(g.primal(grid), random_bump(rng, 2)).values
    F = np.zeros((64, 49))

    def both(F, m0=0):
        """What the march and the step loop raise, each on a fresh stepper."""
        got = _raised(Stepper(grid, coeffs, tg).march, y0, F[m0:], m0)
        assert got == _raised(_step_loop, Stepper(grid, coeffs, tg), y0, F[m0:], m0)
        return got

    # a flagged frame raises at the step whose L it is, from 0 and from a flagged
    # start frame
    with pytest.raises(GridError) as info:
        assemble_ah(grid, coeffs, float(tg.times[first]))
    assert both(F) == (GridError, str(info.value))
    with pytest.raises(GridError) as info:
        assemble_ah(grid, coeffs, float(tg.times[16]))
    assert both(F, 16) == (GridError, str(info.value))
    # a NaN source at a step before the flagged frame comes first
    F[7] = np.nan
    assert both(F) == (SolverError, f"non-finite state at step 8 (t={tg.times[8]})")
    # so does a step that breaks the residual contract, early or just before the
    # flagged frame: a factor that turns faulty mid-march leaves every later step,
    # refactorised too, short of it
    F[7] = 0.0
    for after in (26, 50):
        monkeypatch.setattr(spla, "splu", _faulty_splu(after))
        got = _raised(Stepper(grid, coeffs, tg).march, y0, F)
        monkeypatch.setattr(spla, "splu", _faulty_splu(after))
        assert got == _raised(_step_loop, Stepper(grid, coeffs, tg), y0, F)
        assert got[0] is SolverError and "linear solve failed at step" in got[1]
        assert int(got[1].split("step ")[1].split(":")[0]) < first


@pytest.mark.parametrize("d,n", [(1, 15), (1, 63), (2, 15)])
def test_batched_frames_equal_the_per_frame_product_bitwise(rng, d, n):
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    stepper = Stepper(g.GridSpec(d, n), coeffs, TimeGrid(1.0, 64))
    for m0, count in ((0, 65), (32, 33), (5, 1)):
        batch = stepper._frames(m0, count)
        for k in range(count):
            assert batch[k].tobytes() == stepper._frame(m0 + k).tobytes()


@pytest.mark.parametrize("n", [1, 2, 15, 63])
def test_banded_product_equals_the_csr_kernel_bitwise(rng, n):
    # the block check's L x against `_product`, on the bands a march gathers
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True, b_amp=0.8)
    stepper = Stepper(g.GridSpec(1, n), coeffs, TimeGrid(1.0, 16))
    L = stepper._frames(0, 17)[:, 0]
    X = rng.normal(size=(17, n))
    got = solver._banded([L[:, s] for s in stepper._bands], X)
    want = np.array([stepper._product(L[k], X[k]) for k in range(17)])
    assert got.tobytes() == want.tobytes()


def _faulty_dgtsv(call: int):
    """dgtsv with its solution 3 times too large on the given call, counted from 1."""
    calls = [0]

    def faulty(*args, **kw):
        calls[0] += 1
        return _perturbed_dgtsv(*args, **kw) if calls[0] == call else _dgtsv(*args, **kw)
    return faulty


def test_march_raises_at_the_first_step_that_breaks_the_contract(rng, monkeypatch):
    tg = TimeGrid(1.0, 100)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True, b_amp=0.8)
    # every step off: the first one raises
    monkeypatch.setattr(solver, "dgtsv", _perturbed_dgtsv)
    with pytest.raises(SolverError, match="at step 1: relative residual"):
        solve_forward(GRID, coeffs, product_sine_source, tg)
    # one step in the second check block off: the march raises it, as the loop does, for
    # one state and for a block
    for cols, call in itertools.product((None, 3), (70, 100)):
        y0, F = _states(rng, 15, cols), _states(rng, 15, cols, 100)
        monkeypatch.setattr(solver, "dgtsv", _faulty_dgtsv(call))
        got = _raised(Stepper(GRID, coeffs, tg).march, y0, F)
        monkeypatch.setattr(solver, "dgtsv", _faulty_dgtsv(call))
        assert got == _raised(_step_loop, Stepper(GRID, coeffs, tg), y0, F)
        assert got[0] is SolverError and f"at step {call}: relative residual" in got[1]


def test_march_raises_at_the_first_non_finite_step():
    class ExplodingSource:
        def __call__(self, t, X):
            return np.full(X.shape[0], np.nan if t > 0.5 else 0.0)

    tg = TimeGrid(1.0, 100)
    coeffs = CoefficientFields.constant(1)
    F = solver.sample_frames(ExplodingSource(), tg.times, g.primal(GRID).physical)
    F = F[:-1] + F[1:]
    got = _raised(Stepper(GRID, coeffs, tg).march, np.zeros(15), F)
    assert got == _raised(_step_loop, Stepper(GRID, coeffs, tg), np.zeros(15), F)
    assert got == (SolverError, "non-finite state at step 51 (t=0.51)")
    with pytest.raises(SolverError, match="non-finite state at step 51"):
        solve_forward(GRID, coeffs, ExplodingSource(), tg)


def test_march_raises_a_zero_pivot_at_its_step(rng, monkeypatch):
    tg = TimeGrid(1.0, 100)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True, b_amp=0.8)

    def singular_at(frame):
        stepper = Stepper(GRID, coeffs, tg)
        stepper._coef[frame, 0] = 0.0   # L_{frame - 1} = 0: a zero pivot in row 1
        return stepper

    for cols in (None, 3):   # one state and a block
        y0, F = _states(rng, 15, cols), _states(rng, 15, cols, 100)
        # mid-block, and first in the first and the second check block
        for frame in (70, 1, solver.CHECK_STEPS + 1):
            got = _raised(singular_at(frame).march, y0, F)
            assert got == _raised(_step_loop, singular_at(frame), y0, F)
            assert got[0] is SolverError and got[1].startswith(f"singular L at step {frame} ")
        # a step earlier in the same check block that breaks the contract comes first
        monkeypatch.setattr(solver, "dgtsv", _faulty_dgtsv(66))
        got = _raised(singular_at(70).march, y0, F)
        monkeypatch.setattr(solver, "dgtsv", _faulty_dgtsv(66))
        assert got == _raised(_step_loop, singular_at(70), y0, F)
        assert "at step 66: relative residual" in got[1]


def _flagged(tphase: float) -> CoefficientFields:
    """d = 1 fields whose gamma = 0.5 - 0.45 sin(pi x) rho(t), rho in [0.7, 1.3], is
    positive on some frames only."""
    gamma = SmoothField(base=0.5, amp=0.45, w=(1.0,), phase=math.pi, tamp=0.3, tphase=tphase)
    c = SmoothField(base=0.0, amp=0.5, w=(1.0,), tamp=0.2)
    return CoefficientFields(gamma=(gamma,), b=None, c=c, dt_gamma=(FieldTimeDerivative(gamma),),
                             dt_c=FieldTimeDerivative(c))


def test_march_rejects_nonpositive_diffusion_as_the_loop_does(rng):
    for cols in (None, 3):   # one state and a block
        # the first flagged frame raises, at the step whose L it is
        coeffs, tg = _flagged(0.0), TimeGrid(1.0, 16)
        y0, F = _states(rng, 15, cols), np.zeros((16, *_states(rng, 15, cols).shape))
        first = int(np.argmax(Stepper(GRID, coeffs, tg)._bad))
        with pytest.raises(GridError) as info:
            assemble_ah(GRID, coeffs, float(tg.times[first]))
        got = _raised(Stepper(GRID, coeffs, tg).march, y0, F)
        assert got == _raised(_step_loop, Stepper(GRID, coeffs, tg), y0, F)
        assert got == (GridError, str(info.value))
        # frame 25 of 64 is the first flagged one, inside the first check block: a NaN
        # forcing row at step 20 raises first, as in the loop, which solves every step
        # before the flagged frame
        coeffs, tg = _flagged(-2.0), TimeGrid(1.0, 64)
        assert int(np.argmax(Stepper(GRID, coeffs, tg)._bad)) == 25 < solver.CHECK_STEPS
        F = np.zeros((64, *y0.shape))
        F[20] = np.nan
        got = _raised(Stepper(GRID, coeffs, tg).march, y0, F)
        assert got == _raised(_step_loop, Stepper(GRID, coeffs, tg), y0, F)
        assert got == (SolverError, f"non-finite state at step 21 (t={tg.times[21]})")
        # without it the flagged frame raises, from 0 and from starts before it and at it
        F[20] = 0.0
        with pytest.raises(GridError) as info:
            assemble_ah(GRID, coeffs, float(tg.times[25]))
        for m0 in (0, 10, 24, 25):
            got = _raised(Stepper(GRID, coeffs, tg).march, y0, F[m0:], m0)
            assert got == _raised(_step_loop, Stepper(GRID, coeffs, tg), y0, F[m0:], m0)
            assert got == (GridError, str(info.value))

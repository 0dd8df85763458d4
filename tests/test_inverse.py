import math

import numpy as np
import pytest

from carlstab import experiments, inverse
from carlstab import grid as g
from carlstab import operators as ops
from carlstab.carleman import verify_cells
from carlstab.coefficients import CoefficientFields, random_smooth_coefficients, sample_frames
from carlstab.cli import main
from carlstab.errors import (AdmissibilityError, CertificationError, EmptyMaskError,
                             GridError, SolverError)
from carlstab.inverse import (AdmissibleSource, FourierBump, SeparableSource, SineTimeProfile,
                              _normal_equations, add_observation_noise,
                              certify_separable, observe, random_bump, random_separable_source,
                              reconstruct_source, recover_coefficient, stability_quotient)
from carlstab.solver import (Stepper, TimeGrid, Trajectory, central_time_derivative,
                             solve_forward, solve_z_system)
from carlstab.weights import Box, CarlemanWeight, WeightParams

GRID = g.GridSpec(1, 15)
OMEGA = Box.cube(0.2, 0.8, 1)
OMEGA0 = Box.cube(0.35, 0.65, 1)


def make_weight(tau=3.0, delta=0.5):
    return CarlemanWeight(GRID, WeightParams(T=1.0, tau=tau, delta=delta), OMEGA0, OMEGA)


def solved_pair(seed=11, steps=256, y_ini=None):
    rng = np.random.default_rng(seed)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=False)
    tg = TimeGrid(1.0, steps)
    adm = certify_separable(random_separable_source(rng, GRID.d, tg.T), GRID, tg)
    traj = solve_forward(GRID, coeffs, adm.g, tg, y_ini=y_ini)
    z = solve_z_system(traj, adm.g)
    return coeffs, adm, traj, z


def certify_source(g_fn, dt_fn, grid: g.GridSpec, time_grid: TimeGrid) -> float:
    """Smallest constant with |dt g| <= C |g(T/2, x)| on the sampled grid: the
    oracle of `certify_separable`'s closed form, for any pair of samplers."""
    X = g.primal(grid).physical
    ref = np.abs(np.asarray(g_fn(time_grid.times[time_grid.mid], X), dtype=np.float64))
    dtv = np.abs(sample_frames(dt_fn, time_grid.times, X))
    dead = ref <= 0.0
    bad = np.any(dtv[:, dead] > 1e-14 * np.maximum(1.0, dtv.max(axis=1, keepdims=True)), axis=1)
    if np.any(bad):
        m = int(np.argmax(bad))
        k = int(np.argmax(np.where(dead, dtv[m], -np.inf)))
        raise CertificationError(
            f"|dt g| > 0 where g(T/2, x) = 0 at t={float(time_grid.times[m])}, x={X[k]}")
    return 0.0 if np.all(dead) else float(np.max(dtv[:, ~dead] / ref[~dead]))


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_certificate_matches_sampled_oracle(d):
    # each sampled ratio |f R'_m| / |f R(T/2)| rounds three times against the
    # closed form's one division
    rng = np.random.default_rng(40 + d)
    for n in (7, 15, 31):
        grid = g.GridSpec(d, n)
        for steps in (16, 64, 256):
            tg = TimeGrid(1.0, steps)
            src = random_separable_source(rng, d, tg.T)
            want = certify_source(src, src.dt, grid, tg)
            got = certify_separable(src, grid, tg).c_g
            assert want > 0.0 and abs(got / want - 1.0) <= 4 * 2.0 ** -52, (n, steps, got, want)
    vanishing = SeparableSource(FourierBump((0.0,), ((1,) * d,)), SineTimeProfile())
    grid, tg = g.GridSpec(d, 7), TimeGrid(1.0, 16)
    assert certify_separable(vanishing, grid, tg).c_g == 0.0
    assert certify_source(vanishing, vanishing.dt, grid, tg) == 0.0


def test_certificate_r_constant_gives_zero():
    profile = random_bump(np.random.default_rng(0), 1)
    src = SeparableSource(profile, SineTimeProfile(1.0, 0.0, 0.0, 1.0))
    adm = certify_separable(src, GRID, TimeGrid(1.0, 64))
    assert adm.c_g == 0.0


def test_certificate_matches_dense_sampling():
    rng = np.random.default_rng(1)
    tg = TimeGrid(1.0, 256)
    adm = certify_separable(random_separable_source(rng, GRID.d, tg.T), GRID, tg)
    on_grid = np.max(np.abs(adm.r.dt(tg.times))) / abs(float(adm.r(0.5)))
    assert adm.c_g == pytest.approx(on_grid, rel=1e-12)
    # dense oracle agrees up to the grid's sampling resolution
    dense = np.linspace(0, 1, 20001)
    expected = np.max(np.abs(adm.r.dt(dense))) / abs(float(adm.r(0.5)))
    assert adm.c_g == pytest.approx(expected, rel=1e-4)


def test_zero_crossing_profile_rejected():
    profile = random_bump(np.random.default_rng(2), 1)
    src = SeparableSource(profile, SineTimeProfile(0.2, 0.5, 0.0, 1.0))
    with pytest.raises(CertificationError):
        certify_separable(src, GRID, TimeGrid(1.0, 64))


def test_general_mode_certifies_or_rejects():
    tg = TimeGrid(1.0, 64)

    def g_fn(t, X):
        return np.cos(np.pi * X[:, 0] / 4.0) * (1.5 + math.sin(2 * math.pi * t) / 2.0)

    def dt_fn(t, X):
        return np.cos(np.pi * X[:, 0] / 4.0) * (math.pi * math.cos(2 * math.pi * t))

    assert certify_source(g_fn, dt_fn, GRID, tg) > 0

    def bad_g(t, X):
        return np.maximum(X[:, 0] - 0.5, 0.0)  # vanishes at T/2 on half the grid

    def bad_dt(t, X):
        return np.ones(X.shape[0])

    with pytest.raises(CertificationError):
        certify_source(bad_g, bad_dt, GRID, tg)


def zero_source():
    return AdmissibleSource(g=lambda t, X: np.zeros(X.shape[0]), c_g=0.0)


def test_observation_zero_run():
    coeffs = CoefficientFields.constant(1)
    tg = TimeGrid(1.0, 64)
    traj = solve_forward(GRID, coeffs, lambda t, X: np.zeros(X.shape[0]), tg)
    z = Trajectory(GRID, tg, np.zeros_like(traj.values))
    obs = observe(traj, OMEGA)
    assert not obs.snapshot.values.any() and not obs.local_y.any()
    assert stability_quotient(traj, z, zero_source(), make_weight()).rhs_observed == 0.0


def test_observation_norms_match_direct_sum():
    # rhs_observed = ||y(T/2)||_H2 + ||e^{s phi} dt y||_{L2(Q_omega)} + ||e^{s phi} y||_{L2(Q_omega)}
    coeffs, adm, traj, z = solved_pair(seed=21, steps=64)
    w = make_weight()
    pm = g.primal(GRID)
    mask = OMEGA.mask(pm.physical)
    phi = w.phi(pm.physical[mask])
    tg = traj.time_grid

    def weighted_sum(frames):
        total = 0.0
        for m, t in enumerate(tg.times):
            tw = tg.dt if 0 < m < tg.steps else tg.dt / 2
            st = w.params.tau * float(w.theta(float(t)))
            total += tw * GRID.h * sum(v * v * math.exp(2 * st * p)
                                       for v, p in zip(frames[m][mask], phi))
        return total

    direct = (ops.h2_norm(traj.frame(tg.mid)) + math.sqrt(weighted_sum(z.values))
              + math.sqrt(weighted_sum(traj.values)))
    res = stability_quotient(traj, z, adm, w)
    assert res.rhs_observed == pytest.approx(direct, rel=1e-10)


def test_empty_observation_box_is_a_grid_error(tmp_path, capsys):
    # on N = 7 the primal points sit at multiples of 1/8: none lies in [0.51, 0.62]
    grid = g.GridSpec(1, 7)
    omega = Box.cube(0.51, 0.62, 1)
    traj = Trajectory(grid, TimeGrid(1.0, 16), np.ones((17, 7)))
    with pytest.raises(GridError, match="no primal points"):
        observe(traj, omega)
    w = CarlemanWeight(grid, WeightParams(T=1.0, tau=3.0), Box.cube(0.55, 0.58, 1), omega)
    with pytest.raises(GridError, match="no primal points"):
        verify_cells(traj, lambda t, X: np.zeros(X.shape[0]), CoefficientFields.constant(1),
                     [(w, 0)])
    args = ["reconstruct", "--set", "reconstruct.n=7", "--set", "domain.omega=0.51:0.62",
            "--set", "domain.omega0=0.55:0.58", "--out", str(tmp_path)]
    assert main(args) == 1
    assert ("GridError: observation box contains no primal points on this grid"
            in capsys.readouterr().err)


@pytest.mark.parametrize("call", [
    lambda traj, src: observe(traj, OMEGA),
    lambda traj, src: solve_z_system(traj, src),
    lambda traj, src: certify_separable(src, GRID, traj.time_grid),
    lambda traj, src: recover_coefficient(traj.frame(0), traj.values[0], traj.time_grid,
                                          CoefficientFields.constant(1), alpha=0.0),
], ids=["observe", "solve_z_system", "certify_separable", "recover_coefficient"])
def test_mid_time_needs_even_steps(call):
    # 63 steps leave no frame at T/2, where every observation is taken
    src = random_separable_source(np.random.default_rng(22), GRID.d, 1.0)
    traj = Trajectory(GRID, TimeGrid(1.0, 63), np.ones((64, g.primal(GRID).size)))
    with pytest.raises(GridError, match="T/2"):
        call(traj, src)


def test_omega_monotonicity_of_observation():
    coeffs, adm, traj, z = solved_pair(seed=23, steps=64)
    w = make_weight()
    w_small = CarlemanWeight(GRID, w.params, OMEGA0, Box.cube(0.3, 0.7, 1))
    small = stability_quotient(traj, z, adm, w_small)
    large = stability_quotient(traj, z, adm, w)
    assert small.rhs_observed <= large.rhs_observed


def test_stability_quotient_zero_source():
    coeffs = CoefficientFields.constant(1)
    tg = TimeGrid(1.0, 64)
    traj = solve_forward(GRID, coeffs, lambda t, X: np.zeros(X.shape[0]), tg)
    z = Trajectory(GRID, tg, np.zeros_like(traj.values))
    res = stability_quotient(traj, z, zero_source(), make_weight())
    assert res.lhs == 0.0 and res.quotient == 0.0


def test_stability_quotient_zero_initial_data():
    coeffs, adm, traj, z = solved_pair(seed=31)
    res = stability_quotient(traj, z, adm, make_weight())
    # y(0) = 0 kills the y-part; z(0) = g(0) != 0 but the prefactor crushes it
    assert res.rhs_error_term <= 1e-50 * res.rhs_observed
    assert math.isfinite(res.quotient) and res.quotient > 0
    assert res.reduced_quotient > 0


def test_stability_quotient_scale_invariance():
    rng = np.random.default_rng(41)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=False)
    tg = TimeGrid(1.0, 128)
    adm = certify_separable(random_separable_source(rng, GRID.d, tg.T), GRID, tg)
    traj = solve_forward(GRID, coeffs, adm.g, tg)
    z = solve_z_system(traj, adm.g)
    res1 = stability_quotient(traj, z, adm, make_weight())

    class Scaled:
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, t, X):
            return 3.0 * self.fn(t, X)

    adm3 = AdmissibleSource(g=Scaled(adm.g), c_g=adm.c_g)
    traj3 = Trajectory(GRID, tg, 3.0 * traj.values)
    z3 = Trajectory(GRID, tg, 3.0 * z.values)
    res3 = stability_quotient(traj3, z3, adm3, make_weight())
    assert res3.lhs == pytest.approx(3.0 * res1.lhs, rel=1e-12)
    assert res3.quotient == pytest.approx(res1.quotient, rel=1e-10)


def test_stability_quotient_omega_shrink_monotone():
    coeffs, adm, traj, z = solved_pair(seed=43)
    w = make_weight()
    w_small = CarlemanWeight(GRID, w.params, OMEGA0, Box.cube(0.3, 0.7, 1))
    q_small = stability_quotient(traj, z, adm, w_small).quotient
    q_large = stability_quotient(traj, z, adm, w).quotient
    assert q_small >= q_large


def test_stability_quotient_rejects_inadmissible():
    coeffs, adm, traj, z = solved_pair(seed=44, steps=64)
    with pytest.raises(AdmissibilityError):
        stability_quotient(traj, z, adm, make_weight(tau=20.0))


def test_error_term_refinement_decay():
    rng = np.random.default_rng(51)
    y_prof = random_bump(rng, 1)
    src = SeparableSource(random_bump(rng, 1), SineTimeProfile(1.0, 0.5, 0.7, 1.0))
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=False)
    logs = []
    for n in (15, 31):
        grid = g.GridSpec(1, n)
        tg = TimeGrid(1.0, 128)
        adm = certify_separable(src, grid, tg)
        pm = g.primal(grid)
        y0 = g.MeshFunction(pm, y_prof(pm.physical))
        traj = solve_forward(grid, coeffs, adm.g, tg, y_ini=y0)
        z = solve_z_system(traj, adm.g)
        params = WeightParams(T=1.0, tau=2.5, delta=2.5 * grid.h / 0.5)
        w = CarlemanWeight(grid, params, OMEGA0, OMEGA)
        res = stability_quotient(traj, z, adm, w)
        logs.append(res.log_error_term)
    assert logs[1] < logs[0]


def _forward_image(grid, coeffs, r, tg, obs, f):
    """Reference: F f from one single-vector march of the forcing s_m f, in the weights of G."""
    cell = grid.h ** grid.d
    w = np.sqrt(tg.trap * cell)[:, None]
    r_vals = r(tg.times)
    stepper = Stepper(grid, coeffs, tg)
    frames = [np.zeros(f.size)]
    for m in range(tg.steps):
        frames.append(stepper.step(m, frames[-1], stepper.forcing(r_vals[m], r_vals[m + 1]) * f)[0])
    frames = np.array(frames)
    return np.concatenate([math.sqrt(cell) * frames[tg.mid],
                           (w * frames[:, obs.mask]).ravel()])


def _weighted_data(grid, tg, obs):
    cell = grid.h ** grid.d
    w = np.sqrt(tg.trap * cell)[:, None]
    return np.concatenate([math.sqrt(cell) * obs.snapshot.values, (w * obs.local_y).ravel()])


def _reconstruction_setup(rng, time_dependent, b_amp):
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=time_dependent,
                                        b_amp=b_amp)
    _, adm, traj, _ = solved_pair(seed=67, steps=256)
    obs = observe(traj, OMEGA)
    return coeffs, SineTimeProfile(1.0, 0.5, 0.2, 1.0), traj.time_grid, obs


COEFF_CASES = pytest.mark.parametrize("time_dependent,b_amp", [(False, 0.0), (True, 0.7)],
                                      ids=["time-independent", "time-dependent-advection"])


@COEFF_CASES
def test_normal_equations_match_column_oracle(rng, time_dependent, b_amp):
    # with advection L_m is nonsymmetric, so G = F^T F must not lean on L_m^T = L_m
    coeffs, r, tg, obs = _reconstruction_setup(rng, time_dependent, b_amp)
    gram, rhs, _ = _normal_equations(GRID, coeffs, r, tg, obs)
    F = np.array([_forward_image(GRID, coeffs, r, tg, obs, e_j)
                  for e_j in np.eye(g.primal(GRID).size)]).T
    want_gram, want_rhs = F.T @ F, F.T @ _weighted_data(GRID, tg, obs)
    assert np.linalg.norm(gram - want_gram) <= 1e-12 * np.linalg.norm(want_gram)
    assert np.linalg.norm(rhs - want_rhs) <= 1e-12 * np.linalg.norm(want_rhs)


def _step_loop_normal_equations(grid, coeffs, r, time_grid, observation):
    """The oracle of `_normal_equations`: the forcing block s_m I marched by one `step`
    per frame, each frame's share of G and F^T d added as it is formed."""
    size = g.primal(grid).size
    mask, cell = observation.mask, grid.h ** grid.d
    frame_w = time_grid.trap * cell
    r_vals = np.asarray(r(time_grid.times), dtype=np.float64)
    stepper = Stepper(grid, coeffs, time_grid)
    eye = np.eye(size)
    Y = np.zeros((size, size))
    gram, rhs = np.zeros((size, size)), np.zeros(size)
    for m in range(time_grid.steps):
        Y = stepper.step(m, Y, stepper.forcing(r_vals[m], r_vals[m + 1]) * eye)[0]
        local = Y[mask]
        gram += frame_w[m + 1] * (local.T @ local)
        rhs += frame_w[m + 1] * (local.T @ observation.local_y[m + 1])
        if m + 1 == time_grid.mid:
            gram += cell * (Y.T @ Y)
            rhs += cell * (Y.T @ observation.snapshot.values)
    return gram, rhs, stepper


@pytest.mark.parametrize("d,n,steps", [(1, 15, 256), (1, 31, 64), (2, 7, 32)])
def test_normal_equations_equal_the_step_loop_bitwise(rng, monkeypatch, d, n, steps):
    # the march in chunks of steps against the step loop: one chunk, and chunks of 7
    # steps, which the march's check blocks do not divide
    grid, tg = g.GridSpec(d, n), TimeGrid(1.0, steps)
    size = g.primal(grid).size
    r = SineTimeProfile(1.0, 0.5, 0.2, 1.0)
    for time_dependent, b_amp in ((False, 0.0), (False, 0.7), (True, 0.7)):
        coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=time_dependent,
                                            b_amp=b_amp)
        traj = solve_forward(grid, coeffs, random_separable_source(rng, d, 1.0), tg)
        obs = observe(traj, Box.cube(0.2, 0.8, d))
        want_gram, want_rhs, slow = _step_loop_normal_equations(grid, coeffs, r, tg, obs)
        for points in (inverse.MARCH_POINTS, 7 * size ** 2):
            monkeypatch.setattr(inverse, "MARCH_POINTS", points)
            gram, rhs, fast = _normal_equations(grid, coeffs, r, tg, obs)
            assert gram.tobytes() == want_gram.tobytes()
            if d == 1 or not time_dependent:
                assert rhs.tobytes() == want_rhs.tobytes()
            else:   # the loop's F^T d takes the mid state in the layout its solve left:
                # Fortran from a plain LU solve, C from a guessed start; the march's
                # frames keep one layout
                assert np.linalg.norm(rhs - want_rhs) <= 1e-14 * np.linalg.norm(want_rhs)
            assert ((fast.factorisations, fast.sweeps, fast.linear_solves)
                    == (slow.factorisations, slow.sweeps, slow.linear_solves))


@COEFF_CASES
def test_forward_map_adjoint_identity(rng, time_dependent, b_amp):
    # <F f1, F f2> = f1^T G f2 and <F f, d> = f^T F^T d for random f, without building F
    coeffs, r, tg, obs = _reconstruction_setup(rng, time_dependent, b_amp)
    gram, rhs, _ = _normal_equations(GRID, coeffs, r, tg, obs)
    d = _weighted_data(GRID, tg, obs)
    for _ in range(3):
        f1, f2 = rng.normal(size=(2, g.primal(GRID).size))
        Ff1 = _forward_image(GRID, coeffs, r, tg, obs, f1)
        Ff2 = _forward_image(GRID, coeffs, r, tg, obs, f2)
        scale = np.linalg.norm(Ff1) * max(np.linalg.norm(Ff2), np.linalg.norm(d))
        assert float(f1 @ gram @ f2) == pytest.approx(float(Ff1 @ Ff2), rel=1e-9,
                                                      abs=1e-12 * scale)
        assert float(f1 @ rhs) == pytest.approx(float(Ff1 @ d), rel=1e-9, abs=1e-12 * scale)


def test_forward_map_factorises_once(rng):
    # d = 1: one exact tridiagonal elimination per step, no refinement; a block of
    # states steps by dgtsv even when the stepper could hold a dgttrf factor
    for time_dependent, b_amp in ((False, 0.0), (True, 0.7)):
        coeffs, r, tg, obs = _reconstruction_setup(rng, time_dependent, b_amp)
        _, _, stepper = _normal_equations(GRID, coeffs, r, tg, obs)
        assert (stepper.factorisations, stepper.sweeps, stepper.linear_solves) == (256, 0, 256)
    # d = 2, the lagged LU: time-independent coefficients factorise once, time-dependent
    # ones refactorise L_m only when the lagged factor misses
    grid = g.GridSpec(2, 7)
    tg = TimeGrid(1.0, 256)
    obs = observe(Trajectory(grid, tg, np.zeros((257, g.primal(grid).size))),
                  Box.cube(0.2, 0.8, 2))
    r = SineTimeProfile(1.0, 0.5, 0.2, 1.0)
    coeffs = random_smooth_coefficients(rng, 2, 1.0)
    _, _, stepper = _normal_equations(grid, coeffs, r, tg, obs)
    assert (stepper.factorisations, stepper.sweeps, stepper.linear_solves) == (1, 0, 256)
    coeffs = random_smooth_coefficients(rng, 2, 1.0, time_dependent=True, b_amp=0.7)
    _, _, stepper = _normal_equations(grid, coeffs, r, tg, obs)
    assert 1 <= stepper.factorisations < 256
    assert stepper.linear_solves == 256


def test_reconstruction_zero_truth():
    coeffs, adm, traj, z = solved_pair(seed=61, steps=96)
    tg = traj.time_grid
    zeros = Trajectory(GRID, tg, np.zeros_like(traj.values))
    obs = observe(zeros, OMEGA)
    rec = reconstruct_source(GRID, coeffs, adm.r, tg, obs, beta=1e-10)
    assert ops.l2_norm(rec.f_estimate) <= 1e-10


def test_reconstruction_noiseless_twin():
    coeffs, adm, traj, z = solved_pair(seed=63, steps=128)
    obs = observe(traj, OMEGA)
    rec = reconstruct_source(GRID, coeffs, adm.r, traj.time_grid, obs, beta=1e-12,
                             truth=adm.f)
    assert rec.relative_error <= 5e-3


def test_reconstruction_noise_sweep_reports():
    coeffs, adm, traj, z = solved_pair(seed=65, steps=96)
    obs = observe(traj, OMEGA)
    noisy = add_observation_noise(obs, 0.01, np.random.default_rng(1))
    errs = []
    for beta in (1e-10, 1e-6, 1e-2):
        rec = reconstruct_source(GRID, coeffs, adm.r, traj.time_grid, noisy, beta=beta,
                                 truth=adm.f)
        errs.append(rec.relative_error)
    assert all(math.isfinite(e) for e in errs)


def test_coefficient_recovery_zero_truth():
    grid = g.GridSpec(1, 15)
    pm = g.primal(grid)
    coeffs = CoefficientFields.constant(1)
    y0 = g.sample(pm, lambda X: np.sin(np.pi * X[:, 0]))
    tg = TimeGrid(0.2, 512)
    traj = solve_forward(grid, coeffs, lambda t, X: np.zeros(X.shape[0]), tg, y_ini=y0)
    dt_y = central_time_derivative(traj.values, tg.dt)
    rec = recover_coefficient(traj.frame(tg.mid), dt_y[tg.mid], tg, coeffs,
                              alpha=0.02, truth=g.MeshFunction(pm, np.zeros(pm.size)))
    assert np.nanmax(np.abs(rec.p_estimate.values)) <= 1e-3


def test_coefficient_recovery_empty_mask():
    grid = g.GridSpec(1, 7)
    pm = g.primal(grid)
    tg = TimeGrid(0.2, 16)
    with pytest.raises(EmptyMaskError):
        recover_coefficient(g.MeshFunction(pm, np.full(7, 1e-6)), np.zeros(7), tg,
                            CoefficientFields.constant(1), alpha=5.0)


def test_recovery_from_the_run_cut_after_mid_equals_the_whole_run():
    # the reconstruct suite's truth run at its defaults, N = 31 and 2048 steps: marched to
    # frame mid + 1 it has the whole run's frames, and the centred difference at mid is
    # the whole run's second-order time derivative there, bit for bit
    grid, tg = g.GridSpec(1, 31), TimeGrid(0.2, 2048)
    pm = g.primal(grid)
    base = CoefficientFields.constant(1)
    shifted = CoefficientFields(gamma=base.gamma, b=None, c=experiments._ShiftedPotential())
    y0 = g.sample(pm, experiments._product_sine)
    truth = g.sample(pm, lambda X: 1.0 + X[:, 0])
    whole = solve_forward(grid, shifted, experiments._zero_source, tg, y0)
    frames, diagnostics = experiments._march_past_mid(grid, shifted, tg, y0)
    mid = tg.mid
    assert frames.shape == (mid + 2, pm.size)
    assert frames.tobytes() == whole.values[:mid + 2].tobytes()
    # time-independent coefficients: one dgttrf factor serves every step
    assert (diagnostics["linear_solves"], diagnostics["factorisations"]) == (mid + 1, 1)
    dt_mid = (frames[mid + 1] - frames[mid - 1]) / (2.0 * tg.dt)
    dt_whole = central_time_derivative(whole.values, tg.dt)[mid]
    assert dt_mid.tobytes() == dt_whole.tobytes()
    got = recover_coefficient(g.MeshFunction(pm, frames[mid]), dt_mid, tg, base, alpha=0.02,
                              truth=truth)
    want = recover_coefficient(whole.frame(mid), dt_whole, tg, base, alpha=0.02,
                               truth=truth)
    assert got.p_estimate.values.tobytes() == want.p_estimate.values.tobytes()
    assert got.relative_error == want.relative_error <= 1e-2


def test_observation_linearity_superposition():
    # zero initial data: the map source -> (snapshot, local frames) is linear
    rng = np.random.default_rng(71)
    coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=False)
    tg = TimeGrid(1.0, 64)
    s1 = SeparableSource(random_bump(rng, 1), SineTimeProfile(1.0, 0.5, 0.1, 1.0))
    s2 = SeparableSource(random_bump(rng, 1), SineTimeProfile(1.0, 0.5, 1.7, 1.0))

    def s_sum(t, X):
        return s1(t, X) + s2(t, X)

    t1 = solve_forward(GRID, coeffs, s1, tg)
    t2 = solve_forward(GRID, coeffs, s2, tg)
    t12 = solve_forward(GRID, coeffs, s_sum, tg)
    gap = np.max(np.abs(t12.values - t1.values - t2.values))
    assert gap <= 1e-9 * max(1.0, np.max(np.abs(t12.values)))


def test_reconstruction_rejects_indefinite_normal_equations():
    coeffs, adm, traj, z = solved_pair(seed=63, steps=128)
    obs = observe(traj, OMEGA)
    with pytest.raises(SolverError, match="positive definite"):
        reconstruct_source(GRID, coeffs, adm.r, traj.time_grid, obs, beta=-1.0, truth=adm.f)


def test_reconstruct_fine_grid_seed_four_recovers(tmp_path):
    # CG on the normal equations stalled here ("reconstruction stagnated", exit 1)
    args = ["reconstruct", "--set", "reconstruct.n=31", "--set", "run.seed=4",
            "--set", "reconstruct.coeff_n=15", "--set", "reconstruct.coeff_steps=256",
            "--out", str(tmp_path)]
    assert main(args) == 0
    rows = (tmp_path / "reconstruct.csv").read_text().splitlines()
    source = next(row.split(",") for row in rows if row.startswith("source,"))
    assert float(source[4]) <= 5e-3

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import logsumexp

from carlstab import carleman, experiments, quadrature
from carlstab import grid as g
from carlstab import operators as ops
from carlstab.carleman import LHS_KEYS, RHS_KEYS, endpoint_term, feasibility_rows, verify_cells
from carlstab.coefficients import CoefficientFields, random_smooth_coefficients
from carlstab.config import parse_config
from carlstab.errors import GridError
from carlstab.experiments import _carleman_worker, _feasibility_table
from carlstab.inverse import (FourierBump, SeparableSource, SineTimeProfile, random_bump,
                              random_separable_source)
from carlstab.quadrature import ZERO_TERM, Term
from carlstab.solver import (LINEAR_RESIDUAL_TOL, TimeGrid, Trajectory, central_time_derivative,
                             solve_forward)
from carlstab.weights import Box, CarlemanWeight, WeightParams

GRID = g.GridSpec(1, 15)
OMEGA = Box.cube(0.2, 0.8, 1)
OMEGA0 = Box.cube(0.35, 0.65, 1)


def zero_source(t, X):
    return np.zeros(X.shape[0])


def make_weight(grid=GRID, tau=3.0, delta=0.5, lam=2.0, d=1):
    params = WeightParams(T=1.0, tau=tau, delta=delta, lam=lam)
    return CarlemanWeight(grid, params, Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def solved_run(seed=3, n=15, steps=192, d=1, b_amp=0.0):
    rng = np.random.default_rng(seed)
    grid = g.GridSpec(d, n)
    coeffs = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=b_amp)
    src = random_separable_source(rng, d, 1.0)
    pm = g.primal(grid)
    y0 = g.MeshFunction(pm, random_bump(rng, d)(pm.physical))
    traj = solve_forward(grid, coeffs, src, TimeGrid(1.0, steps), y_ini=y0)
    return grid, coeffs, src, traj


def test_zero_trajectory_all_terms_zero():
    tg = TimeGrid(1.0, 32)
    traj = Trajectory(GRID, tg, np.zeros((33, 15)))
    w = make_weight()
    co = CoefficientFields.constant(1)
    terms = verify_cells(traj, zero_source, co, [(w, 0)])[0].terms
    assert all(term.value == 0.0 for term in terms.values())


def test_frozen_mode_time_term_vanishes_and_oracle_agreement():
    tg = TimeGrid(1.0, 64)
    pm = g.primal(GRID)
    u0 = np.sin(np.pi * pm.physical[:, 0])
    traj = Trajectory(GRID, tg, np.tile(u0, (65, 1)))
    w = make_weight()
    co = CoefficientFields.constant(1)
    lhs = verify_cells(traj, zero_source, co, [(w, 0)])[0].terms
    assert lhs["I_p_time"].value <= 1e-40 * lhs["J_p_zeroth"].value

    # direct-summation oracle for the zero-order term (pure python)
    tau, delta, lam, c0, K = 3.0, 0.5, 2.0, 2.0, 2.2
    h = GRID.h

    def theta(t):
        return 1.0 / ((t + delta) * (1.0 + delta - t))

    def phi(x):
        return math.exp(lam * (c0 - (x - 0.5) ** 2)) - math.exp(lam * K)

    total = 0.0
    for m, t in enumerate(tg.times):
        tw = tg.dt if 0 < m < 64 else tg.dt / 2
        st = tau * theta(float(t))
        ssum = sum(u0[i] ** 2 * st ** 3 * math.exp(2 * st * phi(x))
                   for i, x in enumerate(pm.physical[:, 0]))
        total += tw * h * ssum
    assert lhs["J_p_zeroth"].value == pytest.approx(total, rel=1e-10)


def test_scaling_homogeneity_and_ratio_invariance():
    grid, coeffs, src, traj = solved_run()
    w = make_weight()
    rep1 = verify_cells(traj, src, coeffs, [(w, 0)])[0]

    scaled = Trajectory(GRID, traj.time_grid, 2.0 * traj.values)

    def scaled_src(t, X):
        return 2.0 * src(t, X)

    rep2 = verify_cells(scaled, scaled_src, coeffs, [(w, 0)])[0]
    for key in LHS_KEYS + ("rhs_source", "rhs_local_omega", "rhs_time_endpoints"):
        assert rep2.terms[key].value == pytest.approx(4.0 * rep1.terms[key].value, rel=1e-12)
    assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-12)


def test_rhs_trivial_cases():
    tg = TimeGrid(1.0, 32)
    pm = g.primal(GRID)
    vals = np.zeros((33, 15))
    vals[10] = np.sin(np.pi * pm.physical[:, 0])  # interior frame only
    traj = Trajectory(GRID, tg, vals)
    w = make_weight()
    rhs = verify_cells(traj, zero_source, CoefficientFields.constant(1), [(w, 0)])[0].terms
    assert rhs["rhs_source"].value == 0.0
    assert rhs["rhs_time_endpoints"].value == 0.0
    assert rhs["rhs_local_omega"].value > 0.0

    # a field that vanishes on omega: the omega term is exactly zero, although the
    # weight's peak lies in omega and the points outside weigh below 1e-30 of it
    outside = np.where(OMEGA.mask(pm.physical), 0.0, 1.0)
    traj = Trajectory(GRID, tg, np.tile(outside, (33, 1)))
    terms = verify_cells(traj, zero_source, CoefficientFields.constant(1), [(w, 0)])[0].terms
    assert terms["rhs_local_omega"] == ZERO_TERM and terms["J_p_zeroth"].mantissa > 0.0


def test_rhs_source_homogeneity():
    grid, coeffs, src, traj = solved_run(seed=5)
    w = make_weight()
    r1 = verify_cells(traj, src, coeffs, [(w, 0)])[0].terms

    def double_src(t, X):
        return 2.0 * src(t, X)

    r2 = verify_cells(traj, double_src, coeffs, [(w, 0)])[0].terms
    assert r2["rhs_source"].value == pytest.approx(4.0 * r1["rhs_source"].value, rel=1e-12)
    assert r2["rhs_local_omega"].value == r1["rhs_local_omega"].value


def test_rhs_direct_summation_oracle():
    grid, coeffs, src, traj = solved_run(seed=11, steps=64)
    w = make_weight()
    rhs = verify_cells(traj, src, coeffs, [(w, 0)])[0].terms
    pm = g.primal(grid)
    tg = traj.time_grid
    mask = OMEGA.mask(pm.physical)
    phi = w.phi(pm.physical)
    tau = w.params.tau
    total = 0.0
    for m, t in enumerate(tg.times):
        tw = tg.dt if 0 < m < tg.steps else tg.dt / 2
        st = tau * float(w.theta(float(t)))
        vals = traj.values[m][mask]
        ssum = sum(v * v * st ** 3 * math.exp(2 * st * p)
                   for v, p in zip(vals, phi[mask]))
        total += tw * grid.h * ssum
    assert rhs["rhs_local_omega"].value == pytest.approx(total, rel=1e-10)


def test_verify_inequality_reports_and_admissibility_gate():
    grid, coeffs, src, traj = solved_run(seed=7)
    w = make_weight(tau=3.0)
    rep = verify_cells(traj, src, coeffs, [(w, 0)])[0]
    assert rep.admissible and rep.ratio is not None and math.isfinite(rep.ratio)
    assert all(rep.terms[k].value >= 0 for k in rep.terms)

    w_bad = make_weight(tau=12.0)  # coupling 12/8 > epsilon
    rep_bad = verify_cells(traj, src, coeffs, [(w_bad, 0)])[0]
    assert not rep_bad.admissible
    assert rep_bad.ratio is None


def test_verify_inequality_p_validation():
    grid, coeffs, src, traj = solved_run(seed=13, steps=64)
    w = make_weight()
    with pytest.raises(GridError):
        verify_cells(traj, src, coeffs, [(w, 2)])


@dataclass
class PointwiseBound:
    t: float
    lhs_t: float
    bound: float
    initial_term: float
    holds: bool


def frame_value(values, logw, cell) -> float:
    """cell * sum_x values^2 exp(logw), exactly rounded."""
    return cell * math.fsum((values * values * np.exp(logw)).tolist())


def pointwise_time_bound(traj: Trajectory, weight: CarlemanWeight, p: int, t: float,
                         constant: float, lhs_total: float) -> PointwiseBound:
    """Mid-run weighted mass bound at a single frame time.

    Compares int_W (s(t))^(p+1) |y(t)|^2 e^(2 s(t) phi) against
    constant * (I_p + J_p) plus the matching weighted mass of the initial
    frame; `constant` is the corpus-estimated factor, `lhs_total` the
    already-computed I_p + J_p of the run.
    """
    tg = traj.time_grid
    if not 0.0 < t <= tg.T:
        raise GridError(f"time {t} outside (0, T]")
    idx = tg.index_of(t)
    pm = g.primal(traj.grid)
    phi = weight.phi(pm.physical)
    cell = traj.grid.h ** traj.grid.d
    lhs_t = frame_value(traj.values[idx], weight.log_weight(float(t), phi, p + 1), cell)
    initial = frame_value(traj.values[0], weight.log_weight(0.0, phi, p + 1), cell)
    bound = constant * lhs_total + initial
    return PointwiseBound(t=float(t), lhs_t=lhs_t, bound=bound, initial_term=initial,
                          holds=bool(lhs_t <= bound * (1.0 + 1e-8)))


def test_pointwise_time_bound():
    grid, coeffs, src, traj = solved_run(seed=17, steps=64)
    w = make_weight()
    rep = verify_cells(traj, src, coeffs, [(w, 0)])[0]
    pb = pointwise_time_bound(traj, w, 0, 0.5, constant=10.0, lhs_total=rep.lhs.value)
    assert pb.lhs_t >= 0 and math.isfinite(pb.bound)

    # direct-summation recompute of lhs_t
    pm = g.primal(grid)
    phi = w.phi(pm.physical)
    st = w.params.tau * float(w.theta(0.5))
    idx = traj.time_grid.index_of(0.5)
    direct = grid.h * sum(v * v * st * math.exp(2 * st * p)
                          for v, p in zip(traj.values[idx], phi))
    assert pb.lhs_t == pytest.approx(direct, rel=1e-10)

    zero = Trajectory(GRID, traj.time_grid, np.zeros_like(traj.values))
    pb0 = pointwise_time_bound(zero, w, 0, 0.5, constant=1.0, lhs_total=0.0)
    assert pb0.lhs_t == 0.0 and pb0.holds

    with pytest.raises(GridError):
        pointwise_time_bound(traj, w, 0, 1.5, constant=1.0, lhs_total=rep.lhs.value)


def test_pointwise_bound_corpus_zero_initial():
    # y(0) = 0 runs: the initial term vanishes, lhs_t <= C (I_p + J_p) with the
    # corpus-estimated constant
    rows = []
    for seed in (21, 22, 23):
        rng = np.random.default_rng(seed)
        coeffs = random_smooth_coefficients(rng, 1, 1.0, time_dependent=True)
        src = SeparableSource(random_bump(rng, 1), SineTimeProfile(1.0, 0.5, 0.3, 1.0))
        traj = solve_forward(GRID, coeffs, src, TimeGrid(1.0, 128))
        w = make_weight()
        rep = verify_cells(traj, src, coeffs, [(w, 0)])[0]
        for t in (0.25, 0.5, 0.75, 1.0):
            pb = pointwise_time_bound(traj, w, 0, t, constant=1.0, lhs_total=rep.lhs.value)
            assert pb.initial_term == 0.0
            rows.append((pb.lhs_t, rep.lhs.value))
    c_emp = max(l / r for l, r in rows if r > 0)
    assert math.isfinite(c_emp)
    assert all(l <= c_emp * r * (1 + 1e-8) for l, r in rows)


def test_axis_swap_invariance_d2():
    # symmetric data in d=2: coordinate swap leaves every term unchanged
    grid = g.GridSpec(2, 7)
    pm = g.primal(grid)
    co = CoefficientFields.constant(2)

    def src(t, X):
        return np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1]) * (1 + 0.5 * math.sin(2 * math.pi * t))

    y0 = g.sample(pm, lambda X: np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])
                  * (1 + 0.3 * np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])))
    traj = solve_forward(grid, co, src, TimeGrid(1.0, 64), y_ini=y0)
    w = make_weight(grid=grid, d=2)
    rep = verify_cells(traj, src, co, [(w, 0)])[0]

    # swap the two axes of every frame
    shape = pm.shape
    swapped_vals = np.stack([fr.reshape(shape).T.ravel() for fr in traj.values])
    swapped = Trajectory(grid, traj.time_grid, swapped_vals)
    rep_swapped = verify_cells(swapped, src, co, [(w, 0)])[0]
    for key in LHS_KEYS:
        assert rep_swapped.terms[key].value == pytest.approx(rep.terms[key].value, rel=1e-10)


def test_feasibility_map_single_cell_and_inadmissible():
    grid, coeffs, src, traj = solved_run(seed=25, steps=64)
    runs = [(traj, src, coeffs)]

    row = feasibility_rows([make_weight(tau=3.0, delta=0.5)], runs)[0]
    assert row["admissible"] and math.isfinite(row["ratio"])
    assert (row["h"], row["tau"], row["delta"], row["lambda"], row["p"]) == \
        (GRID.h, 3.0, 0.5, 2.0, 0)

    row_bad = feasibility_rows([make_weight(tau=40.0, delta=0.25)], runs)[0]
    assert not row_bad["admissible"]
    assert row_bad["ratio"] == "" and row_bad["I_p"] == ""

    # at lambda = 3 every weighted term underflows as a linear value; the ratio,
    # taken in log space, and the row stay finite
    w = make_weight(tau=4.0, lam=3.0)
    rep = verify_cells(traj, src, coeffs, [(w, 0)])[0]
    assert rep.admissible and rep.lhs.value == rep.rhs.value == 0.0
    assert rep.lhs.mantissa > 0.0 and rep.rhs.mantissa > 0.0
    assert math.isfinite(rep.lhs.log) and math.isfinite(rep.rhs.log)
    assert rep.ratio == pytest.approx(math.exp(rep.lhs.log - rep.rhs.log), rel=1e-12)
    row = feasibility_rows([w], runs)[0]
    assert row["ratio"] == rep.ratio and row["I_p"] == 0.0


def test_feasibility_row_carries_the_largest_ratio_first_on_tie():
    runs = []
    for seed in (25, 31):
        _, coeffs, src, traj = solved_run(seed=seed, steps=64)
        runs.append((traj, src, coeffs))
    w = make_weight()
    reps = [verify_cells(traj, src, coeffs, [(w, 0)])[0] for traj, src, coeffs in runs]
    assert reps[0].ratio != reps[1].ratio
    best = max(reps, key=lambda rep: rep.ratio)
    for order in (runs, runs[::-1]):
        row = feasibility_rows([w], order)[0]
        assert {k: row[k] for k in best.columns()} == best.columns()

    # doubling a run is exact in floating point: every term gains exactly 4 and
    # the ratio ties bit for bit, so the first of the two runs must win
    traj, src, coeffs = runs[0]
    doubled = (Trajectory(GRID, traj.time_grid, 2.0 * traj.values),
               SeparableSource(FourierBump(tuple(2.0 * a for a in src.profile.amps),
                                           src.profile.modes), src.r),
               coeffs)
    rep2 = verify_cells(*doubled, [(w, 0)])[0]
    assert rep2.ratio == reps[0].ratio and rep2.columns()["I_p"] == 4.0 * reps[0].columns()["I_p"]
    assert feasibility_rows([w], [runs[0], doubled])[0]["I_p"] == reps[0].columns()["I_p"]
    assert feasibility_rows([w], [doubled, runs[0]])[0]["I_p"] == rep2.columns()["I_p"]


def test_underflowing_weights_keep_their_mass():
    # lambda = 3 pushes every weight below the double floor; the term keeps that
    # mass, its log matching logsumexp of the log summands point by point
    tg = TimeGrid(1.0, 16)
    pm = g.primal(GRID)
    traj = Trajectory(GRID, tg, np.ones((17, 15)))
    w = make_weight(tau=8.0, lam=3.0)
    co = CoefficientFields.constant(1)
    term = verify_cells(traj, zero_source, co, [(w, 0)])[0].terms["J_p_zeroth"]
    phi = w.phi(pm.physical)
    logs = [w.log_weight(float(t), phi, 3) + math.log(tg.trap[m] * GRID.h)
            for m, t in enumerate(tg.times)]
    assert max(float(lw.max()) for lw in logs) < math.log(np.finfo(np.float64).tiny)
    assert term.value == 0.0 < term.mantissa
    assert term.log == pytest.approx(float(logsumexp(np.concatenate(logs))), rel=1e-13)


def test_log_endpoint_term_survives_underflow():
    # delta = 0.01 puts s(0) near 800: e^(2 s(0) phi) underflows at every point, so
    # the linear value reads 0 while the term's log stays finite
    tg = TimeGrid(1.0, 16)
    pm = g.primal(GRID)
    frames = np.ones((17, 15))
    frames[0] = np.sin(np.pi * pm.physical[:, 0])
    w = make_weight(tau=8.0, delta=0.01, lam=3.0)
    traj = Trajectory(GRID, tg, frames)
    term = endpoint_term(traj, w, 0)
    assert term.value == 0.0 < term.mantissa
    got = term.log
    assert math.isfinite(got)

    # the per-frame log formula, the two frames combined by logsumexp
    logw = w.log_weight(0.0, w.phi(pm.physical), 0)
    cell = GRID.h ** GRID.d / (GRID.h ** 2)
    logs = []
    for y in (frames[0], frames[-1]):
        sq = y * y
        nz = sq > 0.0
        logs.append(float(logsumexp(np.log(sq[nz]) + logw[nz])) + math.log(cell))
    assert got == pytest.approx(float(logsumexp(logs)), rel=1e-13)
    assert endpoint_term(Trajectory(GRID, tg, np.zeros((17, 15))), w, 0).log == -np.inf


def test_carleman_worker_d3_smoke():
    # finiteness only: at N = 7 no feasibility cell is admissible, so the suite's
    # exit code says nothing here; tau = 2 is the one corpus tau admissible on N = 7
    cfg = parse_config(overrides=["grid.d=3", "carleman.grids=7", "carleman.steps=64",
                                  "carleman.runs=1", "carleman.tau_min=2",
                                  "carleman.tau_max=2", "carleman.feasibility_grids=15",
                                  "stability.decay_grids=15,31"])
    rows, solver, timings = _carleman_worker((cfg.values, 0))
    assert solver["linear_solves"] == 64 and solver["max_linear_residual"] <= 1e-10
    assert set(timings) == {"march", "corpus_terms"}
    assert [(row["N"], row["p"]) for row in rows] == [(7, 0), (7, 1)]
    for row in rows:
        for key in ("I_p", "J_p", "rhs_source", "rhs_local", "rhs_endpoint"):
            assert math.isfinite(row[key]) and row[key] > 0.0, key
        assert row["residual"] == solver["max_linear_residual"]


@pytest.mark.parametrize("d", [1, 2])
def test_corpus_residual_is_the_march_figure(monkeypatch, d):
    # a corpus row's residual is its own march's largest relative step residual,
    # which `Stepper.march` held to LINEAR_RESIDUAL_TOL on every step
    marched = []

    def recording(*args):
        marched.append(solve_forward(*args))
        return marched[-1]

    monkeypatch.setattr(experiments, "solve_forward", recording)
    cfg = parse_config(overrides=[f"grid.d={d}", "carleman.runs=2", "carleman.steps=64"])
    grids = list(cfg.get("carleman", "grids"))
    for run in range(2):
        marched.clear()
        rows, solver, _ = _carleman_worker((cfg.values, run))
        assert len(marched) == len(grids) and len(rows) == 2 * len(grids)
        for row in rows:
            traj = marched[grids.index(row["N"])]
            assert row["residual"] == traj.diagnostics["max_linear_residual"]
            assert 0.0 < row["residual"] <= LINEAR_RESIDUAL_TOL
        assert solver["max_linear_residual"] == max(row["residual"] for row in rows)


def oracle_term(fields, phi, s, power, frame_cells) -> Term:
    """math.fsum over each exp-scaled frame, fields[m]^2 exp(2 s_m (phi - max
    phi)), then over the frames under their log scales 2 s_m max phi +
    power log s_m + log(frame_cells[m]), the last being w_m times the cell."""
    top = float(phi.max())
    sums = np.array([math.fsum((np.asarray(f) ** 2 * np.exp((2.0 * sm) * (phi - top))).tolist())
                     for f, sm in zip(fields, s)])
    scales = 2.0 * s * top + power * np.log(s) + np.log(frame_cells)
    live = sums != 0.0
    if not live.any():
        return ZERO_TERM
    lead = float(scales[live].max())
    return Term(lead, math.fsum((sums[live] * np.exp(scales[live] - lead)).tolist()))


def per_frame_terms(traj, source, coeffs, weight, p) -> dict:
    """Every term of one (weight, p) cell, frame by frame: the fields through
    `ops.second_diff`, `diff` and `avg_diff`, each term by `oracle_term`; the
    endpoint term is `oracle_term` of the two end frames, both at s(0) and time
    weight 1."""
    grid, tg = traj.grid, traj.time_grid
    pm = g.primal(grid)
    X = pm.physical
    cell = grid.h ** grid.d
    frames = [traj.frame(m) for m in range(tg.steps + 1)]
    times = [float(t) for t in tg.times]

    def term(fields, points, power) -> Term:
        return oracle_term(fields, weight.phi(points), weight.s(tg.times), power,
                           tg.trap * cell)

    i_mixed = ZERO_TERM
    for i in range(grid.d):
        for j in range(i, grid.d):
            fields = []
            for t, u in zip(times, frames):
                d2 = ops.second_diff(u, i, j)
                Xij = d2.mesh.physical
                gam = coeffs.gamma[i](t, Xij) * coeffs.gamma[j](t, Xij)
                fields.append(d2.values * np.sqrt(gam))
            t_ij = term(fields, Xij, p - 1)
            i_mixed = i_mixed + (t_ij + t_ij if i != j else t_ij)
    i_time = term(central_time_derivative(traj.values, traj.time_grid.dt), X, p - 1)
    mask = weight.omega.mask(X)
    return {
        "I_p_time": i_time,
        "I_p_mixed": i_mixed,
        "I_p": i_time + i_mixed,
        "J_p_gradient": sum((term([ops.diff(u, i).values for u in frames],
                                  g.dual_star(grid, i).physical, p + 1)
                             for i in range(grid.d)), ZERO_TERM),
        "J_p_avg_gradient": sum((term([ops.avg_diff(u, i).values for u in frames], X, p + 1)
                                 for i in range(grid.d)), ZERO_TERM),
        "J_p_zeroth": term(traj.values, X, p + 3),
        "rhs_source": term([source(t, X) for t in times], X, p),
        "rhs_local_omega": term(traj.values[:, mask], X[mask], p + 3),
        "rhs_time_endpoints": oracle_term(traj.values[[0, -1]], weight.phi(X),
                                          np.full(2, weight.s(0.0)), p,
                                          np.full(2, cell / grid.h ** 2)),
    }


@pytest.mark.parametrize("d,n", [(1, 15), (2, 7), (3, 5)])
def test_verify_cells_matches_per_frame_reference(monkeypatch, d, n):
    grid, coeffs, src, traj = solved_run(seed=40 + d, n=n, steps=32, d=d, b_amp=0.3)
    w0 = make_weight(grid=grid, d=d)
    w1 = make_weight(grid=grid, tau=8.0, lam=3.0, d=d)   # underflows on every frame
    cells = [(w0, 0), (w0, 1), (w1, 0), (w1, 1)]
    # two distinct weights, 5 frames per chunk: 33 frames end in a ragged chunk of 3
    monkeypatch.setattr(quadrature, "CHUNK_POINTS", 2 * 5 * (n + 1) ** d)
    reports = verify_cells(traj, src, coeffs, cells)
    assert [rep.p for rep in reports] == [0, 1, 0, 1]
    # the kernel's row and frame sums are float sums of non-negative terms: within
    # (width - 1) 2^-53 of fsum relative, width at most (n + 1)^d, plus (frames - 1)
    # 2^-53 over the 33 frames and 8 ulps for the scalings around them
    rel = ((n + 1) ** d + 33 + 6) * 2.0 ** -53
    for (weight, p), rep in zip(cells, reports):
        want = per_frame_terms(traj, src, coeffs, weight, p)
        assert list(rep.terms) == list(want)
        for key, term in want.items():
            assert term.mantissa > 0.0, key
            assert abs(rep.terms[key] / term - 1.0) <= rel, (key, rep.terms[key], term)
    assert reports[2].lhs.value == 0.0 < reports[2].lhs.mantissa

    # every cell of the pass equals its one-cell evaluation bit for bit
    monkeypatch.setattr(quadrature, "CHUNK_POINTS", 1 << 15)
    for (weight, p), rep in zip(cells, reports):
        one = verify_cells(traj, src, coeffs, [(weight, p)])[0]
        assert (rep.p, rep.admissible, rep.lhs, rep.rhs, rep.ratio) == \
            (one.p, one.admissible, one.lhs, one.rhs, one.ratio)
        assert rep.terms == one.terms


def term_bits(rep, keys) -> dict:
    return {key: (rep.terms[key].log_scale.hex(), rep.terms[key].mantissa.hex()) for key in keys}


@pytest.mark.parametrize("d,n", [(1, 15), (2, 7)])
def test_one_pass_keeps_its_sides_apart(d, n):
    # the right-hand terms read no coefficient and the left-hand ones no source, so
    # swapping either leaves the other side's bits alone within one pass
    grid, coeffs, src, traj = solved_run(seed=50 + d, n=n, steps=32, d=d, b_amp=0.3)
    other_coeffs = random_smooth_coefficients(np.random.default_rng(60 + d), d, 1.0,
                                              time_dependent=True, b_amp=0.3)
    other_src = random_separable_source(np.random.default_rng(70 + d), d, 1.0)
    w = make_weight(grid=grid, d=d)
    cells = [(w, 0), (w, 1), (make_weight(grid=grid, tau=8.0, lam=3.0, d=d), 0)]
    lhs_keys = [key for key in verify_cells(traj, src, coeffs, cells[:1])[0].terms
                if key not in RHS_KEYS]
    base = verify_cells(traj, src, coeffs, cells)
    for rep, other in zip(base, verify_cells(traj, src, other_coeffs, cells)):
        assert term_bits(other, RHS_KEYS) == term_bits(rep, RHS_KEYS)
        assert term_bits(other, ["I_p_mixed"]) != term_bits(rep, ["I_p_mixed"])
    for rep, other in zip(base, verify_cells(traj, other_src, coeffs, cells)):
        assert term_bits(other, lhs_keys) == term_bits(rep, lhs_keys)
        assert term_bits(other, ["rhs_source"]) != term_bits(rep, ["rhs_source"])


def test_verify_cells_of_no_cell_and_a_bad_p():
    grid, coeffs, src, traj = solved_run(seed=13, steps=64)
    assert verify_cells(traj, src, coeffs, []) == []
    with pytest.raises(GridError):
        verify_cells(traj, src, coeffs, [(make_weight(), 0), (make_weight(), 2)])


def test_feasibility_rows_equal_their_one_cell_rows():
    runs = []
    for seed in (25, 31):
        _, coeffs, src, traj = solved_run(seed=seed, steps=64)
        runs.append((traj, src, coeffs))
    weights = [make_weight(tau=3.0), make_weight(tau=40.0, delta=0.25),
               make_weight(tau=4.0, delta=0.5), make_weight(tau=3.0)]
    rows = feasibility_rows(weights, runs)
    assert rows == [feasibility_rows([w], runs)[0] for w in weights]
    assert [row["admissible"] for row in rows] == [True, False, True, True]
    assert rows[1]["ratio"] == "" and rows[0] == rows[3]


@pytest.fixture(scope="module")
def fast_feasibility():
    # the feasibility table of `scripts/run_all.py --fast`: grids 15, 31, 63, one run
    cfg = parse_config(overrides=["carleman.runs=8", "carleman.feasibility_runs=1"])
    return cfg, _feasibility_table(cfg)[0]


def test_feasibility_ratios_are_shift_free(monkeypatch, fast_feasibility):
    # adding 500 to every log weight scales both sides of every cell by e^500
    cfg, rows = fast_feasibility
    monkeypatch.setattr(carleman, "frame_scales",
                        lambda *args: quadrature.frame_scales(*args) + 500.0)
    shifted = _feasibility_table(cfg)[0]
    pairs = [(row["ratio"], moved["ratio"]) for row, moved in zip(rows, shifted)
             if row["admissible"]]
    assert len(pairs) == 18
    for ratio, moved in pairs:
        assert moved == pytest.approx(ratio, rel=1e-14, abs=0.0)


def test_every_admissible_feasibility_cell_has_finite_columns(fast_feasibility):
    # (h, tau, delta) = (1/64, 8, 0.25): every weighted term underflows as a value
    _, rows = fast_feasibility
    cell = [row for row in rows if (row["h"], row["tau"], row["delta"]) == (1 / 64, 8.0, 0.25)]
    assert len(cell) == 1 and cell[0]["admissible"]
    for row in rows:
        if row["admissible"]:
            for key in ("I_p", "J_p", "rhs_source", "rhs_local", "rhs_endpoint", "ratio"):
                assert isinstance(row[key], float) and math.isfinite(row[key]), (row, key)
            assert row["ratio"] > 0.0

from dataclasses import replace

import numpy as np
import pytest

from carlstab import grid as g
from carlstab import weights
from carlstab.errors import AdmissibilityError, GridError, QuadratureError
from carlstab.quadrature import adaptive_log_integral, fit_slope
from carlstab.weights import (Box, CarlemanWeight, WeightParams, coupled_delta,
                              gauss_scaling_slope, gauss_time_bound_check)

GRID = g.GridSpec(1, 15)
OMEGA = Box.cube(0.2, 0.8, 1)
OMEGA0 = Box.cube(0.35, 0.65, 1)


def make_weight(tau=3.0, delta=0.5, T=1.0, lam=2.0, grid=GRID, d=1):
    params = WeightParams(T=T, tau=tau, delta=delta, lam=lam)
    return CarlemanWeight(grid, params, Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def theta_prime(w, t):
    t = np.asarray(t, dtype=np.float64)
    th = w.theta(t)
    return 2.0 * (t - w.params.T / 2.0) * th * th


def test_bump_normal_derivative_signs_d1():
    w = make_weight()
    # d_n psi = -2 (x - x0) at the right face: -2 * (1 - 0.5) = -1
    assert w.assumption_report.max_normal_derivative < 0
    x = np.array([[1.0]])
    assert abs(-2.0 * (1.0 - 0.5) - (-1.0)) == 0.0
    assert w.grad_psi_norm(np.array([[1.0]]))[0] == pytest.approx(1.0)


def test_bump_gradient_lower_bound_outside_inner_box():
    w = make_weight()
    r0 = 0.15  # inner box half-width
    pts = np.linspace(-0.1, 1.1, 400)[:, None]
    outside = ~OMEGA0.mask(pts)
    assert np.all(w.grad_psi_norm(pts[outside]) >= 2 * r0 - 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_positive_on_inflated_box(d):
    grid = g.GridSpec(d, 5)
    w = make_weight(grid=grid, d=d)
    assert w.assumption_report.min_psi > 0
    assert w.assumption_report.satisfied


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_report_is_cached_per_geometry(monkeypatch, d):
    # the checks read only (grid, omega0): every weight on one geometry shares one
    # report, equal to a fresh check
    monkeypatch.setattr(weights, "_BUMP_REPORTS", {})
    grid = g.GridSpec(d, 9)
    first, second = make_weight(grid=grid, d=d), make_weight(tau=5.0, lam=3.0, grid=grid, d=d)
    assert first.assumption_report is second.assumption_report
    assert first.assumption_report == first._check_assumptions() == second._check_assumptions()
    assert list(weights._BUMP_REPORTS) == [(grid, Box.cube(0.35, 0.65, d))]
    make_weight(grid=g.GridSpec(d, 11), d=d)
    assert len(weights._BUMP_REPORTS) == 2


def test_failing_bump_geometry_raises_every_time(monkeypatch):
    # C0 = 0.05 makes psi negative on the inflated box; the cached verdict still raises
    monkeypatch.setattr(weights, "_BUMP_REPORTS", {})
    monkeypatch.setattr(weights, "C0", 0.05)
    for _ in range(2):
        with pytest.raises(GridError, match="bump conditions failed"):
            make_weight()
    assert not weights._BUMP_REPORTS[GRID, OMEGA0].satisfied


def test_bump_centre_near_face_rejected():
    with pytest.raises(GridError):
        CarlemanWeight(GRID, WeightParams(T=1.0, tau=2.0),
                       Box.cube(0.85, 0.95, 1), Box.cube(0.82, 0.99, 1))


def test_omega_containment_enforced():
    with pytest.raises(GridError):
        CarlemanWeight(GRID, WeightParams(T=1.0, tau=2.0),
                       Box.cube(0.1, 0.9, 1), Box.cube(0.2, 0.8, 1))


def test_phi_negative_everywhere():
    w = make_weight()
    pts = g.full_closure(GRID).physical
    assert np.all(w.phi(pts) < 0)
    assert 0 < w.mu0


def test_theta_endpoint_values_exact():
    T, delta = 1.0, 0.5
    w = make_weight(T=T, delta=delta)
    assert float(w.theta(0.0)) == 1.0 / ((delta * T) * (T + delta * T))
    assert float(w.theta(T)) == float(w.theta(0.0))
    assert float(w.theta(0.0)) == pytest.approx(1.0 / (T * T * delta * (1 + delta)), rel=1e-14)
    assert float(w.theta(T / 2)) == pytest.approx(4.0 / (T * T * (1 + 2 * delta) ** 2), rel=1e-14)
    assert float(theta_prime(w, T / 2)) == 0.0


def test_theta_decreases_then_increases():
    w = make_weight(T=2.0, delta=0.25)
    t = np.linspace(0, 2, 101)
    th = w.theta(t)
    assert np.argmin(th) == 50
    assert th[0] == pytest.approx(th[-1], rel=1e-14)


def test_theta_second_derivative_lower_bound():
    # sharp form theta'' >= 2 theta(T/2)^2 holds for every (T, delta);
    # the 2/T^2 form additionally needs T (1+2 delta)^2 <= 4
    for T, delta in ((1.0, 0.25), (2.0, 0.4), (0.5, 0.49)):
        w = make_weight(T=T, delta=delta)
        t = np.linspace(0, T, 401)
        th = w.theta(t)
        d2 = 2.0 * th ** 2 + 8.0 * (t - T / 2) ** 2 * th ** 3
        assert np.all(d2 >= 2.0 * float(w.theta(T / 2)) ** 2 - 1e-12)
        if T * (1 + 2 * delta) ** 2 <= 4.0:
            assert np.all(d2 >= 2.0 / T ** 2 - 1e-12)


def test_theta_quadratic_lower_envelope():
    w = make_weight(T=1.0, delta=0.25)
    t = np.linspace(0, 1, 301)
    th = w.theta(t)
    envelope = (t - 0.5) ** 2 / 1.0 + float(w.theta(0.5))
    assert np.all(th >= envelope - 1e-12)


def test_sqrt_theta_derivative_inequality():
    # |theta^{-1/2} d sqrt(theta)/dt| = |theta'| / (2 theta) <= (T/2) theta
    for T, delta in ((1.0, 0.5), (2.0, 0.25)):
        w = make_weight(T=T, delta=delta)
        t = np.linspace(0, T, 501)
        lhs = np.abs(theta_prime(w, t)) / (2.0 * w.theta(t))
        assert np.all(lhs <= (T / 2.0) * w.theta(t) + 1e-12)


def test_endpoint_weight_uniform_bound():
    # exp(2 tau theta(0) phi(x)) <= exp(-2 mu0 tau / (delta T^2 (1+delta)))
    w = make_weight(tau=5.0, delta=0.25)
    pts = g.primal(GRID).physical
    lhs_log = 2.0 * 5.0 * float(w.theta(0.0)) * w.phi(pts)
    bound_log = -2.0 * w.mu0 * 5.0 / (0.25 * 1.0 * (1 + 0.25))
    assert np.all(lhs_log <= bound_log + 1e-12)


def test_theta_rejects_out_of_range():
    w = make_weight()
    with pytest.raises(AdmissibilityError):
        w.theta(-0.1)
    with pytest.raises(AdmissibilityError):
        w.theta(1.5)


def test_admissibility_window():
    ok, info = make_weight(tau=3.0, delta=0.5).admissibility()
    assert ok and info["tau_floor"] == 2.0
    bad_tau, _ = make_weight(tau=1.5, delta=0.5).admissibility()
    assert not bad_tau
    bad_coupling, _ = make_weight(tau=8.5, delta=0.5).admissibility()
    assert not bad_coupling


def test_coupled_delta_lands_on_admissible_boundary():
    delta = coupled_delta(1.0, GRID.h, tau1=2.5, eps0=0.5)
    w = CarlemanWeight(GRID, WeightParams(T=1.0, tau=2.5, delta=delta), OMEGA0, OMEGA)
    ok, info = w.admissibility()
    assert ok
    assert info["coupling"] == pytest.approx(0.5, rel=1e-12)


def test_coupled_delta_out_of_range_rejected():
    with pytest.raises(AdmissibilityError):
        coupled_delta(1.0, 0.5, tau1=2.5, eps0=0.5)


def test_params_validation():
    with pytest.raises(AdmissibilityError):
        WeightParams(T=1.0, tau=0.5)
    with pytest.raises(AdmissibilityError):
        WeightParams(T=1.0, tau=2.0, delta=0.6)
    with pytest.raises(AdmissibilityError):
        WeightParams(T=-1.0, tau=2.0)
    with pytest.raises(AdmissibilityError):
        WeightParams(T=1.0, tau=2.0, lam=0.5)


def test_gauss_bound_ratio_bounded_over_sweep():
    params = WeightParams(T=1.0, tau=50.0, delta=0.25)
    x = np.array([[0.4375]])
    ratios = []
    for tau in (50, 100, 200, 400, 800):
        w = CarlemanWeight(GRID, replace(params, tau=float(tau)), OMEGA0, OMEGA)
        ratios.append(gauss_time_bound_check(w, 1.0, x).ratio)
    assert max(ratios) < 10.0
    assert max(ratios) / min(ratios) < 1.5


@pytest.mark.parametrize("p,target", [(0.0, -0.5), (1.0, 0.5)])
def test_gauss_scaling_slope(p, target):
    params = WeightParams(T=1.0, tau=50.0, delta=0.25)
    slope, _ = gauss_scaling_slope(GRID, params, OMEGA0, OMEGA, p,
                                   np.array([[0.4375]]), [50, 100, 200, 400, 800])
    assert abs(slope - target) <= 0.15


def test_adaptive_quadrature_failure_path():
    with pytest.raises(QuadratureError):
        # oscillatory integrand whose trapezoid value keeps moving
        adaptive_log_integral(lambda t: np.sin(1e7 * t), 0.0, 1.0,
                              rel_tol=1e-14, n0=4, max_doublings=2)


def test_fit_slope_recovers_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert fit_slope(x, 3.5 * x - 2.0) == pytest.approx(3.5, rel=1e-12)

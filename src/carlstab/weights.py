"""Carleman weight family: spatial bump, exponential weight, time envelope.

The spatial weight is built from a quadratic bump

    psi(x) = C0 - |x - x0|^2,   x0 = centre of the inner observation box,

chosen so that on the unit box inflated by HAT_MARGIN: psi > 0, the gradient
is bounded below away from the inner box, and the outward normal derivative
is strictly negative near every face.  These three conditions are verified
numerically on construction and reported.

From psi the space factor and the time envelope are

    phi(x)   = exp(lam * psi(x)) - exp(lam * K) < 0,      K = KAPPA * C0 > sup psi,
    theta(t) = 1 / ((t + delta*T) * (T + delta*T - t)),   0 < delta <= 1/2,
    s(t)     = tau * theta(t).

theta peaks at the time endpoints with theta(0) = theta(T) =
1/(T^2 delta (1+delta)) and dips to 4/(T^2 (1+2 delta)^2) at T/2, so
exp(2 s phi) concentrates all weighted integrals near the mid time.  The
data are observed there, at the frame `TimeGrid.mid`.

Admissibility of a parameter set on a mesh of size h requires

    tau >= TAU0 * (T + T^2)   and   tau * h / (delta * T^2) <= EPSILON,

both of which are evaluated and stored per run.  C0, KAPPA, TAU0, EPSILON
and HAT_MARGIN are the fixed constants of the family; the parameters a run
varies (T, tau, lam, delta) are a `WeightParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AdmissibilityError, GridError
from .grid import GridSpec, full_closure
from .quadrature import adaptive_log_integral, fit_slope

# fixed constants of the family: psi = C0 - |x - x0|^2, K = KAPPA * C0 > sup psi,
# the window tau >= TAU0 (T + T^2) and tau h / (delta T^2) <= EPSILON, and the
# margin by which the unit box is inflated for the bump checks
C0 = 2.0
KAPPA = 1.1
TAU0 = 1.0
EPSILON = 0.5
HAT_MARGIN = 0.1


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis lower/upper bounds."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise GridError("box bounds have mismatched dimensions")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise GridError(f"degenerate box {self.lo}..{self.hi}")

    @staticmethod
    def cube(lo: float, hi: float, d: int) -> "Box":
        return Box((lo,) * d, (hi,) * d)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def strictly_contains(self, inner: "Box") -> bool:
        return all(a < ia and ib < b
                   for a, b, ia, ib in zip(self.lo, self.hi, inner.lo, inner.hi))

    def mask(self, physical: np.ndarray) -> np.ndarray:
        """Boolean membership of physical points (npts, d), edges inclusive."""
        tol = 1e-9
        inside = np.ones(physical.shape[0], dtype=bool)
        for i in range(self.d):
            inside &= (physical[:, i] >= self.lo[i] - tol) & (physical[:, i] <= self.hi[i] + tol)
        return inside


@dataclass(frozen=True)
class WeightParams:
    """The weight parameters a run varies: horizon, tau, lambda and delta."""

    T: float
    tau: float
    lam: float = 2.0
    delta: float = 0.5

    def __post_init__(self):
        if self.T <= 0:
            raise AdmissibilityError(f"T={self.T} must be positive")
        if self.tau < 1:
            raise AdmissibilityError(f"tau={self.tau} must be >= 1")
        if self.lam < 1:
            raise AdmissibilityError(f"lam={self.lam} must be >= 1")
        if not 0 < self.delta <= 0.5:
            raise AdmissibilityError(f"delta={self.delta} outside (0, 1/2]")


def admissible(tau: float, h: float, T: float, delta: float) -> tuple[bool, float, float]:
    """The admissibility window on a mesh of size h, as (ok, tau floor, coupling).

    ok is tau >= TAU0 (T + T^2) and tau h / (delta T^2) <= EPSILON, the latter
    with 1-ulp slack so a delta coupled exactly to the boundary stays admissible.
    """
    tau_floor = TAU0 * (T + T ** 2)
    coupling = tau * h / (delta * T ** 2)
    return tau >= tau_floor and coupling <= EPSILON * (1.0 + 1e-12), tau_floor, coupling


def coupled_delta(T: float, h: float, tau1: float, eps0: float) -> float:
    """delta coupled to the mesh via tau1 / (T^2 delta) = eps0 / h."""
    delta = tau1 * h / (T ** 2 * eps0)
    if not 0 < delta <= 0.5:
        raise AdmissibilityError(
            f"coupled delta={delta:.4g} outside (0, 1/2]; adjust tau1/eps0 for h={h:.4g}")
    return delta


def feasibility_cells(T: float, h: float, tau1: float, eps0: float, taus, deltas) -> list:
    """The (tau, delta) cells of the feasibility table on a mesh of size h, each
    once: tau1, then each listed tau, with every listed delta and then the
    mesh-coupled delta, where that lies in (0, 1/2]."""
    cell_deltas = list(deltas)
    try:
        cell_deltas.append(coupled_delta(T, h, tau1, eps0))
    except AdmissibilityError:
        pass  # coupling lands outside (0, 1/2] on this grid; plain cells remain
    return [(tau, delta) for tau in dict.fromkeys([tau1, *taus])
            for delta in dict.fromkeys(cell_deltas)]


def omega_mask(omega: Box, physical: np.ndarray) -> np.ndarray:
    """Membership of primal points in omega; raises GridError if none is inside."""
    mask = omega.mask(physical)
    if not np.any(mask):
        raise GridError("observation box contains no primal points on this grid")
    return mask


@dataclass(frozen=True)
class PsiReport:
    """Numerical check of the bump conditions on the inflated box sample."""

    min_psi: float
    min_grad_outside: float
    max_normal_derivative: float
    satisfied: bool


# (grid, omega0) -> PsiReport: the bump checks read nothing else
_BUMP_REPORTS: dict = {}


class CarlemanWeight:
    """Binds weight parameters to a grid and an observation geometry."""

    X0_FACE_MARGIN = 0.125

    def __init__(self, grid: GridSpec, params: WeightParams, omega0: Box, omega: Box):
        if omega0.d != grid.d or omega.d != grid.d:
            raise GridError("observation boxes do not match the grid dimension")
        unit = Box.cube(0.0, 1.0, grid.d)
        if not unit.strictly_contains(omega):
            raise GridError("omega must be compactly contained in the unit box")
        if not omega.strictly_contains(omega0):
            raise GridError("omega0 must be compactly contained in omega")
        x0 = omega0.center
        if any(min(c, 1.0 - c) < self.X0_FACE_MARGIN for c in x0):
            raise GridError(
                f"bump centre {x0} within {self.X0_FACE_MARGIN} of a face; "
                "the normal-derivative sign condition would degrade")
        self.grid = grid
        self.params = params
        self.omega0 = omega0
        self.omega = omega
        self.x0 = np.asarray(x0)
        self.K = KAPPA * C0
        if (grid, omega0) not in _BUMP_REPORTS:
            _BUMP_REPORTS[grid, omega0] = self._check_assumptions()
        self.assumption_report = _BUMP_REPORTS[grid, omega0]
        if not self.assumption_report.satisfied:
            raise GridError(
                f"bump conditions failed on the inflated box: {self.assumption_report}")
        # min |phi| over the closed lattice; phi < 0 throughout.
        self.mu0 = float(-np.max(self.phi(full_closure(grid).physical)))

    # spatial factors ---------------------------------------------------

    def psi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return C0 - np.sum((x - self.x0) ** 2, axis=1)

    def grad_psi_norm(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return 2.0 * np.sqrt(np.sum((x - self.x0) ** 2, axis=1))

    def phi(self, x: np.ndarray) -> np.ndarray:
        lam = self.params.lam
        return np.exp(lam * self.psi(x)) - math.exp(lam * self.K)

    def _check_assumptions(self) -> PsiReport:
        d = self.grid.d
        step = self.grid.h / 2.0
        ext = int(math.ceil(HAT_MARGIN / step))
        axis = np.arange(-ext, 2 * (self.grid.n + 1) + ext + 1) * step
        pts = np.stack([a.ravel() for a in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1)
        min_psi = float(np.min(self.psi(pts)))
        out0 = ~self.omega0.mask(pts)
        min_grad = float(np.min(self.grad_psi_norm(pts[out0]))) if np.any(out0) else np.inf
        # normal derivative d_n psi = -2 nu . (x - x0) on a layer around each face
        layer = 2.0 * self.grid.h
        max_dn = -np.inf
        for i in range(d):
            for face, sign in ((0.0, -1.0), (1.0, 1.0)):
                sel = np.abs(pts[:, i] - face) <= layer + 1e-12
                if not np.any(sel):
                    continue
                dn = sign * (-2.0) * (pts[sel, i] - self.x0[i])
                max_dn = max(max_dn, float(np.max(dn)))
        ok = min_psi > 0 and min_grad > 0 and max_dn < 0
        return PsiReport(min_psi, min_grad, max_dn, ok)

    # time envelope ------------------------------------------------------

    def theta(self, t):
        p = self.params
        t = np.asarray(t, dtype=np.float64)
        tol = 1e-12 * max(p.T, 1.0)
        if np.any(t < -tol) or np.any(t > p.T + tol):
            raise AdmissibilityError(f"theta evaluated outside [0, {p.T}]")
        return 1.0 / ((t + p.delta * p.T) * (p.T + p.delta * p.T - t))

    def s(self, t):
        return self.params.tau * self.theta(t)

    def log_weight(self, t, phi_values: np.ndarray, power: float = 0.0) -> np.ndarray:
        """log of (tau theta(t))^power * exp(2 tau theta(t) phi(x))."""
        st = float(self.s(t))
        out = 2.0 * st * phi_values
        if power != 0.0:
            out = out + power * math.log(st)
        return out

    # admissibility -------------------------------------------------------

    def admissibility(self) -> tuple[bool, dict]:
        p = self.params
        h = self.grid.h
        ok, tau_floor, coupling = admissible(p.tau, h, p.T, p.delta)
        return ok, {
            "tau": p.tau,
            "tau_floor": tau_floor,
            "coupling": coupling,
            "epsilon": EPSILON,
            "h": h,
            "delta": p.delta,
        }

    def require_admissible(self):
        ok, info = self.admissibility()
        if not ok:
            raise AdmissibilityError(f"inadmissible weight parameters: {info}")


@dataclass
class GaussTimeBound:
    """Mid-time comparison of the weighted time integral for one tau."""

    tau: float
    p: float
    log_lhs: float
    log_rhs: float
    ratio: float


def gauss_time_bound_check(weight: CarlemanWeight, p: float, x) -> GaussTimeBound:
    """Compare int_0^T (tau theta)^p exp(2 tau theta phi(x)) dt against
    tau^(p-1/2) exp(2 tau theta(T/2) phi(x)).

    The integral is evaluated in log space by step-halving trapezoid; the
    ratio lhs/rhs stays bounded in tau, which the sweep tests assert.  phi < 0
    everywhere, since K = KAPPA C0 > C0 >= psi.
    """
    phi_x = float(weight.phi(np.atleast_2d(x))[0])
    prm = weight.params
    tau = prm.tau

    def fn_log(t):
        st = tau * weight.theta(t)
        return p * np.log(st) + 2.0 * st * phi_x

    log_lhs = adaptive_log_integral(fn_log, 0.0, prm.T)
    log_rhs = (p - 0.5) * math.log(tau) + 2.0 * tau * float(weight.theta(prm.T / 2.0)) * phi_x
    return GaussTimeBound(tau, p, log_lhs, log_rhs, math.exp(log_lhs - log_rhs))


def gauss_scaling_slope(grid: GridSpec, params: WeightParams, omega0: Box, omega: Box,
                        p: float, x, taus) -> tuple[float, list[GaussTimeBound]]:
    """Slope of log(integral / exp(2 s(T/2) phi)) against log tau over a sweep.

    The Laplace picture predicts slope p - 1/2 once tau is large.
    """
    checks = []
    for tau in taus:
        w = CarlemanWeight(grid, replace(params, tau=float(tau)), omega0, omega)
        checks.append(gauss_time_bound_check(w, p, x))
    xs = [math.log(c.tau) for c in checks]
    # log_rhs - (p - 1/2) log tau is exactly the mid-time exponent 2 s(T/2) phi(x)
    ys = [c.log_lhs - (c.log_rhs - (p - 0.5) * math.log(c.tau)) for c in checks]
    return fit_slope(xs, ys), checks

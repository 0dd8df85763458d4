"""Coefficient fields of the parabolic operator and their regularity bound.

A coefficient sampler maps (t, X) with X of shape (npts, d) to an array of
npts values.  Samplers are small frozen dataclasses so whole problem setups
pickle cleanly across worker processes.  A separable sampler (these fields
but the time derivative, separable sources and their rates) also has
`separable(X)`: (base, space or None, rho or None), the call being
base + space * rho(t) bitwise, or base where space is None; rho takes a
scalar or an array of times.  `sample_frames` and `solver.Stepper` read it.

The regularity functional collects, per diffusion component,

    gamma + 1/gamma + |grad_x gamma| + |dt gamma|

and takes the essential sup, estimated on the grid: spatial derivatives use
the grid's own difference operators on the fully closed lattice, time
derivatives use the analytic samplers when present (fields without analytic
time derivatives are treated as time independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import operators as ops
from .errors import GridError


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __call__(self, t, X):
        return np.full(np.atleast_2d(X).shape[0], self.value)

    def separable(self, X):
        return self.value, None, None


@dataclass(frozen=True)
class SmoothField:
    """base + amp * sin(pi w.x + phase) * (1 + tamp * sin(2 pi t / T + tphase))."""

    base: float
    amp: float
    w: tuple[float, ...]
    phase: float = 0.0
    tamp: float = 0.0
    tphase: float = 0.0
    T: float = 1.0

    def _space(self, X):
        X = np.atleast_2d(X)
        return np.sin(math.pi * (X @ np.asarray(self.w)) + self.phase)

    def _rho(self, t):
        # np.sin serves a scalar t and an array of times alike
        return 1.0 + self.tamp * np.sin(2.0 * math.pi * t / self.T + self.tphase)

    def __call__(self, t, X):
        return self.base + self.amp * self._space(X) * self._rho(t)

    def separable(self, X):
        return self.base, self.amp * self._space(X), self._rho

    def dt(self, t, X):
        rho_p = self.tamp * (2.0 * math.pi / self.T) * math.cos(2.0 * math.pi * t / self.T + self.tphase)
        return self.amp * self._space(X) * rho_p


@dataclass(frozen=True)
class FieldTimeDerivative:
    field: SmoothField

    def __call__(self, t, X):
        return self.field.dt(t, X)


def frame_sampler(fn, X):
    """times -> fn(t, X) at every time, stacked, shape (len(times), len(X)): from
    `fn.separable(X)`, formed once, on the column of times if the sampler has the
    form, else by fn once per time; a block of the wrong shape is rejected."""
    X = np.atleast_2d(X)
    form = fn.separable(X) if hasattr(fn, "separable") else None

    def frames(times) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        if form is None:
            vals = np.array([fn(float(t), X) for t in times], dtype=np.float64)
        else:
            base, space, rho = form
            vals = (np.full((len(times), X.shape[0]), base, dtype=np.float64) if space is None
                    else base + space * rho(times[:, None]))
        if vals.shape != (len(times), X.shape[0]):
            raise GridError(f"sampler returned frames of shape {vals.shape}, "
                            f"expected ({len(times)}, {X.shape[0]})")
        return vals

    return frames


def sample_frames(fn, times, X) -> np.ndarray:
    return frame_sampler(fn, X)(times)


@dataclass
class RegularityReport:
    reg: float
    b_sup: float
    c_sup: float


@dataclass(frozen=True)
class CoefficientFields:
    """Diffusion, advection, and zero-order samplers with optional dt's.

    `b` may be None for operators without an advection part, whose assembled
    matrix then equals its transpose.  Time-derivative samplers must be supplied
    whenever the corresponding field actually depends on t; their absence
    declares the field time independent.
    """

    gamma: tuple
    b: tuple | None
    c: object
    dt_gamma: tuple | None = None
    dt_b: tuple | None = None
    dt_c: object | None = None

    @property
    def d(self) -> int:
        return len(self.gamma)

    @property
    def time_independent(self) -> bool:
        return self.dt_gamma is None and self.dt_b is None and self.dt_c is None

    @staticmethod
    def constant(d: int, gamma: float = 1.0, b: float | None = None, c: float = 0.0) -> "CoefficientFields":
        if gamma <= 0:
            raise GridError(f"diffusion coefficient must be positive, got {gamma}")
        bs = None if b is None else tuple(ConstantField(b) for _ in range(d))
        return CoefficientFields(
            gamma=tuple(ConstantField(gamma) for _ in range(d)),
            b=bs,
            c=ConstantField(c),
        )

    def regularity(self, grid: g.GridSpec, times) -> RegularityReport:
        """Grid-estimated regularity bound and sup norms of b and c."""
        mesh = g.full_closure(grid)
        X = mesh.physical
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        reg = 0.0
        for i, gam in enumerate(self.gamma):
            vals = sample_frames(gam, times, X)
            grad_max_sq = 0.0
            for ax in range(grid.d):
                grad = ops.diff_block(vals, mesh, ax)[0]
                grad_max_sq = grad_max_sq + np.max(np.abs(grad), axis=1) ** 2
            local = np.max(vals + 1.0 / vals, axis=1) + np.sqrt(grad_max_sq)
            if self.dt_gamma is not None:
                local += np.max(np.abs(sample_frames(self.dt_gamma[i], times, X)), axis=1)
            reg = max(reg, float(np.max(local)))
        b_sup = max((float(np.max(np.abs(sample_frames(bi, times, X)))) for bi in self.b or ()),
                    default=0.0)
        c_sup = float(np.max(np.abs(sample_frames(self.c, times, X))))
        return RegularityReport(reg=reg, b_sup=b_sup, c_sup=c_sup)


def random_smooth_coefficients(rng: np.random.Generator, d: int, T: float,
                               time_dependent: bool = False,
                               b_amp: float = 0.0) -> CoefficientFields:
    """Random smooth coefficient set, gamma within 0.4 of 1 and |c| <= 1."""

    def draw(base, amp, with_time):
        w = tuple(rng.uniform(0.5, 1.5, size=d))
        return SmoothField(
            base=base,
            amp=amp * rng.uniform(0.5, 1.0),
            w=w,
            phase=rng.uniform(0.0, 2.0 * math.pi),
            tamp=rng.uniform(0.15, 0.3) if with_time else 0.0,
            tphase=rng.uniform(0.0, 2.0 * math.pi) if with_time else 0.0,
            T=T,
        )

    gammas = tuple(draw(1.0, 0.4, time_dependent) for _ in range(d))
    c = draw(0.0, 1.0, time_dependent)
    bs = tuple(draw(0.0, b_amp, time_dependent) for _ in range(d)) if b_amp > 0 else None
    if time_dependent:
        return CoefficientFields(
            gamma=gammas, b=bs, c=c,
            dt_gamma=tuple(FieldTimeDerivative(gm) for gm in gammas),
            dt_b=tuple(FieldTimeDerivative(bi) for bi in bs) if bs else None,
            dt_c=FieldTimeDerivative(c),
        )
    return CoefficientFields(gamma=gammas, b=bs, c=c)

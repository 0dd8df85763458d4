"""Compensated summation and scale-free weighted quadrature.

Every reduction in the package is deterministic and order-fixed.  The
discrete integrals of `operators` and the energy check's totals go through
`exact_sum`, an exactly rounded float sum (math.fsum): identity residuals
tested at the 1e-12 * scale level must not be polluted by naive accumulation.

Weighted space-time sums

    sum_m  w_m * cell * s_m^power * sum_x  f(t_m, x)^2 * exp(2 s_m phi(x))

never form exp(2 s_m phi(x)), which underflows where s_m phi(x) < -372.  A
frame's weight splits into a table entry exp(2 s_m (phi(x) - max phi)) in
(0, 1] (`scaled_table`, stacked over weights), which depends on (s, phi) only
and so serves every field on its points and every exponent, and a log scale
2 s_m max phi + power log s_m + log(w_m cell) (`frame_scales`).  Each frame
sum of a squared block times the table (`row_sums`) is numpy's sum of one
contiguous row, so its bits do not depend on the chunk that holds the row,
and it is within (width - 1) 2^-53 of the exact sum relative (Higham, "The
accuracy of floating point summation", SIAM J. Sci. Comput. 14(4), 1993).
`frame_terms` combines the frames as logsumexp does (Blanchard, Higham &
Higham, IMA J. Numer. Anal. 41(4), 2021) into a `Term`, a (log scale,
mantissa) pair whose ratios are taken in log space.  `space_time_sum` is the
kernel for one weight, a chunk of whole frames holding about CHUNK_POINTS
table entries at a time, which bounds the temporaries whatever the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

# table entries (weights x frames x points) per chunk of whole frames
CHUNK_POINTS = 1 << 15


def exact_sum(values) -> float:
    """Exactly rounded sum of a float array (order-independent)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    return math.fsum(arr.tolist())


@dataclass(frozen=True)
class Term:
    """A non-negative weighted sum, mantissa * exp(log_scale); zero is (-inf, 0)."""

    log_scale: float
    mantissa: float

    @property
    def value(self) -> float:
        """The linear value; 0.0 where it underflows."""
        return self.mantissa * math.exp(self.log_scale)

    @property
    def log(self) -> float:
        """log of the value, finite where the value underflows; -inf for zero."""
        return self.log_scale + math.log(self.mantissa) if self.mantissa else -math.inf

    def __add__(self, other: "Term") -> "Term":
        top = max(self.log_scale, other.log_scale)
        if top == -math.inf:
            return self
        return Term(top, self.mantissa * math.exp(self.log_scale - top)
                    + other.mantissa * math.exp(other.log_scale - top))

    def __truediv__(self, other: "Term") -> float:
        """The ratio of two terms, exp(log self - log other), for a non-zero `other`."""
        return self.mantissa / other.mantissa * math.exp(self.log_scale - other.log_scale)


ZERO_TERM = Term(-math.inf, 0.0)


def scaled_table(s: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """exp(2 s[w, m] dphi[w, x]), shape (weights, frames, points), of (weights,
    frames) `s` and (weights, points) `dphi` = phi - max phi <= 0."""
    table = (2.0 * s)[:, :, None] * dphi[:, None, :]
    return np.exp(table, out=table)


def row_sums(table: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """sum_x table[w, m, x] sq[m, x], shape (weights, frames): each entry numpy's
    sum of one contiguous row."""
    return np.multiply(table, sq).sum(axis=-1)


def frame_scales(s, top, power, log_cell) -> np.ndarray:
    """Frame log scales 2 s_m top + power log s_m + log_cell, with top = max phi
    and log_cell = log(w_m cell); the arguments broadcast."""
    return 2.0 * s * top + power * np.log(s) + log_cell


def frame_terms(sums: np.ndarray, scales: np.ndarray) -> list[Term]:
    """sum_m sums[k, m] exp(scales[k, m]) per row k of non-negative frame sums, as
    Terms scaled by the row's largest scale of a non-zero frame."""
    live = sums != 0.0
    top = np.where(live, scales, -np.inf).max(axis=1)
    mantissas = (sums * np.exp(np.where(live, scales - top[:, None], -np.inf))).sum(axis=1)
    return [Term(float(t), float(m)) for t, m in zip(top, mantissas)]


def space_time_sum(sq: np.ndarray, phi: np.ndarray, s: np.ndarray, power: float,
                   cell: float, time_weights: np.ndarray) -> Term:
    """sum_m w_m cell sum_x sq[m, x] s_m^power e^(2 s_m phi(x)) as a Term, for
    the squared (frames, points) block `sq`, `phi` per point and `s` and
    `time_weights` per frame; its bits do not depend on CHUNK_POINTS."""
    top = float(phi.max())
    sums = np.empty((1, sq.shape[0]))
    rows = max(1, CHUNK_POINTS // max(1, phi.size))
    for a in range(0, sq.shape[0], rows):
        table = scaled_table(s[None, a:a + rows], (phi - top)[None])
        sums[:, a:a + rows] = row_sums(table, sq[a:a + rows])
    return frame_terms(sums, frame_scales(s, top, power, np.log(time_weights * cell))[None])[0]


def trapezoid_weights(n_frames: int, dt: float) -> np.ndarray:
    w = np.full(n_frames, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def log_trapezoid(fn_log, a: float, b: float, n: int) -> float:
    """log of the composite-trapezoid value of integral exp(fn_log(t)) dt, by `frame_terms`."""
    t = np.linspace(a, b, n + 1)
    lw = np.log(trapezoid_weights(n + 1, (b - a) / n))
    return frame_terms(np.ones((1, n + 1)), (fn_log(t) + lw)[None])[0].log


def adaptive_log_integral(fn_log, a: float, b: float, rel_tol: float = 1e-8,
                          n0: int = 64, max_doublings: int = 16) -> float:
    """Step-halving trapezoid in log space until the value stabilises."""
    n = n0
    prev = log_trapezoid(fn_log, a, b, n)
    for _ in range(max_doublings):
        n *= 2
        cur = log_trapezoid(fn_log, a, b, n)
        if abs(math.expm1(min(prev - cur, 700.0))) <= rel_tol:
            return cur
        prev = cur
    raise QuadratureError(f"quadrature did not stabilise to {rel_tol} within n={n} nodes")


def fit_slope(x, y) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xm = x - x.mean()
    return float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))

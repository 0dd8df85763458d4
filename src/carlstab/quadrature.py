"""Compensated summation and underflow-safe weighted quadrature.

Every reduction in the package is deterministic and order-fixed.  The
discrete integrals of `operators` and the totals over frames go through
`exact_sum`, an exactly rounded float sum (math.fsum): identity residuals
tested at the 1e-12 * scale level must not be polluted by naive accumulation.

Weighted space-time sums of the form

    sum_m  w_m * cell * s_m^power * sum_x  f(t_m, x)^2 * exp(2 s_m phi(x))

are evaluated by `space_time_sum` on the squared (frames x points) block
f^2 of a trajectory-like field, so a caller that sums one block under
several weights squares it once.  The block is walked in chunks of whole
frames holding about CHUNK_POINTS points, which bounds the temporaries
whatever the grid.  Within a chunk the log weight is formed once per point,
and points whose log weight sits below the underflow threshold are skipped
(an upper bound on the skipped mass is recorded).  Each frame's value and
skipped mass is numpy's sum of one contiguous row, which depends only on the
row, not on the chunk that holds it; the summands are non-negative, so it is
within (width - 1) 2^-53 of the exact sum relative (Higham, "The accuracy of
floating point summation", SIAM J. Sci. Comput. 14(4), 1993).  The frames
are then combined with the time weights by `exact_sum`.

`weighted_square_sum` is the same sum for a single frame through math.fsum;
it serves the single-time terms and is the reference the block kernel is
tested against.  `log_weighted_square_sum` is the exact log of one frame's
sum, which survives even where the plain value underflows to zero; the
exponential-decay study depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

LOG_TINY = math.log(np.finfo(np.float64).tiny)
SKIP_MARGIN = 60.0
SKIP_THRESHOLD = LOG_TINY + SKIP_MARGIN
# points per chunk of whole frames in `space_time_sum`
CHUNK_POINTS = 1 << 15


def exact_sum(values) -> float:
    """Exactly rounded sum of a float array (order-independent)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    return math.fsum(arr.tolist())


@dataclass
class Term:
    """One weighted quadratic term: its value and a skip bound.

    `skipped_bound` is an upper bound on the mass dropped by the underflow
    guard; it is zero unless some points fell below the threshold.
    """

    value: float
    skipped_bound: float

    def __add__(self, other: "Term") -> "Term":
        return Term(self.value + other.value, self.skipped_bound + other.skipped_bound)


ZERO_TERM = Term(0.0, 0.0)


def weighted_square_sum(values: np.ndarray, logw: np.ndarray, cell: float) -> Term:
    """cell * sum_x values(x)^2 * exp(logw(x)) with underflow skipping."""
    values = np.asarray(values, dtype=np.float64).ravel()
    logw = np.asarray(logw, dtype=np.float64).ravel()
    sq = values * values
    keep = logw >= SKIP_THRESHOLD
    val = cell * exact_sum(sq[keep] * np.exp(logw[keep]))
    skipped = cell * exact_sum(sq[~keep]) * math.exp(SKIP_THRESHOLD)
    return Term(val, skipped)


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D float array, bitwise as scipy.special's
    (1.17) without importing it: the maxima are split out of the sum,
    log1p(s/m) + log(m) + max with m of them, and where that is not finite
    the plain log(sum(exp(a))) stands.  An empty array gives -inf."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        plain = np.log(np.sum(np.exp(a), keepdims=True))
        a_max = np.max(a, keepdims=True)
        top = a == a_max
        m = np.sum(top, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    return float(np.where(np.isfinite(out), out, plain)[0])


def log_weighted_square_sum(values: np.ndarray, logw: np.ndarray, cell: float) -> float:
    """log of cell * sum_x values(x)^2 * exp(logw(x)), exact where the value
    underflows; -inf for an identically zero frame."""
    values = np.asarray(values, dtype=np.float64).ravel()
    logw = np.asarray(logw, dtype=np.float64).ravel()
    sq = values * values
    nz = sq > 0.0
    if not np.any(nz):
        return -np.inf
    return float(logsumexp(np.log(sq[nz]) + logw[nz])) + math.log(cell)


def space_time_sum(sq: np.ndarray, phi: np.ndarray, s: np.ndarray, power: float,
                   cell: float, time_weights: np.ndarray) -> Term:
    """sum_m w_m cell sum_x sq[m, x] s_m^power e^(2 s_m phi(x)), guarded.

    `sq` is the squared (frames, points) block of a field; `phi` (one entry per
    point), `s` and `time_weights` (one per frame) are float arrays.  Each row
    sum is numpy's sum of the contiguous row, so each frame's bits do not
    depend on CHUNK_POINTS.
    """
    n_frames = sq.shape[0]
    if power != 0.0:
        shift = power * np.log(s)
    vals = np.empty(n_frames)
    skips = np.zeros(n_frames)
    rows = max(1, CHUNK_POINTS // max(1, phi.size))
    for a in range(0, n_frames, rows):
        b = min(a + rows, n_frames)
        logw = (2.0 * s[a:b])[:, None] * phi
        if power != 0.0:
            logw += shift[a:b, None]
        keep = logw >= SKIP_THRESHOLD
        w = np.exp(logw, out=logw)
        if not keep.all():
            skips[a:b] = cell * np.where(keep, 0.0, sq[a:b]).sum(axis=1) * math.exp(SKIP_THRESHOLD)
            w[~keep] = 0.0
        w *= sq[a:b]
        vals[a:b] = cell * w.sum(axis=1)
    return Term(exact_sum(vals * time_weights), exact_sum(skips * time_weights))


def trapezoid_weights(n_frames: int, dt: float) -> np.ndarray:
    w = np.full(n_frames, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def log_trapezoid(fn_log, a: float, b: float, n: int) -> float:
    """log of the composite-trapezoid value of integral exp(fn_log(t)) dt."""
    t = np.linspace(a, b, n + 1)
    lw = np.log(trapezoid_weights(n + 1, (b - a) / n))
    return float(logsumexp(fn_log(t) + lw))


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

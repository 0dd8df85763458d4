"""Compensated summation and underflow-safe weighted quadrature.

All discrete integrals in the package funnel through `exact_sum`, which is an
exactly-rounded float sum (math.fsum): identity residuals tested at the
1e-12 * scale level must not be polluted by naive accumulation.

Weighted space-time sums of the form

    sum_m  w_m * cell * s_m^power * sum_x  f(t_m, x)^2 * exp(2 s_m phi(x))

are evaluated by `space_time_sum` on the whole (frames x points) block of a
trajectory-like field.  The block is walked in chunks of whole frames holding
about CHUNK_POINTS points, which bounds the temporaries whatever the grid.
Within a chunk the log weight is formed once per point, and points whose log
weight sits below the underflow threshold are skipped (an upper bound on the
skipped mass is recorded).  Each frame's value and skipped mass is a
compensated pairwise row sum (`_row_sums`: a TwoSum cascade, vectorised over
the chunk, whose order is fixed by the row width, so reruns and any worker
count give the same bits; rows it cannot certify as exactly rounded go to
math.fsum, so it equals fsum); the frames are then combined with the time
weights by `exact_sum`.

`weighted_square_sum` is the same sum for a single frame; it serves the
single-time terms and is the reference the block kernel is tested against.
`log_weighted_square_sum` is the exact log of one frame's sum, which survives
even where the plain value underflows to zero; the exponential-decay study
depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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


def space_time_sum(block: np.ndarray, phi: np.ndarray, s: np.ndarray, power: float,
                   cell: float, time_weights: np.ndarray) -> Term:
    """sum_m w_m cell sum_x block[m, x]^2 s_m^power e^(2 s_m phi(x)), guarded.

    `block` is (frames, points); `phi` (one entry per point), `s` and
    `time_weights` (one per frame) are float arrays.  Row sums are compensated pairwise
    (`_row_sums`), so each frame gets the bits `weighted_square_sum` would.
    """
    block = np.asarray(block, dtype=np.float64)
    n_frames = block.shape[0]
    if power != 0.0:
        shift = np.array([power * math.log(sm) for sm in s.tolist()])
    vals = np.empty(n_frames)
    skips = np.zeros(n_frames)
    rows = max(1, CHUNK_POINTS // max(1, phi.size))
    for a in range(0, n_frames, rows):
        b = min(a + rows, n_frames)
        logw = (2.0 * s[a:b])[:, None] * phi
        if power != 0.0:
            logw += shift[a:b, None]
        sq = block[a:b] * block[a:b]
        keep = logw >= SKIP_THRESHOLD
        if not keep.all():
            skips[a:b] = cell * _row_sums(np.where(keep, 0.0, sq)) * math.exp(SKIP_THRESHOLD)
        w = np.exp(logw, out=logw)
        w[~keep] = 0.0
        w *= sq
        vals[a:b] = cell * _row_sums(w)
    return Term(exact_sum(vals * time_weights), exact_sum(skips * time_weights))


def _row_sums(block: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a non-negative block, vectorised.

    A pairwise TwoSum cascade over the zero-padded columns halves the partial
    sums s and their exact errors level by level.  For non-negative rows the
    summed errors e are within 2 (levels + 1)^2 u^2 s of exact, so fl(s + e) is
    the exactly rounded sum unless s + e lies within 4 times that of a rounding
    boundary; such rows (ties among them) go to math.fsum.
    """
    width = block.shape[1]
    levels = max(1, (width - 1).bit_length())
    s = np.zeros((block.shape[0], 1 << levels))
    s[:, :width] = block
    e = None
    while s.shape[1] > 1:
        half = s.shape[1] // 2
        a, b = s[:, :half], s[:, half:]
        t = a + b
        z = t - a
        err = (a - (t - z)) + (b - z)      # TwoSum: t + err == a + b exactly
        if e is not None:
            err += e[:, :half] + e[:, half:]
        s, e = t, err
    s, e = s[:, 0], e[:, 0]
    hi = s + e
    lo = e - (hi - s)      # hi + lo == s + e exactly, as |e| <= |s|
    ulp = np.where(lo >= 0.0, np.nextafter(hi, np.inf) - hi, hi - np.nextafter(hi, -np.inf))
    slack = 8.0 * (levels + 1) ** 2 * 2.0 ** -106
    risky = (lo != 0.0) & (np.abs(2.0 * np.abs(lo) - ulp) <= slack * hi)
    for i in np.flatnonzero(risky).tolist():
        hi[i] = math.fsum(block[i].tolist())
    return np.where(np.isfinite(s), hi, s)


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

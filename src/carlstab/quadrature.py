"""Compensated summation and underflow-safe weighted quadrature.

All discrete integrals in the package funnel through `exact_sum`, which is an
exactly-rounded float sum (math.fsum): identity residuals tested at the
1e-12 * scale level must not be polluted by naive accumulation.

Weighted space-time sums of the form

    sum_m  w_m * cell * s_m^power * sum_x  f(t_m, x)^2 * exp(2 s_m phi(x))

are evaluated by `space_time_sum` on the squared (frames x points) block
f^2 of a trajectory-like field, so a caller that sums one block under
several weights squares it once.  The block is walked in chunks of whole
frames holding about CHUNK_POINTS points, which bounds the temporaries
whatever the grid.  Within a chunk the log weight is formed once per point,
and points whose log weight sits below the underflow threshold are skipped
(an upper bound on the skipped mass is recorded).  Each frame's value and
skipped mass is an exactly rounded row sum (`_row_sums`); the frames are
then combined with the time weights by `exact_sum`.

`_row_sums` splits every non-negative row by one error-free extraction
against a power of two sigma = 2^(M+e), 2^M >= width + 2 and 2^e > the row
max (Rump, Ogita & Oishi, "Accurate floating-point summation, part I", SIAM
J. Sci. Comput. 31(1), 2008): the high parts q = (sigma + x) - sigma sum
exactly in any order, the low parts r = x - q are exact, and the two sums
meet in one TwoSum.  The error left in the float sum of r is at most
width^2 2^(M+1-106) times the result, so the result is exactly rounded
unless the TwoSum remainder lies within 4 times that of a rounding boundary.
Such rows, rows whose max is below 2^-900 (not zero), and rows whose sigma
would overflow go to math.fsum; every row therefore equals fsum, whatever the
chunking, so reruns and any worker count give the same bits.

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
    sum is exactly rounded (`_row_sums`), so each frame gets the bits
    `weighted_square_sum` would.
    """
    n_frames = sq.shape[0]
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
        keep = logw >= SKIP_THRESHOLD
        w = np.exp(logw, out=logw)
        if not keep.all():
            skips[a:b] = cell * _row_sums(np.where(keep, 0.0, sq[a:b])) * math.exp(SKIP_THRESHOLD)
            w[~keep] = 0.0
        w *= sq[a:b]
        vals[a:b] = cell * _row_sums(w)
    return Term(exact_sum(vals * time_weights), exact_sum(skips * time_weights))


# rows whose max lies below this go to math.fsum: the extraction's error bound
# is relative to the row's result, and must stay clear of the subnormal range
_TINY_ROW_MAX = 2.0 ** -900


def _row_sums(block: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a non-negative block, vectorised.

    One error-free extraction per row: with 2^M >= width + 2 and 2^e > the row
    max (the `frexp` exponent), sigma = 2^(M+e) splits each x into
    q = (sigma + x) - sigma, a multiple of ulp(sigma) of at most 2^e, and the
    exact remainder r = x - q, |r| <= ulp(sigma)/2.  The sum tau of the q is
    exact in any order (every partial sum is a multiple of ulp(sigma) below
    sigma); the float sum of the r is within width^2 2^(M+e-106) <=
    width^2 2^(M+1-106) hi of exact.  hi = fl(tau + sum r) with its TwoSum
    remainder lo is then the exactly rounded sum unless hi + lo lies within
    4 width^2 2^(M+1-106) hi of a rounding boundary, ties included.  Those
    rows, rows with 0 < max < 2^-900 and rows whose sigma overflows go to
    math.fsum (an overflowing fsum reads inf); rows holding inf or nan keep
    their plain sum.
    """
    width = block.shape[1]
    high = (width + 1).bit_length()             # 2^high >= width + 2
    top = block.max(axis=1)
    finite = np.isfinite(top)
    _, e = np.frexp(np.where(finite, top, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, high + e)[:, None]
        part = block + sigma
        part -= sigma                           # q, the high parts
        tau = part.sum(axis=1)
        np.subtract(block, part, out=part)      # r, the exact low parts
        low = part.sum(axis=1)
        hi = tau + low
        z = hi - tau
        lo = (tau - (hi - z)) + (low - z)       # TwoSum: hi + lo == tau + low exactly
        ulp = np.where(lo >= 0.0, np.nextafter(hi, np.inf) - hi,
                       hi - np.nextafter(hi, -np.inf))
        slack = 4.0 * width * width * 2.0 ** (high + 1 - 106)
        risky = np.abs(2.0 * np.abs(lo) - ulp) <= slack * hi
    risky |= (top > 0.0) & (top < _TINY_ROW_MAX)
    risky |= np.isinf(sigma[:, 0])
    risky &= finite
    for i in np.flatnonzero(risky).tolist():
        try:
            hi[i] = math.fsum(block[i].tolist())
        except OverflowError:
            hi[i] = math.inf
    if not finite.all():
        hi[~finite] = block[~finite].sum(axis=1)
    return hi


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

"""The block kernel `space_time_sum` against a per-frame reference.

The reference evaluates each frame with `weighted_square_sum` on the weight's
own `log_weight` and combines the frames with the time weights by exactly
rounded sums, for the value and for the skipped mass.  The kernel's row sums,
`_row_sums`, are pinned bit for bit to math.fsum, and the numpy `logsumexp`
to scipy.special's.
"""

import math

import numpy as np
import pytest

from carlstab import grid as g
from carlstab import quadrature
from carlstab.quadrature import (CHUNK_POINTS, Term, _row_sums, exact_sum, space_time_sum,
                                 weighted_square_sum)
from carlstab.solver import TimeGrid
from carlstab.weights import Box, CarlemanWeight, WeightParams


def make_weight(grid, tau=3.0, delta=0.5, lam=2.0):
    params = WeightParams(T=1.0, tau=tau, delta=delta, lam=lam)
    d = grid.d
    return CarlemanWeight(grid, params, Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def per_frame_reference(block, phi, weight, tg, power, cell) -> Term:
    vals, skips = [], []
    for m, t in enumerate(tg.times):
        term = weighted_square_sum(block[m], weight.log_weight(float(t), phi, power), cell)
        vals.append(term.value)
        skips.append(term.skipped_bound)
    tw = np.asarray(tg.trap)
    return Term(exact_sum(np.asarray(vals) * tw), exact_sum(np.asarray(skips) * tw))


def assert_pinned(got: Term, want: Term):
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
    assert got.skipped_bound == want.skipped_bound


def both(block, grid, tg, power, weight=None):
    weight = weight or make_weight(grid)
    phi = weight.phi(g.primal(grid).physical)
    cell = grid.h ** grid.d
    return (space_time_sum(block * block, phi, weight.s(tg.times), power, cell, tg.trap),
            per_frame_reference(block, phi, weight, tg, power, cell))


@pytest.mark.parametrize("d,n", [(1, 15), (1, 31), (2, 15)])
@pytest.mark.parametrize("power", [0, 1.5, 3])
def test_kernel_matches_per_frame_reference(d, n, power):
    grid = g.GridSpec(d, n)
    tg = TimeGrid(1.0, 64)
    rng = np.random.default_rng(100 * d + n)
    block = rng.normal(size=(tg.steps + 1, g.primal(grid).size))
    got, want = both(block, grid, tg, power)
    assert_pinned(got, want)
    assert got.value > 0.0


def test_kernel_spans_chunks_with_a_ragged_last_chunk():
    grid = g.GridSpec(2, 31)
    npts = g.primal(grid).size
    rows = CHUNK_POINTS // npts
    tg = TimeGrid(1.0, 256)
    n_frames = tg.steps + 1
    assert n_frames * npts > CHUNK_POINTS and n_frames % rows != 0
    block = np.random.default_rng(7).normal(size=(n_frames, npts))
    got, want = both(block, grid, tg, 4)
    assert_pinned(got, want)


def test_zero_frames_and_zero_block():
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 32)
    block = np.random.default_rng(11).normal(size=(tg.steps + 1, 15))
    block[0] = 0.0
    block[10:13] = 0.0
    got, want = both(block, grid, tg, 1)
    assert_pinned(got, want)

    got, want = both(np.zeros_like(block), grid, tg, 1)
    assert_pinned(got, want)
    assert got.value == 0.0 and got.skipped_bound == 0.0


def test_underflow_guard_matches_per_frame_reference():
    # the lambda = 3 case of test_underflow_guard_skips_and_reports_mass
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 16)
    block = np.ones((17, 15))
    got, want = both(block, grid, tg, 3, weight=make_weight(grid, tau=8.0, lam=3.0))
    assert_pinned(got, want)
    assert got.skipped_bound > 0.0


def assert_rows_equal_fsum(block):
    want = np.array([math.fsum(row.tolist()) for row in block])
    got = _row_sums(block)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("width", [1, 2, 3, 31, 63, 961])
def test_row_sums_equal_fsum_bitwise(width):
    rng = np.random.default_rng(width)
    rows = 300
    for span in (50.0, 600.0):
        # non-negative summands spanning e^-span..1 within each row
        block = rng.uniform(size=(rows, width)) * np.exp(-span * rng.uniform(size=(rows, width)))
        block[0] = 0.0
        block[1] = np.ldexp(rng.integers(0, 1 << 20, width).astype(np.float64), -1074)
        block[2] = np.exp(-span) * np.ones(width)
        assert 0.0 < block[1].max() < np.finfo(np.float64).tiny
        assert_rows_equal_fsum(block)


def test_row_sums_equal_fsum_on_kernel_chunks():
    # the shape `space_time_sum` hands over at d = 2, N = 31, with its weights
    grid = g.GridSpec(2, 31)
    npts = g.primal(grid).size
    rows = CHUNK_POINTS // npts
    assert (rows, npts) == (34, 961)
    weight = make_weight(grid, tau=8.0, lam=3.0)
    phi = weight.phi(g.primal(grid).physical)
    s = weight.s(TimeGrid(1.0, 256).times)[100:100 + rows]
    block = np.random.default_rng(5).normal(size=(rows, npts)) ** 2
    assert_rows_equal_fsum(block * np.exp(2.0 * s[:, None] * phi))
    assert_rows_equal_fsum(np.random.default_rng(6).uniform(size=(rows, npts)))


def test_row_sums_round_ties_like_fsum():
    # the cascade's partial sum is a tie that a summand below its precision breaks
    u = 2.0 ** -53
    block = np.array([[1.0, u, u ** 2], [1.0, u, 0.0], [u ** 2, u, 1.0], [2.0, u, u ** 2],
                      [1.0, 3.0 * u, u ** 2], [0.5, 0.5 * u, 0.5 * u ** 2]])
    assert_rows_equal_fsum(block)
    assert _row_sums(block)[0] == 1.0 + 2.0 * u


@pytest.mark.parametrize("width", [1025, 4097])
def test_row_sums_equal_fsum_just_above_a_power_of_two(width):
    # 2^M >= width + 2 takes the next power of two: the widest extraction margin
    rng = np.random.default_rng(width)
    for span in (50.0, 600.0):
        block = rng.uniform(size=(40, width)) * np.exp(-span * rng.uniform(size=(40, width)))
        block[3] = 1.0
        assert_rows_equal_fsum(block)


def test_row_sums_keep_the_plain_sum_of_non_finite_rows():
    rng = np.random.default_rng(12)
    block = rng.uniform(size=(5, 63))
    block[1, 7] = np.inf
    block[2, 0] = np.nan
    block[3, 5], block[3, 40] = np.inf, np.nan
    got = _row_sums(block)
    assert got[1] == np.inf and np.isnan(got[2]) and np.isnan(got[3])
    for k in (0, 4):
        assert got[k] == math.fsum(block[k].tolist())


def test_row_sums_overflowing_row_reads_inf():
    big = np.finfo(np.float64).max
    block = np.array([[big, big, 0.0], [big, 0.0, 0.0], [0.5 * big, 0.25 * big, 0.125 * big]])
    got = _row_sums(block)
    assert got[0] == np.inf
    assert got[1] == big and got[2] == math.fsum(block[2].tolist())


def test_row_sums_equal_fsum_on_subnormal_and_near_cut_rows():
    rng = np.random.default_rng(13)
    width = 255
    block = rng.uniform(size=(8, width))
    tiny = np.finfo(np.float64).tiny
    # normal values mixed with subnormal ones
    block[0, ::3] = np.ldexp(rng.integers(1, 1 << 40, width)[::3].astype(np.float64), -1074)
    block[1] = np.ldexp(rng.integers(1, 1 << 52, width).astype(np.float64), -1074)
    block[1, 0] = 4.0 * tiny
    # row maxima just below, at and just above the 2^-900 cut
    for row, top in ((2, np.nextafter(2.0 ** -900, 0.0)), (3, 2.0 ** -900),
                     (4, np.nextafter(2.0 ** -900, 1.0)), (5, 2.0 ** -899)):
        block[row] = top * rng.uniform(size=width)
        block[row, 17] = top
    block[6] = 2.0 ** -1000 * rng.uniform(size=width)
    assert_rows_equal_fsum(block)


class CountingMath:
    """The math module, counting fsum calls."""

    def __init__(self):
        self.fsum_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)


def test_row_sums_rarely_fall_back_to_fsum_on_kernel_chunks(monkeypatch):
    # the blocks of test_row_sums_equal_fsum_on_kernel_chunks: at most 1 % of
    # their rows may need math.fsum
    counting = CountingMath()
    monkeypatch.setattr(quadrature, "math", counting)
    grid = g.GridSpec(2, 31)
    npts = g.primal(grid).size
    rows = CHUNK_POINTS // npts
    weight = make_weight(grid, tau=8.0, lam=3.0)
    phi = weight.phi(g.primal(grid).physical)
    s = weight.s(TimeGrid(1.0, 256).times)[100:100 + rows]
    block = np.random.default_rng(5).normal(size=(rows, npts)) ** 2
    blocks = [block * np.exp(2.0 * s[:, None] * phi),
              np.random.default_rng(6).uniform(size=(rows, npts))]
    for blk in blocks:
        assert_rows_equal_fsum(blk)
    assert counting.fsum_calls <= 0.01 * rows * len(blocks)
    # the counter sees the fallback: an exact tie must go to fsum
    before = counting.fsum_calls
    assert _row_sums(np.array([[1.0, 2.0 ** -53]]))[0] == 1.0
    assert counting.fsum_calls == before + 1


def _logsumexp_cases():
    rng = np.random.default_rng(5)
    cases = [rng.normal(scale=s, size=n) for s in (1.0, 30.0, 400.0) for n in (1, 2, 7, 64, 1000)]
    cases += [rng.normal(size=50) - 800.0, rng.normal(size=50) + 700.0,
              np.array([1.5, 1.5, 0.25]), np.array([3.0] * 9),
              np.array([-2.0, 4.0, 4.0, 4.0, -9.0]),
              np.array([-np.inf, 0.5, -np.inf, 2.0]), np.array([-np.inf, 0.5, 0.5]),
              np.array([-np.inf, -np.inf]), np.array([-np.inf]),
              np.array([np.inf, 1.0]), np.array([np.inf, np.inf]), np.array([np.inf, -np.inf]),
              np.array([np.nan, 1.0]), np.array([1.0, np.nan, np.inf]),
              np.array([710.0, 709.0]), np.array([-745.5, -746.0]), np.array([]), [0.5, 2.0]]
    return cases


def test_logsumexp_equals_scipy_bitwise():
    special = pytest.importorskip("scipy.special")
    for k, a in enumerate(_logsumexp_cases()):
        want = float(special.logsumexp(a))
        got = quadrature.logsumexp(a)
        assert type(got) is float, k
        assert np.array(got).tobytes() == np.array(want).tobytes(), (k, got, want)

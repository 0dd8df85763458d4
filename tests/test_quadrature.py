"""The block kernel `space_time_sum` against a per-frame reference.

The reference evaluates each frame with `weighted_square_sum` on the weight's
own `log_weight` and combines the frames with the time weights by exactly
rounded sums, for the value and for the skipped mass.  The kernel's row sums
are held to the error bound of a float sum of non-negative terms against
math.fsum, and to math.fsum bit for bit where no partial sum or only the one
addition rounds; non-finite and overflowing rows keep the plain sum.  Its
terms are pinned bit for bit across chunkings; the numpy `logsumexp` is
pinned to scipy.special's.
"""

import math

import numpy as np
import pytest

from carlstab import grid as g
from carlstab import quadrature
from carlstab.quadrature import (CHUNK_POINTS, Term, exact_sum, space_time_sum,
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


def float_sum_rel(width: int) -> float:
    """Relative distance allowed between a term and its per-frame reference:
    (width - 1) 2^-53 for a float sum of `width` non-negative terms against
    math.fsum, plus 8 ulps for the roundings of the scalings around it."""
    return (width + 7) * 2.0 ** -53


def assert_pinned(got: Term, want: Term, width: int):
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
    assert got.skipped_bound == pytest.approx(want.skipped_bound, rel=float_sum_rel(width),
                                              abs=0.0)


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
    assert_pinned(got, want, block.shape[1])
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
    assert_pinned(got, want, block.shape[1])


def test_zero_frames_and_zero_block():
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 32)
    block = np.random.default_rng(11).normal(size=(tg.steps + 1, 15))
    block[0] = 0.0
    block[10:13] = 0.0
    got, want = both(block, grid, tg, 1)
    assert_pinned(got, want, block.shape[1])

    got, want = both(np.zeros_like(block), grid, tg, 1)
    assert_pinned(got, want, block.shape[1])
    assert got.value == 0.0 and got.skipped_bound == 0.0


def test_underflow_guard_matches_per_frame_reference():
    # the lambda = 3 case of test_underflow_guard_skips_and_reports_mass
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 16)
    block = np.ones((17, 15))
    got, want = both(block, grid, tg, 3, weight=make_weight(grid, tau=8.0, lam=3.0))
    assert_pinned(got, want, block.shape[1])
    assert got.skipped_bound > 0.0


def kernel_row_sums(block) -> np.ndarray:
    """Each row of a non-negative block as the kernel sums it: one frame at
    unit weight (phi = 0, s = 1, power 0, cell and time weight 1)."""
    one = np.ones(1)
    return np.array([space_time_sum(row[None], np.zeros(row.size), one, 0.0, 1.0, one).value
                     for row in block])


@pytest.mark.parametrize("width", [1, 2, 3, 31, 63, 961, 1025, 4097])
def test_kernel_rows_within_float_sum_bound_of_fsum(width):
    rng = np.random.default_rng(width)
    rows = 40
    for span in (50.0, 600.0):
        # non-negative summands spanning e^-span..1 within each row
        block = rng.uniform(size=(rows, width)) * np.exp(-span * rng.uniform(size=(rows, width)))
        block[0] = 0.0
        block[1] = np.ldexp(rng.integers(0, 1 << 20, width).astype(np.float64), -1074)
        block[2] = np.exp(-span) * np.ones(width)
        block[3] = 1.0
        assert 0.0 < block[1].max() < np.finfo(np.float64).tiny
        want = np.array([math.fsum(row.tolist()) for row in block])
        got = kernel_row_sums(block)
        assert np.all(np.abs(got - want) <= (width - 1) * 2.0 ** -53 * want), (width, span)


def assert_rows_equal_fsum(block):
    want = np.array([math.fsum(row.tolist()) for row in block])
    got = kernel_row_sums(block)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("width", [1, 2])
def test_row_sums_equal_fsum_bitwise(width):
    # a row of one or two summands takes a single rounding, so the kernel's
    # row sum is the exactly rounded one
    rng = np.random.default_rng(width)
    rows = 300
    for span in (50.0, 600.0):
        block = rng.uniform(size=(rows, width)) * np.exp(-span * rng.uniform(size=(rows, width)))
        block[0] = 0.0
        block[1] = np.ldexp(rng.integers(0, 1 << 20, width).astype(np.float64), -1074)
        block[2] = np.exp(-span) * np.ones(width)
        assert 0.0 < block[1].max() < np.finfo(np.float64).tiny
        assert_rows_equal_fsum(block)


def test_row_sums_equal_fsum_on_subnormal_and_near_cut_rows():
    # rows whose every partial sum is representable: subnormal summands, and
    # multiples of 2^-20 of a row maximum 2^-1000, 2^-900 or 2^-899.  The
    # kernel must then reproduce the exact sum bit for bit: nothing in its
    # scaling may flush or round the tiny summands.
    rng = np.random.default_rng(13)
    width = 255
    block = np.empty((5, width))
    block[0] = np.ldexp(rng.integers(1, 1 << 40, width).astype(np.float64), -1074)
    # a normal value among even multiples of 2^-1074: still representable sums
    block[1] = np.ldexp(rng.integers(1, 1 << 20, width).astype(np.float64), -1073)
    block[1, 0] = 2.0 * np.finfo(np.float64).tiny
    for row, top in ((2, 2.0 ** -1000), (3, 2.0 ** -900), (4, 2.0 ** -899)):
        block[row] = top * np.ldexp(rng.integers(0, 1 << 20, width).astype(np.float64), -20)
        block[row, 17] = top
    assert 0.0 < block[0].max() < np.finfo(np.float64).tiny
    assert_rows_equal_fsum(block)


def test_row_sums_keep_the_plain_sum_of_non_finite_rows():
    rng = np.random.default_rng(12)
    block = rng.uniform(size=(5, 63))
    block[1, 7] = np.inf
    block[2, 0] = np.nan
    block[3, 5], block[3, 40] = np.inf, np.nan
    got = kernel_row_sums(block)
    assert got[1] == np.inf and np.isnan(got[2]) and np.isnan(got[3])
    for k in (0, 4):
        assert got[k] == block[k].sum()
        want = math.fsum(block[k].tolist())
        assert abs(got[k] - want) <= 62 * 2.0 ** -53 * want


def test_row_sums_overflowing_row_reads_inf():
    big = np.finfo(np.float64).max
    block = np.array([[big, big, 0.0], [big, 0.0, 0.0], [0.5 * big, 0.25 * big, 0.125 * big]])
    with np.errstate(over="ignore"):
        got = kernel_row_sums(block)
    assert got[0] == np.inf
    assert got[1] == big and got[2] == math.fsum(block[2].tolist())


@pytest.mark.parametrize("power", [0, 1.5])
def test_kernel_term_is_bitwise_the_same_under_any_chunking(monkeypatch, power):
    # d = 2, N = 31 with a weight that skips some points on every frame; chunks of
    # 1, 3, 7 and 34 frames (the default) and the whole block at once
    grid = g.GridSpec(2, 31)
    npts = g.primal(grid).size
    tg = TimeGrid(1.0, 256)
    weight = make_weight(grid, tau=6.0)
    phi = weight.phi(g.primal(grid).physical)
    sq = np.random.default_rng(9).normal(size=(tg.steps + 1, npts)) ** 2
    terms = []
    for chunk in (1, 3 * npts, 7 * npts, CHUNK_POINTS, sq.size):
        monkeypatch.setattr(quadrature, "CHUNK_POINTS", chunk)
        term = space_time_sum(sq, phi, weight.s(tg.times), power, grid.h ** 2, tg.trap)
        terms.append(np.array([term.value, term.skipped_bound]).tobytes())
    assert term.value > 0.0 and term.skipped_bound > 0.0
    assert terms == [terms[0]] * len(terms)


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

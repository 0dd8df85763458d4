"""The block kernel `space_time_sum` against two references.

The oracle sums each frame of the exp-scaled block, sq[m] * exp(2 s_m (phi -
max phi)), by math.fsum and combines the frames under the kernel's frame log
scales by math.fsum; the kernel, whose row and frame sums are numpy's, must
agree within the error bound of a float sum of non-negative terms at both
levels.  The per-point reference sums sq * exp(log weight) with the weight's
own `log_weight` where that does not underflow, and logsumexp of the log
summands where it does.  The kernel's row sums are held to math.fsum bit for
bit where no partial sum or only the one addition rounds; non-finite and
overflowing rows keep the plain sum.  Its terms are pinned bit for bit across
chunkings.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from carlstab import grid as g
from carlstab import quadrature
from carlstab.quadrature import CHUNK_POINTS, ZERO_TERM, Term, space_time_sum
from carlstab.solver import TimeGrid
from carlstab.weights import Box, CarlemanWeight, WeightParams


def make_weight(grid, tau=3.0, delta=0.5, lam=2.0):
    params = WeightParams(T=1.0, tau=tau, delta=delta, lam=lam)
    d = grid.d
    return CarlemanWeight(grid, params, Box.cube(0.35, 0.65, d), Box.cube(0.2, 0.8, d))


def oracle_term(sq, phi, s, power, cell, time_weights) -> Term:
    """math.fsum over each exp-scaled frame, then over the frames under their
    log scales 2 s_m max phi + power log s_m + log(w_m cell)."""
    top = float(phi.max())
    sums = np.array([math.fsum((row * np.exp((2.0 * sm) * (phi - top))).tolist())
                     for row, sm in zip(sq, s)])
    scales = 2.0 * s * top + power * np.log(s) + np.log(time_weights * cell)
    live = sums != 0.0
    if not live.any():
        return ZERO_TERM
    lead = float(scales[live].max())
    return Term(lead, math.fsum((sums[live] * np.exp(scales[live] - lead)).tolist()))


def float_sum_rel(width: int, frames: int) -> float:
    """Relative distance allowed between a term and its oracle: (width - 1) 2^-53
    for each frame's float sum of `width` non-negative terms against math.fsum,
    (frames - 1) 2^-53 for the sum over frames, plus 8 ulps for the roundings
    of the scalings around them."""
    return (width + frames + 6) * 2.0 ** -53


def assert_term_close(got: Term, want: Term, rel: float):
    if want == ZERO_TERM:
        assert got == ZERO_TERM
    else:
        assert abs(got / want - 1.0) <= rel, (got, want)


def per_point_log(block, phi, weight, tg, power, cell) -> float:
    """log of sum_m w_m cell sum_x block^2 exp(log_weight), by logsumexp."""
    logs = [np.log(block[m] ** 2) + weight.log_weight(float(t), phi, power)
            + math.log(tg.trap[m] * cell) for m, t in enumerate(tg.times)]
    return float(logsumexp(np.concatenate(logs)))


def per_point_value(block, phi, weight, tg, power, cell) -> tuple[float, float]:
    """sum_m w_m cell sum_x block^2 exp(log_weight) by math.fsum, and the
    relative distance allowed to it: 8 ulps of the largest |log weight|, the
    exponents being rounded differently in the kernel's split into table and
    scale."""
    vals, widest = [], 0.0
    for m, t in enumerate(tg.times):
        logw = weight.log_weight(float(t), phi, power)
        vals.append(cell * math.fsum((block[m] ** 2 * np.exp(logw)).tolist()))
        widest = max(widest, float(np.abs(logw).max()) + abs(math.log(tg.trap[m] * cell)))
    return math.fsum((np.asarray(vals) * tg.trap).tolist()), 8.0 * widest * 2.0 ** -53


def both(block, grid, tg, power, weight=None):
    weight = weight or make_weight(grid)
    phi = weight.phi(g.primal(grid).physical)
    cell = grid.h ** grid.d
    s = weight.s(tg.times)
    got = space_time_sum(block * block, phi, s, power, cell, tg.trap)
    assert_term_close(got, oracle_term(block * block, phi, s, power, cell, tg.trap),
                      float_sum_rel(block.shape[1], block.shape[0]))
    return got, per_point_value(block, phi, weight, tg, power, cell)


@pytest.mark.parametrize("d,n", [(1, 15), (1, 31), (2, 15)])
@pytest.mark.parametrize("power", [0, 1.5, 3])
def test_kernel_matches_per_frame_reference(d, n, power):
    grid = g.GridSpec(d, n)
    tg = TimeGrid(1.0, 64)
    rng = np.random.default_rng(100 * d + n)
    block = rng.normal(size=(tg.steps + 1, g.primal(grid).size))
    got, (want, rel) = both(block, grid, tg, power)
    assert got.value == pytest.approx(want, rel=rel, abs=0.0)
    assert got.value > 0.0


def test_kernel_spans_chunks_with_a_ragged_last_chunk():
    grid = g.GridSpec(2, 31)
    npts = g.primal(grid).size
    rows = CHUNK_POINTS // npts
    tg = TimeGrid(1.0, 256)
    n_frames = tg.steps + 1
    assert n_frames * npts > CHUNK_POINTS and n_frames % rows != 0
    block = np.random.default_rng(7).normal(size=(n_frames, npts))
    got, (want, rel) = both(block, grid, tg, 4)
    assert got.value == pytest.approx(want, rel=rel, abs=0.0)


def test_zero_frames_and_zero_block():
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 32)
    block = np.random.default_rng(11).normal(size=(tg.steps + 1, 15))
    block[0] = 0.0
    block[10:13] = 0.0
    got, (want, rel) = both(block, grid, tg, 1)
    assert got.value == pytest.approx(want, rel=rel, abs=0.0)

    got, (want, _) = both(np.zeros_like(block), grid, tg, 1)
    assert got == ZERO_TERM and got.value == want == 0.0 and got.log == -math.inf


def test_kernel_keeps_the_mass_where_every_weight_underflows():
    # lambda = 3 and delta = 0.05 put every log weight below log(tiny) - 60: the
    # plain sum of exp(log weight) is 0, the term keeps its mass in its mantissa
    grid = g.GridSpec(1, 15)
    tg = TimeGrid(1.0, 16)
    weight = make_weight(grid, tau=8.0, delta=0.05, lam=3.0)
    phi = weight.phi(g.primal(grid).physical)
    assert max(float(weight.log_weight(float(t), phi, 3).max()) for t in tg.times) \
        < math.log(np.finfo(np.float64).tiny) - 60.0
    block = np.random.default_rng(3).normal(size=(17, 15))
    got, (want, _) = both(block, grid, tg, 3, weight=weight)
    assert want == 0.0 and got.value == 0.0 < got.mantissa
    assert got.log == pytest.approx(per_point_log(block, phi, weight, tg, 3, grid.h),
                                    rel=1e-13, abs=0.0)


def test_term_arithmetic_in_log_space():
    a, b = Term(-800.0, 1.5), Term(-802.0, 3.0)
    assert a.value == 0.0 and a.log == -800.0 + math.log(1.5)
    total = a + b
    assert total.log_scale == -800.0
    assert total.mantissa == pytest.approx(1.5 + 3.0 * math.exp(-2.0), rel=1e-15)
    assert a / b == pytest.approx(0.5 * math.exp(2.0), rel=1e-15)
    assert ZERO_TERM + ZERO_TERM == ZERO_TERM and ZERO_TERM + a == a + ZERO_TERM == a
    assert ZERO_TERM / a == 0.0 and ZERO_TERM.value == 0.0
    assert Term(0.0, 2.0).value == 2.0 and Term(3.0, 2.0) / Term(3.0, 4.0) == 0.5


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
    # d = 2, N = 31; chunks of 1, 3, 7 and 34 frames (the default) and the whole
    # block at once
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
        terms.append(np.array([term.log_scale, term.mantissa]).tobytes())
    assert term.value > 0.0
    assert terms == [terms[0]] * len(terms)

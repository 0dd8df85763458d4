"""`sample_frames` and the separable form against one sampler call per time,
bit for bit."""

import numpy as np
import pytest

from carlstab import grid as g
from carlstab.coefficients import ConstantField, random_smooth_coefficients, sample_frames
from carlstab.errors import GridError
from carlstab.inverse import random_separable_source
from carlstab.solver import TimeGrid, solve_forward

TIMES = TimeGrid(1.0, 64).times


def stacked(fn, times, X):
    return np.stack([np.asarray(fn(float(t), X), dtype=np.float64) for t in times])


def plain_sampler(t, X):
    return np.cos(3.0 * t) * X[:, 0] + t


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_frames_matches_stacked_calls_bitwise(rng, d):
    X = g.primal(g.GridSpec(d, 7)).physical
    moving = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    frozen = random_smooth_coefficients(rng, d, 1.0, b_amp=0.3)
    src = random_separable_source(rng, d, 1.0)
    samplers = [ConstantField(0.7), *moving.gamma, *moving.b, moving.c,
                frozen.gamma[0], frozen.c, src, plain_sampler]
    some = np.sort(rng.uniform(0.0, 1.0, 9))
    for fn in samplers:
        for times in (TIMES, TIMES[::5], some):
            got = sample_frames(fn, times, X)
            want = stacked(fn, times, X)
            assert got.shape == want.shape == (len(times), X.shape[0])
            assert got.tobytes() == want.tobytes(), fn


class WrongFrames:
    """Right shape one time at a time, wrong shape as a block."""

    def __call__(self, t, X):
        return np.zeros(np.atleast_2d(X).shape[0])

    def separable(self, X):
        return 0.0, np.zeros(3), np.cos


class WrongCalls:
    def __call__(self, t, X):
        return np.zeros(3)


@pytest.mark.parametrize("sampler", [WrongFrames(), WrongCalls()], ids=["frames", "stacked"])
def test_sample_frames_rejects_wrong_shape(sampler):
    grid = g.GridSpec(1, 15)
    X = g.primal(grid).physical
    with pytest.raises(GridError, match="shape"):
        sample_frames(sampler, TIMES, X)
    with pytest.raises(GridError, match="shape"):
        solve_forward(grid, random_smooth_coefficients(np.random.default_rng(1), 1, 1.0),
                      sampler, TimeGrid(1.0, 8))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_separable_form_rebuilds_each_call_bitwise(rng, d):
    # the time factor is taken for all times in one call, as `solver.Stepper` does
    X = g.primal(g.GridSpec(d, 7)).physical
    moving = random_smooth_coefficients(rng, d, 1.0, time_dependent=True, b_amp=0.3)
    src = random_separable_source(rng, d, 1.0)
    for field in [ConstantField(0.7), *moving.gamma, *moving.b, moving.c, src]:
        base, space, rho = field.separable(X)
        factors = np.ones(len(TIMES)) if rho is None else rho(TIMES)
        for t, r in zip(TIMES, factors):
            got = np.full(len(X), base) if space is None else base + space * r
            assert got.tobytes() == field(float(t), X).tobytes(), field

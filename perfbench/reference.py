"""Fixed reference work that gauges the host's speed while a suite runs.

The 2-vCPU host the benchmark was sized on runs other tenants.  Its speed for
the same work swings by up to 2x within a second and by 20-35 % between runs
minutes apart, in user time, with no steal visible to the guest.  So the
benchmark samples the host's speed while each suite runs: `Sampler` times
one unit of fixed reference work every INTERVAL_S of wall time, from a
SIGALRM handler in the measuring interpreter.  `run.py` scales each suite's
raw time, less the time spent in those units, by the host speed UNIT_S over
their mean, so the reported seconds are seconds on a host that runs a unit in
UNIT_S.

A unit uses nothing from carlstab, so no change to the program can change
it; the handler reads and writes none of the program's state.  It calls the
library entry points the workloads spend most of their time in: scipy's `cg`
and `bicgstab` on small 1-D operators and `logsumexp` over rows of a
257-frame block, with fixed inputs.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import logsumexp

# Nominal duration of one unit: about its median on an idle vCPU of the
# machine described in NOTES.md.  It sets the scale of the reported seconds
# only; ratios between commits do not depend on it.
UNIT_S = 0.004
INTERVAL_S = 0.2
UNITS_PER_BURST = 60

_N = 63
_SYM = sp.diags([-np.ones(_N - 1), 2.2 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1],
                format="csr")
_NONSYM = sp.diags([-1.3 * np.ones(_N - 1), 2.5 * np.ones(_N), -0.7 * np.ones(_N - 1)],
                   [-1, 0, 1], format="csr")
_RHS = np.sin(np.arange(_N, dtype=float))
_BLOCK = np.cos(0.01 * np.arange(257 * 31, dtype=float)).reshape(257, 31)


def _unit() -> float:
    x, _ = spla.cg(_SYM, _RHS, rtol=1e-10, maxiter=200)
    y, _ = spla.bicgstab(_NONSYM, _RHS, rtol=1e-10, maxiter=200)
    s = 0.0
    for row in _BLOCK[:16]:
        s += float(logsumexp(row))
    return float(x[0] + y[0]) + s


def _timed_unit() -> tuple[float, float]:
    w0, c0 = perf_counter(), process_time()
    _unit()
    return perf_counter() - w0, process_time() - c0


def burst() -> float:
    """Host speed over UNITS_PER_BURST back-to-back units, after one untimed."""
    _unit()
    return UNIT_S * UNITS_PER_BURST / sum(_timed_unit()[0] for _ in range(UNITS_PER_BURST))


class Sampler:
    """Samples unit times while a timed call runs, between start() and stop().

    start() runs one unit first, outside the timed interval, so every call
    has a sample.  `wall_s` and `cpu_s` are the time the handler spent
    inside the interval, to be taken off the call's raw times.
    """

    def __init__(self):
        self.active = False
        self.units: list[float] = []
        self.wall_s = self.cpu_s = 0.0
        _unit()   # untimed, so no sample pays for first-call set-up
        signal.signal(signal.SIGALRM, self._sample)

    def start(self) -> None:
        self.units = [_timed_unit()[0]]
        self.wall_s = self.cpu_s = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def host_speed(self) -> float:
        """UNIT_S over the mean unit time since start()."""
        return UNIT_S * len(self.units) / sum(self.units)

    def _sample(self, signum, frame) -> None:
        if not self.active:   # a signal that arrived as stop() ran
            return
        wall, cpu = _timed_unit()
        self.units.append(wall)
        self.wall_s += wall
        self.cpu_s += cpu
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

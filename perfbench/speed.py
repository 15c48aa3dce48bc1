"""Machine-speed probe and the normalized clock built from it.

The host this benchmark was tuned on changes speed in steps that last
seconds: a fixed small-matrix kernel takes 86 µs per call for a while,
then 130-160 µs, then 86 µs again. Over a one-minute run that moves wall
times by 10-15% from run to run, whatever the program does.

So the benchmark runs a short probe, its own code and never the package's,
at fixed points of every command (see ``tracing.package_targets``), and
measures time on a clock that runs at ``reference / probe`` seconds per
wall second, where ``probe`` is the latest probe's duration, and stands
still while a probe runs. A second on this clock is a second of work at
the speed where the probe takes ``PROBE_REF_S``: this machine's fast
state. Each probe does the kind of work its workload does, so a slow spell
stretches both by about the same factor: ``gp_probe`` numpy on tiny
arrays with a scipy Cholesky and triangular solve, as GP training and
prediction do; ``solver_probe`` the explicit finite-volume update of the
reactor solver on a 320-cell grid. Measured here over 2-second blocks,
the solve time divided by the solver probe varies by about 4%, and by
about 7% divided by the GP probe, while the raw solve time varies by 25%.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cholesky, solve_triangular

# Both probes take 1.3-1.35 ms at their fastest here (the minimum over 30 s
# of back-to-back runs), so one reference time serves both.
PROBE_REF_S = 1.3e-3
_REPS = 30
_STEPS = 150

_rng = np.random.default_rng(3)
_X = _rng.uniform(size=(12, 5))
_Y = np.sin(_X.sum(axis=1))
_LS2 = np.full(5, 0.3)


def gp_probe() -> float:
    """Seconds for a fixed batch of tiny GP-like linear algebra."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        d = _X[:, None, :] - _X[None, :, :]
        k = np.exp(-0.5 * np.sum(d * d / _LS2, axis=-1)) + 1e-8 * np.eye(12)
        low = cholesky(k, lower=True)
        a = solve_triangular(low, _Y, lower=True)
        float(a @ a) + 2.0 * float(np.sum(np.log(np.diag(low))))
    return time.perf_counter() - t0


def solver_probe() -> float:
    """Seconds for a fixed number of upwind finite-volume steps on 320 cells."""
    c = np.exp(-np.linspace(0.0, 5.0, 320))
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        interior = c[:-1] - 0.1 * np.diff(c)
        flux = np.concatenate(([0.0], interior, [c[-1]]))
        c = c - 0.01 * np.diff(flux)
    return time.perf_counter() - t0


class SpeedClock:
    """Piecewise-linear map from perf_counter time to normalized seconds.

    Built from probe windows (start, end, measured duration). Before the
    first probe the clock runs at the first probe's rate; with no probes
    at all it runs at wall speed.
    """

    def __init__(self, starts, ends, durations):
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        rates = PROBE_REF_S / np.asarray(durations, dtype=np.float64)
        if starts.size == 0:
            self._t = np.asarray([0.0, 1.0])
            self._c = np.asarray([0.0, 1.0])
            self._rates = (1.0, 1.0)
            return
        # knots at every probe start and end; flat inside a probe
        t = np.empty(2 * starts.size)
        t[0::2], t[1::2] = starts, ends
        rise = np.zeros(t.size)
        rise[2::2] = (starts[1:] - ends[:-1]) * rates[:-1]
        self._t = t
        self._c = np.cumsum(rise)
        self._rates = (rates[0], rates[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        c = np.interp(t, self._t, self._c)
        c = np.where(t < self._t[0], self._c[0] - (self._t[0] - t) * self._rates[0], c)
        return np.where(t > self._t[-1], self._c[-1] + (t - self._t[-1]) * self._rates[1], c)

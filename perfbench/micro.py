"""Micro timings on fixed inputs built here, independent of the run's seed.

Each batch is timed on the speed clock: scaled by the rate of a speed
probe of the same kind of work run just before it (see speed.py).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import speed

LEVELS = (1, 2, 3, 4, 5)


def _median_per_call(fn, calls: int, batches: int, probe=speed.gp_probe) -> float:
    per_call = []
    for _ in range(batches):
        rate = speed.PROBE_REF_S / probe()
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append(rate * (time.perf_counter() - t0) / calls)
    return statistics.median(per_call)


def lml_us() -> float:
    """One ``TrainedGP.from_params`` plus LML at n=16, d=5, in microseconds."""
    from mfdgp import gp
    from mfdgp.kernels import KernelSpec

    rng = np.random.default_rng(16)
    x = rng.uniform(size=(16, 5))
    data = gp.GPDataset(inputs=x, targets=np.sin(3.0 * x.sum(axis=1)), noise_variance=1e-8)
    kernel = KernelSpec(kind="squared-exponential", lengthscales=np.full(5, 0.4),
                        signal_variance=1.0)

    def once():
        gp.log_marginal_likelihood(gp.TrainedGP.from_params(data, kernel))

    return 1e6 * _median_per_call(once, calls=400, batches=5)


def reactor_model():
    """A five-layer reactor-box model with fixed hyperparameters, no training.

    Layers hold 8, 6, 4, 3 and 2 points, as a reactor campaign's stack does
    part way through; targets are a smooth function of the geometry.
    """
    from mfdgp import dgp, gp
    from mfdgp.kernels import KernelSpec
    from mfdgp.objectives.reactor import GEOMETRY_BOX

    rng = np.random.default_rng(5)
    span = GEOMETRY_BOX.upper - GEOMETRY_BOX.lower
    layers = []
    for t, size in enumerate((8, 6, 4, 3, 2), start=1):
        u = rng.uniform(size=(size, 4))
        x = GEOMETRY_BOX.denormalize(u)
        y = 40.0 + 30.0 * u[:, 0] - 15.0 * u[:, 2] + 5.0 * t * np.sin(3.0 * u[:, 1])
        if t == 1:
            inputs, targets, ls = x, y, 0.3 * span
        else:
            aug = dgp.compose_mean(layers, x)
            inputs, targets = np.column_stack([x, aug]), y - aug
            ls = np.r_[0.3 * span, 20.0]
        kernel = KernelSpec(kind="squared-exponential", lengthscales=ls,
                            signal_variance=float(max(np.var(targets), 1.0)))
        data = gp.GPDataset(inputs=inputs, targets=targets, noise_variance=1e-8)
        layers.append(gp.TrainedGP.from_params(data, kernel))
    return dgp.MFDeepGP(layers=tuple(layers), ladder=tuple(dgp.default_ladder()),
                        propagation_samples=dgp.ACQUISITION_SAMPLES)


def propagate_pool_ms() -> float:
    """One ``propagate`` over the 512-point acquisition pool with 100 shared draws."""
    from mfdgp import dgp
    from mfdgp.objectives.reactor import GEOMETRY_BOX

    model = reactor_model()
    rng = np.random.default_rng(512)
    pool = GEOMETRY_BOX.denormalize(rng.uniform(size=(512, 4)))
    draws = rng.standard_normal((4, dgp.ACQUISITION_SAMPLES))
    return 1e3 * _median_per_call(
        lambda: dgp.propagate(model, pool, base_draws=draws), calls=1, batches=9
    )


def reactor_solve_ms(level: int) -> float:
    """One solve at the default coil (Pe 83) on the level's grid."""
    from mfdgp.objectives.reactor import default_geometry, reactor_proxy_simulate

    geom = default_geometry()
    calls = {1: 20, 2: 10, 3: 5, 4: 3, 5: 1}[level]
    return 1e3 * _median_per_call(
        lambda: reactor_proxy_simulate(geom, level), calls=calls, batches=3,
        probe=speed.solver_probe,
    )


def micro_metrics() -> dict:
    m = {"micro.lml_us": lml_us(), "micro.propagate_pool_ms": propagate_pool_ms()}
    for level in LEVELS:
        m[f"micro.reactor_solve_ms_level{level}"] = reactor_solve_ms(level)
    return m

"""Upper-confidence-bound acquisition and its inner optimizer.

The acquisition is evaluated at the highest fidelity,

    a(x) = mu_T(x) + sqrt(beta) * sigma_T(x),

with one fixed set of base propagation draws shared by every candidate
(common random numbers), so a(x) is a continuous deterministic function of
x during a solve. The inner optimizer scores a scrambled quasi-random
candidate pool of ``_POOL_SIZE`` points and refines the best
``_RESTARTS`` of them with a derivative-free pattern search in normalized
coordinates.
"""

from __future__ import annotations

import numpy as np

from . import dgp
from .space import DesignSpace
from .streams import ACQUISITION, substream

# Pattern-search refinement runs in normalized [0, 1]^d coordinates from
# this initial step down to the convergence tolerance.
_REFINE_STEP0 = 0.1
_REFINE_TOL = 1e-6

# Sobol candidates scored per solve; the best _RESTARTS start a pattern search.
_POOL_SIZE = 512
_RESTARTS = 8


def ucb_values(model: dgp.MFDeepGP, X, beta: float, base_draws: np.ndarray) -> np.ndarray:
    """a(x) = mu_T + sqrt(beta) * sigma_T at each row of X, shared draws."""
    top = dgp.propagate(model, X, base_draws)[-1]
    return top.mean + np.sqrt(beta) * top.sigma


def _pattern_search(score, u0: np.ndarray, best0: float) -> tuple[np.ndarray, float]:
    """Coordinate pattern search on [0, 1]^d; score takes a batch of rows."""
    u = u0.copy()
    best = best0
    step = _REFINE_STEP0
    d = u.shape[0]
    while step >= _REFINE_TOL:
        trials = []
        for j in range(d):
            for sign in (1.0, -1.0):
                cand = u.copy()
                cand[j] = min(1.0, max(0.0, cand[j] + sign * step))
                trials.append(cand)
        trials = np.asarray(trials)
        values = score(trials)
        k = int(np.argmax(values))
        if values[k] > best:
            u = trials[k]
            best = float(values[k])
        else:
            step *= 0.5
    return u, best


def solve_ucb(model: dgp.MFDeepGP, space: DesignSpace, beta: float, rng_seed: int) -> np.ndarray:
    """Maximize the highest-fidelity UCB mu_T + sqrt(beta) * sigma_T over the design box.

    Scores ``_POOL_SIZE`` scrambled Sobol candidates, then pattern-searches
    from the top ``_RESTARTS`` of them. Every score shares the base draws of
    ``substream(rng_seed, ACQUISITION, "draws")``. Always returns the best
    point seen, inside the box.
    """
    draw_rng = substream(rng_seed, ACQUISITION, "draws")
    base_draws = draw_rng.standard_normal((max(model.num_levels - 1, 1), dgp.ACQUISITION_SAMPLES))
    pool_rng = substream(rng_seed, ACQUISITION, "pool")
    pool = space.sample_sobol(_POOL_SIZE, pool_rng)
    values = ucb_values(model, pool, beta, base_draws)

    def score(U: np.ndarray) -> np.ndarray:
        return ucb_values(model, space.denormalize(U), beta, base_draws)

    order = np.argsort(values)[::-1]
    top = order[:_RESTARTS]
    best_x = pool[order[0]]
    best_val = float(values[order[0]])
    for idx in top:
        u, val = _pattern_search(score, space.normalize(pool[idx]), float(values[idx]))
        if val > best_val:
            best_val = val
            best_x = space.denormalize(u)
    return space.clip(best_x)

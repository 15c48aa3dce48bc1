"""Upper-confidence-bound acquisition and its inner optimizer.

The acquisition is evaluated at the highest fidelity,

    a(x) = mu_T(x) + sqrt(beta) * sigma_T(x),

with one fixed set of base propagation draws shared by every candidate
(common random numbers), so a(x) is a continuous deterministic function of
x during a solve. The inner optimizer scores a scrambled quasi-random
candidate pool of ``_POOL_SIZE`` points and refines the best
``_RESTARTS`` of them with a derivative-free pattern search in normalized
coordinates. The restarts run in lock step: each round scores the trials
of every restart still refining in one ``ucb_values`` call, so a solve
makes one call per round rather than one per restart and round.
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


def _pattern_search(score, U0: np.ndarray, best0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern searches on [0, 1]^d from the rows of U0, run in lock step.

    Each round builds the 2d trials ``clip(u +/- step * e_j, 0, 1)`` of
    every restart whose step is still >= ``_REFINE_TOL``, in restart order,
    and scores them all in one ``score`` call. A restart then moves to its
    best trial if that beats its best value, or halves its step. Returns
    the final positions (R, d) and best values (R,).
    """
    U = U0.copy()
    best = np.array(best0, dtype=np.float64)
    R, d = U.shape
    step = np.full(R, _REFINE_STEP0)
    # row 2j of the offsets moves coordinate j up, row 2j + 1 moves it down
    offsets = np.kron(np.eye(d), [[1.0], [-1.0]])
    active = np.arange(R)
    while active.size:
        trials = np.clip(U[active, None, :] + step[active, None, None] * offsets, 0.0, 1.0)
        values = score(trials.reshape(-1, d)).reshape(active.size, 2 * d)
        k = np.argmax(values, axis=1)
        top = values[np.arange(active.size), k]
        better = top > best[active]
        U[active[better]] = trials[better, k[better]]
        best[active[better]] = top[better]
        step[active[~better]] *= 0.5
        active = np.flatnonzero(step >= _REFINE_TOL)
    return U, best


def solve_ucb(model: dgp.MFDeepGP, space: DesignSpace, beta: float, rng_seed: int) -> np.ndarray:
    """Maximize the highest-fidelity UCB mu_T + sqrt(beta) * sigma_T over the design box.

    Scores ``_POOL_SIZE`` scrambled Sobol candidates, then pattern-searches
    from the top ``_RESTARTS`` of them. Every score shares the base draws of
    ``substream(rng_seed, ACQUISITION, "draws")``. Always returns the best
    point seen, inside the box.
    """
    draw_rng = substream(rng_seed, ACQUISITION, "draws")
    base_draws = draw_rng.standard_normal((model.num_levels - 1, dgp.ACQUISITION_SAMPLES))
    pool_rng = substream(rng_seed, ACQUISITION, "pool")
    pool = space.sample_sobol(_POOL_SIZE, pool_rng)
    values = ucb_values(model, pool, beta, base_draws)

    def score(U: np.ndarray) -> np.ndarray:
        return ucb_values(model, space.denormalize(U), beta, base_draws)

    order = np.argsort(values)[::-1]
    top = order[:_RESTARTS]
    best_x = pool[order[0]]
    best_val = float(values[order[0]])
    U, vals = _pattern_search(score, space.normalize(pool[top]), values[top])
    for u, val in zip(U, vals):
        if val > best_val:
            best_val = float(val)
            best_x = space.denormalize(u)
    return space.clip(best_x)

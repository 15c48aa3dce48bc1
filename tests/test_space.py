"""The in-house samplers draw what ``scipy.stats.qmc`` draws, bit for bit.

Oracle: ``qmc.LatinHypercube(d, seed=rng).random(n)`` and
``qmc.Sobol(d, scramble=True, seed=rng).random(n)`` on a twin of the same
substream. On the unit box ``denormalize`` returns its input unchanged, so
the samplers' points are compared with ``qmc``'s as they are. The caller's
Generator must end where ``qmc`` leaves it, because later draws from it
(none today) would otherwise shift.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from mfdgp.space import DesignSpace
from mfdgp.streams import DESIGN, substream

DIMENSIONS = (1, 2, 4, 7, 40)
SEEDS = range(50)


def _warnings(draw):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = draw()
    return points, [(w.category, str(w.message)) for w in caught]


def _assert_same_draw(sample, engine, n, tag):
    for seed in SEEDS:
        rng, twin = substream(seed, DESIGN, tag), substream(seed, DESIGN, tag)
        points, warned = _warnings(lambda: sample(n, rng))
        expected, expected_warned = _warnings(lambda: engine(twin).random(n))
        assert points.dtype == expected.dtype and points.shape == expected.shape
        assert points.tobytes() == expected.tobytes(), seed
        assert warned == expected_warned, seed
        assert rng.bit_generator.state == twin.bit_generator.state
        assert (rng.bit_generator.seed_seq.n_children_spawned
                == twin.bit_generator.seed_seq.n_children_spawned == 1)
    return warned


@pytest.mark.parametrize("n", [1, 3, 31])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_sample_lhs_matches_qmc_latin_hypercube(d, n):
    space = DesignSpace(np.zeros(d), np.ones(d))
    _assert_same_draw(space.sample_lhs, lambda rng: qmc.LatinHypercube(d, seed=rng), n, "lhs")


@pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 512])
@pytest.mark.parametrize("d", DIMENSIONS)
def test_sample_sobol_matches_qmc_sobol(d, n):
    # n = 3 and 100 are not powers of two: both sides warn
    space = DesignSpace(np.zeros(d), np.ones(d))
    warned = _assert_same_draw(space.sample_sobol, lambda rng: qmc.Sobol(d, scramble=True, seed=rng), n, "sobol")
    assert bool(warned) == bool(n & (n - 1))


def test_samplers_scale_to_the_box():
    space = DesignSpace([5.0, 1.5, 4.0, 0.0], [20.0, 4.0, 15.0, 1.0])
    for sample, engine in ((space.sample_lhs, qmc.LatinHypercube), (space.sample_sobol, qmc.Sobol)):
        points = sample(64, substream(3, DESIGN, 1))
        unit = engine(4, seed=substream(3, DESIGN, 1)).random(64)
        assert points.tobytes() == space.denormalize(unit).tobytes()
        assert all(space.contains(x) for x in points)

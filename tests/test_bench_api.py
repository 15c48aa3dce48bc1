"""The package calls the benchmark scripts make directly, kept working.

``perfbench/micro.py`` builds a model by hand and times one
``dgp.propagate`` over the 512-point acquisition pool, and
``perfbench/tracing.py`` wraps package functions by module or class
attribute. A change to those signatures or names would otherwise surface
only in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

from mfdgp import dgp
from mfdgp.objectives.reactor import GEOMETRY_BOX

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import micro  # noqa: E402
import tracing  # noqa: E402


def test_micro_propagate_over_the_pool():
    model = micro.reactor_model()
    rng = np.random.default_rng(512)
    pool = GEOMETRY_BOX.denormalize(rng.uniform(size=(512, 4)))
    draws = rng.standard_normal((4, dgp.ACQUISITION_SAMPLES))
    traces = dgp.propagate(model, pool, base_draws=draws)
    assert len(traces) == 5
    top = traces[-1]
    assert top.mean.shape == (512,) and np.all(np.isfinite(top.mean))
    assert np.all(top.sigma >= 0)


def test_every_trace_target_resolves():
    # snapshot looks each attribute up in its owner's __dict__, so a removed name raises KeyError
    targets = tracing.package_targets(full=True)
    assert len(tracing.snapshot(targets)) == len(targets)

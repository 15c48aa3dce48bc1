"""The package calls the benchmark scripts make directly, kept working.

``perfbench/micro.py`` builds a model by hand and times one
``dgp.propagate`` over the 512-point acquisition pool, and
``perfbench/tracing.py`` wraps package functions by module or class
attribute. A change to those signatures or names, or a call that stops
going through those attributes, would otherwise surface only in a
benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

from mfdgp import dgp, gp
from mfdgp.objectives.reactor import GEOMETRY_BOX, ReactorProxyObjective

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


def traced_fit(monkeypatch, data):
    """``gp.fit(data, 0)`` with the traced attributes counted; the calls, each nfev, and the
    lock-step search's summed one-start nfev."""
    calls = {"kernel_matrix": 0, "from_params": 0, "log_marginal_likelihood": 0, "_lml": 0}
    nfev = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def minimize(*args, **kwargs):
        result = gp_minimize(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    gp_minimize = gp.minimize
    monkeypatch.setattr(gp, "minimize", minimize)
    monkeypatch.setattr(gp, "kernel_matrix", counted("kernel_matrix", gp.kernel_matrix))
    monkeypatch.setattr(gp, "log_marginal_likelihood",
                        counted("log_marginal_likelihood", gp.log_marginal_likelihood))
    monkeypatch.setattr(gp, "_lml", counted("_lml", gp._lml))
    monkeypatch.setattr(gp.TrainedGP, "from_params",
                        counted("from_params", gp.TrainedGP.from_params))
    gp.fit(data, rng_seed=0)
    fit_calls = dict(calls)
    lo, hi, starts = gp._search_setup(data, np.random.default_rng(0))
    objective = gp._negative_lml(data, lo, hi)
    one_start = sum(gp_minimize(objective, [s]).nfev for s in starts)
    return fit_calls, nfev, one_start


def test_fit_builds_only_its_final_model_through_the_traced_attributes(monkeypatch):
    # the simplex vertices run the trusted cores, and gp._lml, looked up as a
    # module attribute, scores each vertex that factorizes; the traced public
    # entries see only the winner's checked build, and gp.minimize each fit's
    # one lock-step search, whose nfev sums the restarts' own
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(6, 2))
    data = gp.GPDataset(inputs=x, targets=np.sin(3.0 * x.sum(axis=1)), noise_variance=1e-4)
    calls, nfev, one_start = traced_fit(monkeypatch, data)
    assert len(nfev) == 1
    assert 100 < calls["_lml"] <= sum(nfev)
    assert calls["kernel_matrix"] == calls["from_params"] == 1
    assert calls["log_marginal_likelihood"] == 0
    assert nfev[0] == one_start


def test_a_one_row_fit_scores_its_vertices_without_lml(monkeypatch):
    # a one-row layer's vertices are scored in closed form, so a wrapper on
    # gp._lml sees none of them; gp.minimize's nfev still counts every one
    data = gp.GPDataset(inputs=[[0.4, 0.7]], targets=[1.3], noise_variance=1e-8)
    calls, nfev, one_start = traced_fit(monkeypatch, data)
    assert len(nfev) == 1 and nfev[0] > 100
    assert calls["_lml"] == 0
    assert calls["kernel_matrix"] == calls["from_params"] == 1
    assert calls["log_marginal_likelihood"] == 0
    assert nfev[0] == one_start


def test_the_light_trace_sees_each_solve_and_evaluation_level():
    # perfbench's reactor.simulate_s_level<t> figures read each span's amount,
    # the level that tracing._level takes from the call's arguments
    tracer = tracing.Tracer()
    x = np.array([12.5, 2.5, 10.0, 0.0])
    with tracer.installed(tracing.package_targets(full=False)):
        for t in range(1, 6):
            ReactorProxyObjective().evaluate(x, t)
    spans = tracer.window()
    names = np.asarray(tracer.names)[spans["kind"]]
    for name in ("reactor.simulate", "objective.evaluate"):
        assert spans["amount"][names == name].tolist() == [1, 2, 3, 4, 5]

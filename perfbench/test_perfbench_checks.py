"""The benchmark's own tests: every correctness check rejects a wrong answer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_forrester_reference_and_regret_check():
    x_star, f_star = checks.forrester_optimum()
    assert x_star == pytest.approx(0.75725, abs=1e-5)
    assert f_star == pytest.approx(6.0207, abs=1e-4)
    best_y = float(checks.forrester_high(x_star))
    assert checks.check_regret(f_star, best_y) == []
    # a reference perturbed below the true optimum is beaten by it
    assert checks.check_regret(f_star - 1e-3, best_y)


def test_rtd_area_check_rejects_unnormalized_curve():
    theta = np.linspace(0.0, 4.0, 2001)
    n = 12
    e = n * (n * theta) ** (n - 1) * np.exp(-n * theta) / math.factorial(n - 1)
    assert checks.check_rtd_area(theta, e) == []
    assert checks.check_rtd_area(theta, 1.01 * e)


def test_ledger_check_rejects_dropped_cost():
    costs = [1.0, 2.0, 4.0, 8.0, 16.0, 1.0, 8.0]
    assert checks.check_ledger(costs, 40.0, 35.0) == []
    assert checks.check_ledger(costs[:3] + costs[4:], 40.0, 35.0)
    # the line may be crossed by less than the last cost only
    assert checks.check_ledger(costs, 40.0, 32.0)
    assert checks.check_ledger(costs, 40.0, 41.0)


def test_incumbent_and_box_checks():
    evals = [{"level": 5, "y": 1.0, "x": [0.2]}, {"level": 5, "y": 3.0, "x": [0.7]},
             {"level": 1, "y": 9.0, "x": [0.1]}]
    assert checks.check_incumbent(evals, {"incumbent_y": 3.0, "incumbent_x": [0.7]}, 5) == []
    assert checks.check_incumbent(evals, {"incumbent_y": 9.0, "incumbent_x": [0.1]}, 5)
    assert checks.check_in_box([[0.0], [1.0]], [0.0], [1.0]) == []
    assert checks.check_in_box([[0.5], [1.0 + 1e-12]], [0.0], [1.0])


def test_dispersion_check_rejects_wrong_peclet():
    from mfdgp.objectives import reactor

    geom = checks.geometry_for_peclet(70.0, np.random.default_rng(3))
    g = reactor.ReactorGeometry(*geom)
    tanks = [reactor.fit_tanks_in_series(reactor.reactor_proxy_simulate(g, lv)[0]).n_tanks
             for lv in (1, 2, 3)]
    cells = checks.CELLS_PER_LEVEL[:3]
    assert checks.check_dispersion(tanks, cells, 70.0) == []
    assert checks.check_dispersion(tanks, cells, 70.0 * 1.25)
    assert checks.check_convergence(tanks) == []
    assert checks.check_convergence([tanks[0], tanks[0] - 1.0, tanks[2]])


def test_peclet_restatement_matches_package():
    from mfdgp.objectives import reactor

    rng = np.random.default_rng(11)
    for pe in workloads.STUDY_PECLETS:
        geom = checks.geometry_for_peclet(pe, rng)
        assert all(lo <= v <= hi for v, lo, hi in
                   zip(geom, checks.REACTOR_LOWER, checks.REACTOR_UPPER))
        assert checks.peclet(*geom) == pytest.approx(pe, rel=1e-12)
        assert reactor.geometry_to_peclet(reactor.ReactorGeometry(*geom)) == pytest.approx(
            pe, rel=1e-12)


def test_tracer_restores_every_wrapped_function():
    targets = tracing.package_targets(full=True)
    before = tracing.snapshot(targets)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        assert len(tracing.changed(before)) == len(targets)
        from mfdgp import gp
        from mfdgp.kernels import KernelSpec

        data = gp.GPDataset(inputs=[[0.0], [1.0]], targets=[0.0, 1.0], noise_variance=1e-8)
        gp.log_marginal_likelihood(gp.TrainedGP.from_params(
            data, KernelSpec(kind="squared-exponential", lengthscales=[1.0],
                             signal_variance=1.0)))
    assert tracing.changed(before) == []
    spans = tracer.spans()
    names = [spans["names"][k] for k in spans["kind"]]
    assert names == ["gp.from_params", "kernels.kernel_matrix", "gp.log_marginal_likelihood"]
    assert spans["parent"].tolist() == [-1, 0, -1]
    assert spans["self_time"][0] == pytest.approx(spans["duration"][0] - spans["duration"][1])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

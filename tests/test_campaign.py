import inspect
import warnings
from functools import partial

import numpy as np
import pytest

from mfdgp import acquisition, campaign, dgp, gp
from mfdgp.errors import DomainError
from mfdgp.kernels import KernelSpec
from mfdgp.objectives import ForresterFamily
from mfdgp.objectives.reactor import RTDCurve
from mfdgp.space import DesignSpace
from mfdgp.streams import ACQUISITION, substream


@pytest.fixture(scope="module")
def forrester():
    return ForresterFamily()


def design(objective, n, rng_seed, state=None):
    """Run (or finish) the initial design on ``state``, a fresh ledger by default."""
    state = state or campaign.CampaignState(ladder=tuple(objective.ladder))
    campaign.initial_design(state, objective, objective.space, n, rng_seed)
    return state


@pytest.fixture(scope="module")
def small_model(forrester):
    # a trained model on a fixed 5-level design, reused across read-only tests
    state = design(forrester, 3, rng_seed=5)
    model = campaign.train_model(state, 17)
    return state, model


# ---------------------------------------------------------------------------
# initial design
# ---------------------------------------------------------------------------


def test_initial_design_counts_and_costs(forrester):
    state = design(forrester, 4, 0)
    assert len(state.records) == 20
    counts = state.per_level_counts()
    assert all(counts[t] == 4 for t in range(1, 6))
    # constant per-level costs make tau exactly those constants
    np.testing.assert_allclose(state.tau, [1, 2, 4, 8, 16])
    assert state.budget_spent == pytest.approx(4 * 31.0)


def test_initial_design_deterministic(forrester):
    a = design(forrester, 3, 42)
    b = design(forrester, 3, 42)
    xa = np.array([r.x for r in a.records])
    xb = np.array([r.x for r in b.records])
    assert np.array_equal(xa, xb)


def test_initial_design_failure_names_level(forrester):
    class Broken:
        ladder = forrester.ladder
        space = forrester.space

        def evaluate(self, x, level):
            if level.index == 3:
                raise RuntimeError("solver exploded")
            return forrester.evaluate(x, level)

    state = design(Broken(), 1, 0)
    assert "level 3" in state.error and "solver exploded" in state.error
    # the level 1-2 records are kept
    assert [r.level.index for r in state.records] == [1, 2]


def test_initial_design_finishes_a_partial_ledger(forrester):
    # a ledger holding the first k = 1 of n = 3 level-3 points is completed
    # from point 2 on, the same points an uninterrupted design evaluates
    full = design(forrester, 3, 11)
    evaluated = []

    class Recording:
        ladder = forrester.ladder
        space = forrester.space

        def evaluate(self, x, level):
            evaluated.append((level.index, np.array(x)))
            return forrester.evaluate(x, level)

    partial = campaign.CampaignState(ladder=tuple(forrester.ladder))
    for rec in full.records[:7]:
        partial.records.append(rec)
    design(Recording(), 3, 11, state=partial)
    assert [t for t, _ in evaluated] == [3, 3, 4, 4, 4, 5, 5, 5]
    for (t, x), rec in zip(evaluated, full.records[7:]):
        assert t == rec.level.index and np.array_equal(x, rec.x)
    assert partial.error is None

    def rows(state):
        return [(r.level.index, r.x.tolist(), r.y, r.cost, r.phase) for r in state.records]

    assert rows(partial) == rows(full)
    # a complete ledger evaluates nothing more
    design(Recording(), 3, 11, state=partial)
    assert len(evaluated) == 8


# ---------------------------------------------------------------------------
# fidelity selection
# ---------------------------------------------------------------------------


def test_select_fidelity_forced_cases():
    beta = 2.0
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    # equal sigmas: gamma = (16, 8, 4, 2, 1) forces level 1
    scores = campaign.fidelity_scores(np.full(5, 0.2), taus, beta)
    assert campaign.argmax_highest(scores) == 0
    # sigma = (.1,.1,.1,.1,.4): scores proportional to (1.6,.8,.4,.2,.4)
    scores = campaign.fidelity_scores([0.1, 0.1, 0.1, 0.1, 0.4], taus, beta)
    np.testing.assert_allclose(scores / np.sqrt(beta), [1.6, 0.8, 0.4, 0.2, 0.4])
    assert campaign.argmax_highest(scores) == 0
    # equal taus, only the top sigma nonzero: level 5
    scores = campaign.fidelity_scores([0, 0, 0, 0, 0.3], np.ones(5), beta)
    assert campaign.argmax_highest(scores) == 4


def test_tau_and_beta_rescaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sigmas = rng.uniform(0.01, 2.0, size=5)
        taus = rng.uniform(0.1, 20.0, size=5)
        beta = rng.uniform(0.1, 8.0)
        pick = campaign.argmax_highest(campaign.fidelity_scores(sigmas, taus, beta))
        scaled_tau = campaign.argmax_highest(
            campaign.fidelity_scores(sigmas, taus * rng.uniform(0.5, 50.0), beta)
        )
        scaled_beta = campaign.argmax_highest(
            campaign.fidelity_scores(sigmas, taus, beta * rng.uniform(0.5, 50.0))
        )
        assert pick == scaled_tau == scaled_beta


def test_beta_zero_degenerates_to_highest_level(small_model, forrester):
    state, model = small_model
    level = campaign.select_fidelity(model, np.array([0.5]), state.tau, 0.0, 0)
    assert level.index == 5


def test_select_fidelity_on_model_matches_pure_function(small_model):
    state, model = small_model
    beta = 2.0
    x = np.array([0.31])
    level = campaign.select_fidelity(model, x, state.tau, beta, rng_seed=9)
    traces = dgp.propagate(model, x, dgp.point_draws(model, x, 9))
    scores = campaign.fidelity_scores(
        [tr.sigma[0] for tr in traces], state.tau, beta
    )
    assert level.index == campaign.argmax_highest(scores) + 1


# ---------------------------------------------------------------------------
# recorded costs: tau and spend
# ---------------------------------------------------------------------------


def _records(level_costs):
    return [
        campaign.EvaluationRecord(
            x=[0.5], level=dgp.FidelityLevel(t, (t - 1) / 4), y=0.0, cost=c, iteration=0,
        )
        for t, c in level_costs
    ]


def _state(levels, level_costs):
    ladder = tuple(dgp.FidelityLevel(t, (t - 1) / 4) for t in levels)
    return campaign.CampaignState(ladder=ladder, records=_records(level_costs))


def test_tau_from_records():
    level_costs = [(1, 2.0), (2, 5.0), (2, 5.0), (2, 5.0)]
    assert _state((1, 2), level_costs).tau.tolist() == [2.0, 5.0]
    updated = _state((1, 2), level_costs + [(1, 4.0)])
    assert updated.tau[0] == 3.0  # mean of 2 and 4
    assert updated.tau[1] == 5.0  # other levels untouched
    # constant costs keep tau at the constant, on a 1-rung ladder
    assert _state((3,), [(3, 7.0)] * 6).tau.tolist() == [7.0]
    # tau is the plain mean of the recorded costs, not a running update
    costs = [0.6, 1.1, 1.9, 0.6, 1.5, 0.4]
    scripted = _state((1,), [(1, c) for c in costs])
    assert scripted.tau[0] == np.mean(costs) == 1.0166666666666668
    # the spend is the running total's bits (6.1000000000000005), not math.fsum's 6.1
    running = 0.0
    for c in costs:
        running += c
    assert scripted.budget_spent == running == 6.1000000000000005
    assert repr(_state((1,), []).budget_spent) == "0.0"


def test_budget_spent_adds_left_to_right():
    # from Python 3.12 builtin sum compensates, giving 0.6 here; append's
    # check and the loop's stop test read the plain running total
    state = _state((1,), [])
    for cost in (0.1, 0.2, 0.3):
        state.append(_records([(1, cost)])[0])
    assert state.budget_spent == ((0.0 + 0.1) + 0.2) + 0.3 == 0.6000000000000001


def test_evaluation_record_rejects_bad_cost():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="finite and > 0"):
            _records([(1, bad)])


def test_evaluation_record_rejects_non_finite_x_and_y():
    level = dgp.FidelityLevel(1, 0.0)
    for x, y in (([np.nan], 0.0), ([0.5, np.inf], 0.0), ([0.5], np.nan), ([0.5], -np.inf)):
        with pytest.raises(DomainError, match="x and y must be finite"):
            campaign.EvaluationRecord(x=x, level=level, y=y, cost=1.0, iteration=0)


def test_evaluation_record_x_is_a_read_only_copy():
    x = np.array([0.5])
    rec = campaign.EvaluationRecord(
        x=x, level=dgp.FidelityLevel(1, 0.0), y=0.0, cost=1.0, iteration=0,
    )
    x[0] = 0.9
    assert rec.x.tolist() == [0.5]
    with pytest.raises(ValueError, match="read-only"):
        rec.x[0] = 0.9


# each builder takes the caller's arrays; the checked object must keep read-only copies
READ_ONLY_OWNERS = {
    "kernel-spec": (partial(KernelSpec, "squared-exponential", signal_variance=1.0),
                    {"lengthscales": [0.5, 2.0]}),
    "design-space": (DesignSpace, {"lower": [0.0, 1.0], "upper": [1.0, 3.0]}),
    "rtd-curve": (RTDCurve, {"theta": [0.0, 1.0, 2.0], "e_theta": [0.5, 0.5, 0.5]}),
}


@pytest.mark.parametrize("owner", sorted(READ_ONLY_OWNERS))
def test_checked_value_types_keep_read_only_copies(owner):
    build, values = READ_ONLY_OWNERS[owner]
    arrays = {name: np.array(v) for name, v in values.items()}
    obj = build(**arrays)
    for name, array in arrays.items():
        array[0] += 0.25
        assert getattr(obj, name).tolist() == values[name], name
        with pytest.raises(ValueError, match="read-only"):
            getattr(obj, name)[0] = values[name][0]


def test_evaluation_record_derives_its_phase_from_a_checked_iteration():
    level = dgp.FidelityLevel(1, 0.0)
    for iteration, phase in ((0, "initial-design"), (1, "bo-loop"), (12, "bo-loop")):
        rec = campaign.EvaluationRecord(x=[0.5], level=level, y=0.0, cost=1.0,
                                        iteration=iteration)
        assert rec.phase == phase
    for bad in (-1, True, False, 1.0, "3", None):
        with pytest.raises(DomainError, match="iteration must be an int >= 0"):
            campaign.EvaluationRecord(x=[0.5], level=level, y=0.0, cost=1.0, iteration=bad)
    with pytest.raises(TypeError, match="phase"):
        campaign.EvaluationRecord(x=[0.5], level=level, y=0.0, cost=1.0, iteration=0,
                                  phase=campaign.PHASE_INITIAL)


# ---------------------------------------------------------------------------
# acquisition
# ---------------------------------------------------------------------------


def test_solve_ucb_beta_zero_maximizes_posterior_mean(small_model, forrester):
    # with beta = 0 the acquisition degenerates to the posterior mean, so
    # the solver's pick must top the mean surface over a dense grid
    # (evaluated with the solver's own common random numbers)
    _, model = small_model
    seed = 3
    x_star = acquisition.solve_ucb(model, forrester.space, 0.0, rng_seed=seed)
    draw_rng = substream(seed, ACQUISITION, "draws")
    base = draw_rng.standard_normal((model.num_levels - 1, dgp.ACQUISITION_SAMPLES))
    grid = np.linspace(0, 1, 2001)[:, None]
    mu = dgp.propagate(model, grid, base)[-1].mean
    mu_star = dgp.propagate(model, x_star[None, :], base)[-1].mean
    assert mu_star[0] >= np.max(mu) - 1e-3


def test_solve_ucb_beats_dense_grid(small_model, forrester):
    # oracle: the same acquisition surface (same base draws) on a 10^4 grid
    _, model = small_model
    beta = 2.0
    seed = 11
    x_star = acquisition.solve_ucb(model, forrester.space, beta, rng_seed=seed)
    assert forrester.space.contains(x_star)
    draw_rng = substream(seed, ACQUISITION, "draws")
    base = draw_rng.standard_normal((model.num_levels - 1, dgp.ACQUISITION_SAMPLES))
    grid = np.linspace(0, 1, 10_001)[:, None]
    grid_vals = acquisition.ucb_values(model, grid, beta, base)
    star_val = acquisition.ucb_values(model, x_star[None, :], beta, base)[0]
    assert star_val >= np.max(grid_vals) - 1e-3


def test_solve_ucb_near_degenerate_box(small_model):
    _, model = small_model
    tiny = DesignSpace(lower=[0.5], upper=[0.5 + 1e-9])
    x_star = acquisition.solve_ucb(model, tiny, 2.0, rng_seed=0)
    assert tiny.contains(x_star)


def _sequential_solve_ucb(model, space, beta, rng_seed):
    """The solve with its restarts run one after another, each round its own call.

    The reference for the lock-step search: returns x*, the rows scored and
    the longest restart's round count.
    """
    draw_rng = substream(rng_seed, ACQUISITION, "draws")
    base = draw_rng.standard_normal((max(model.num_levels - 1, 1), dgp.ACQUISITION_SAMPLES))
    pool = space.sample_sobol(acquisition._POOL_SIZE, substream(rng_seed, ACQUISITION, "pool"))
    values = acquisition.ucb_values(model, pool, beta, base)
    rows, longest = len(pool), 0
    order = np.argsort(values)[::-1]
    best_x, best_val = pool[order[0]], float(values[order[0]])
    for idx in order[: acquisition._RESTARTS]:
        u, best = space.normalize(pool[idx]), float(values[idx])
        step, rounds = acquisition._REFINE_STEP0, 0
        while step >= acquisition._REFINE_TOL:
            trials = []
            for j in range(u.shape[0]):
                for sign in (1.0, -1.0):
                    cand = u.copy()
                    cand[j] = min(1.0, max(0.0, cand[j] + sign * step))
                    trials.append(cand)
            trials = np.asarray(trials)
            trial_values = acquisition.ucb_values(model, space.denormalize(trials), beta, base)
            rows, rounds = rows + len(trials), rounds + 1
            k = int(np.argmax(trial_values))
            if trial_values[k] > best:
                u, best = trials[k], float(trial_values[k])
            else:
                step *= 0.5
        longest = max(longest, rounds)
        if best > best_val:
            best_val, best_x = best, space.denormalize(u)
    return space.clip(best_x), rows, longest


@pytest.fixture(scope="module")
def model_4d():
    # a hand-built 4-D, five-layer stack on a non-unit box: fixed kernels, no training
    space = DesignSpace(lower=[-1.0, 0.0, 2.0, 0.0], upper=[1.0, 0.5, 5.0, 1.0])
    rng = np.random.default_rng(11)
    layers = []
    for t, n in enumerate((9, 7, 5, 4, 3), start=1):
        U = rng.uniform(size=(n, 4))
        X, y = space.denormalize(U), np.sin(3.0 * U).sum(axis=1) + 0.3 * t * U[:, 0] * U[:, 2]
        if layers:
            m = dgp.compose_mean(layers, X)
            X, y = np.column_stack([X, m]), y - m
        kernel = KernelSpec(
            kind="squared-exponential",
            lengthscales=0.4 * np.ptp(X, axis=0), signal_variance=1.0,
        )
        layers.append(gp.TrainedGP.from_params(gp.GPDataset(X, y, 1e-6), kernel))
    return space, dgp.MFDeepGP(layers=tuple(layers), ladder=tuple(dgp.default_ladder()))


@pytest.mark.parametrize("case", ["forrester", "4d"])
def test_lock_step_search_matches_sequential(case, request, forrester, monkeypatch):
    # the lock-step search returns the sequential search's x* bits, scores the
    # same rows, and makes one ucb_values call for the pool plus one per round
    # of the longest restart
    if case == "forrester":
        space, model = forrester.space, request.getfixturevalue("small_model")[1]
    else:
        space, model = request.getfixturevalue("model_4d")
    scored = []
    ucb_values = acquisition.ucb_values

    def counting(model, X, beta, base_draws):
        scored.append(len(X))
        return ucb_values(model, X, beta, base_draws)

    for beta in (0.0, 2.0):
        for seed in (0, 5):
            expected, rows, longest = _sequential_solve_ucb(model, space, beta, seed)
            scored.clear()
            with monkeypatch.context() as m:
                m.setattr(acquisition, "ucb_values", counting)
                x_star = acquisition.solve_ucb(model, space, beta, seed)
            assert x_star.tobytes() == expected.tobytes()
            assert sum(scored) == rows
            assert len(scored) == 1 + longest


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def test_budget_equal_to_initial_design_means_no_loop(forrester):
    state = campaign.run(
        forrester, forrester.space, forrester.ladder, 1,
        2.0, budget_total=31.0, rng_seed=2,
    )
    assert state.loop_iterations == 0
    assert state.budget_spent == pytest.approx(31.0)


def test_run_is_deterministic(forrester):
    kw = dict(n=1, beta=2.0, budget_total=45.0, rng_seed=8)
    a = campaign.run(forrester, forrester.space, forrester.ladder, **kw)
    b = campaign.run(forrester, forrester.space, forrester.ladder, **kw)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.x, rb.x)
        assert (ra.level.index, ra.y, ra.cost, ra.iteration, ra.phase) == (
            rb.level.index, rb.y, rb.cost, rb.iteration, rb.phase,
        )


def test_budget_ledger_invariants(forrester):
    state = campaign.run(
        forrester, forrester.space, forrester.ladder, 1,
        2.0, budget_total=45.0, rng_seed=4,
    )
    assert state.budget_spent == pytest.approx(sum(r.cost for r in state.records), abs=1e-9)
    # at most one overshooting evaluation
    assert state.budget_spent - state.budget_total < state.records[-1].cost
    assert all(forrester.space.contains(r.x) for r in state.records)
    inc = state.incumbent
    top = [r.y for r in state.records if r.level.index == 5]
    assert inc.y == max(top)


def test_objective_failure_mid_loop_preserves_partial_state(forrester):
    calls = {"n": 0}

    class Flaky:
        ladder = forrester.ladder

        def evaluate(self, x, level):
            calls["n"] += 1
            if calls["n"] > 7:
                raise RuntimeError("license server down")
            return forrester.evaluate(x, level)

    state = campaign.run(
        Flaky(), forrester.space, forrester.ladder, 1,
        2.0, budget_total=60.0, rng_seed=1,
    )
    assert state.error is not None
    assert "license server down" in state.error
    assert len(state.records) == 7  # 5 initial + 2 loop evaluations


def test_bad_cost_ends_campaign_through_error(forrester):
    # on a 1-rung ladder; a cost that is not finite and > 0, or a y that
    # is not finite, stops the campaign with state.error, in the initial
    # design and in the loop
    top = tuple(forrester.ladder)[-1:]

    class BadCost:
        ladder = forrester.ladder

        def __init__(self, bad_call, bad_y):
            self.calls, self.bad_call, self.bad_y = 0, bad_call, bad_y

        def evaluate(self, x, level):
            self.calls += 1
            y, cost = forrester.evaluate(x, level)
            if self.calls != self.bad_call:
                return y, cost
            return (np.nan, cost) if self.bad_y else (y, np.nan)

    for bad_y, message in ((False, "finite and > 0"), (True, "x and y must be finite")):
        for bad_call, kept in ((2, 1), (4, 3)):
            state = campaign.run(
                BadCost(bad_call, bad_y), forrester.space, top, 2,
                2.0, budget_total=100.0, rng_seed=0,
            )
            assert message in state.error
            assert len(state.records) == kept
            assert state.budget_spent == 16.0 * kept


def test_loop_takes_beta_alone(forrester):
    # beta is the loop's only setting, checked before any evaluation
    calls = []

    class Counting:
        ladder = forrester.ladder

        def evaluate(self, x, level):
            calls.append(level.index)
            return forrester.evaluate(x, level)

    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="beta must be finite and >= 0"):
            campaign.run(
                Counting(), forrester.space, forrester.ladder, 1, bad,
                budget_total=60.0, rng_seed=0,
            )
    assert calls == []
    # the fidelity rule and the acquisition take beta and nothing config-shaped
    assert list(inspect.signature(campaign.select_fidelity).parameters) == [
        "model", "x_star", "tau", "beta", "rng_seed",
    ]
    assert list(inspect.signature(acquisition.solve_ucb).parameters) == [
        "model", "space", "beta", "rng_seed",
    ]


def test_resume_refuses_a_budget_not_finite_before_evaluating(forrester):
    # a loop toward an infinite total never ends
    calls = []

    class Counting:
        ladder = forrester.ladder

        def evaluate(self, x, level):
            calls.append(level.index)
            return forrester.evaluate(x, level)

    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(DomainError, match="budget_total must be finite and >= 0"):
            campaign.run(
                Counting(), forrester.space, forrester.ladder, 1, 2.0,
                budget_total=bad, rng_seed=0,
            )
    assert calls == []


def test_run_and_resume_refuse_a_huge_n_before_evaluating(forrester):
    # numpy cannot even allocate the design of n = 10^20 points
    calls = []

    class Counting:
        ladder = forrester.ladder

        def evaluate(self, x, level):
            calls.append(level.index)
            return forrester.evaluate(x, level)

    designed = campaign.run(forrester, forrester.space, forrester.ladder, 1, 2.0, 0.0, 0)
    for n in (10**20, 1001):
        with pytest.raises(DomainError, match="n must be <= 1000"):
            campaign.run(Counting(), forrester.space, forrester.ladder, n, 2.0, 10.0, 0)
        with pytest.raises(DomainError, match="n must be <= 1000"):
            campaign.resume(designed, Counting(), forrester.space, n, 2.0, 10.0, 0)
    assert calls == []


def test_recommend_returns_the_model_maximizer(forrester, small_model):
    assert list(inspect.signature(campaign.recommend).parameters) == ["model", "space"]
    _, model = small_model
    model_best = campaign.recommend(model, forrester.space)
    assert forrester.space.contains(model_best)
    # beta = 0 solve equals the model_best definitionally
    again = acquisition.solve_ucb(model, forrester.space, 0.0, 0)
    assert np.array_equal(model_best, again)


def test_single_fidelity_baseline_runs(forrester):
    state = campaign.run_single_fidelity(
        forrester, forrester.space, 1, 2.0, budget_total=60.0, rng_seed=0
    )
    assert all(r.level.index == 5 for r in state.records)
    assert state.budget_spent >= 60.0
    assert state.incumbent is not None


def test_a_campaign_whose_model_overflows_a_covariance_runs_without_warning(forrester):
    # seed 38 of the criterion-6 campaign: a layer whose z column spans only
    # 1.7e-178 fits a z lengthscale near 7e-181, so the model predicts at z
    # values whose squared scaled norm overflows; that covariance is 0, as
    # it is exactly, and the run finishes without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = campaign.run(forrester, forrester.space, forrester.ladder,
                             n=1, beta=2.0, budget_total=60.0, rng_seed=38)
    assert state.error is None
    assert state.budget_spent >= 60.0

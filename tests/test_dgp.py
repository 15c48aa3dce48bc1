import dataclasses
import os
import signal

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs

from mfdgp import campaign, dgp, gp
from mfdgp.errors import ConditioningError, DomainError, MfdgpError
from mfdgp.streams import PROPAGATION, point_hash, substream


def datasets(xs, ys, noise_variance=1e-8):
    """One GP dataset per level, lowest fidelity first: what dgp.train takes."""
    return [gp.GPDataset(x, y, noise_variance) for x, y in zip(xs, ys)]


def point_traces(model, x, rng_seed):
    """Propagate one point with its own seeded draws (dgp.point_draws)."""
    x = np.atleast_2d(x)
    return dgp.propagate(model, x, dgp.point_draws(model, x, rng_seed))


def draw_moments(model, x, draws):
    """Each draw's predictive (means, variances) at levels 2..T, shape (S,) each.

    Taken from one-column passes, not from the batched pass: the mixture of
    one draw is that draw's own moments (mean of one value, variance 0).
    """
    passes = [dgp.propagate(model, x, draws[:, [s]]) for s in range(draws.shape[1])]
    return [
        (np.array([p[t].mean[0] for p in passes]), np.array([p[t].variance[0] for p in passes]))
        for t in range(1, model.num_levels)
    ]


@pytest.fixture(scope="module")
def correlated_two_level():
    # perfectly correlated fidelities: the top level repeats the bottom one
    rng = np.random.default_rng(3)
    X = np.linspace(0, 1, 8)[:, None]
    y = np.sin(4 * X[:, 0])
    model = dgp.train(datasets([X, X], [y, y], noise_variance=1e-10), 5)
    return X, y, model


@pytest.fixture(scope="module")
def five_level_model():
    rng = np.random.default_rng(9)
    xs = [np.sort(rng.uniform(size=n))[:, None] for n in (6, 5, 4, 3, 2)]
    ys = [np.sin(5 * x[:, 0]) + 0.1 * t * x[:, 0] for t, x in enumerate(xs)]
    return dgp.train(datasets(xs, ys), 1)


def test_ladder_construction():
    ladder = dgp.default_ladder()
    assert [lv.index for lv in ladder] == [1, 2, 3, 4, 5]
    assert [lv.nominal for lv in ladder] == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(DomainError):
        dgp.ladder_from_nominals([0.0, 0.5, 0.5])
    with pytest.raises(DomainError, match="at least one"):
        dgp.ladder_from_nominals([])
    with pytest.raises(DomainError):
        dgp.FidelityLevel(index=0, nominal=0.0)


def test_dataset_needs_every_level_populated():
    # the campaign names the first level that has no record
    ladder = tuple(dgp.default_ladder()[:2])
    rec = campaign.EvaluationRecord(x=[0.5], level=ladder[0], y=1.0, cost=1.0, iteration=0)
    with pytest.raises(DomainError, match="level 2 has no observations"):
        campaign.train_model(campaign.CampaignState(ladder=ladder, records=[rec]), 0)
    with pytest.raises(MfdgpError):
        dgp.train([], 0)
    # one level is a valid (single-fidelity) dataset
    assert dgp.train(datasets([np.zeros((1, 1))], [[0.0]]), 0).num_levels == 1


def test_train_refuses_levels_of_another_dimension():
    rng = np.random.default_rng(4)
    xs = [rng.uniform(size=(3, 1)), rng.uniform(size=(3, 2))]
    with pytest.raises(DomainError, match="input dimension 2 does not match 1 lengthscales"):
        dgp.train(datasets(xs, [np.zeros(3), np.zeros(3)]), 0)


def test_train_layer_shapes(correlated_two_level):
    _, _, model = correlated_two_level
    assert model.layers[0].dataset.inputs.shape[1] == 1
    assert model.layers[1].dataset.inputs.shape[1] == 2


def test_perfectly_correlated_round_trip(correlated_two_level):
    X, y, model = correlated_two_level
    for i in range(len(X)):
        mu = point_traces(model, X[i], 7)[1].mean[0]
        assert mu == pytest.approx(y[i], abs=1e-4)


def test_train_accepts_single_point_top_level():
    rng = np.random.default_rng(0)
    X1 = rng.uniform(size=(5, 1))
    X2 = rng.uniform(size=(1, 1))
    model = dgp.train(datasets([X1, X2], [np.sin(X1[:, 0]), np.sin(X2[:, 0])]), 0)
    assert model.num_levels == 2


def test_train_deterministic():
    rng = np.random.default_rng(8)
    xs = [rng.uniform(size=(4, 1)) for _ in range(2)]
    ys = [np.cos(3 * x[:, 0]) for x in xs]
    data = datasets(xs, ys)
    a = dgp.train(data, 11)
    b = dgp.train(data, 11)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.kernel.lengthscales, lb.kernel.lengthscales)
        assert la.kernel.signal_variance == lb.kernel.signal_variance


def test_ladder_length_must_match_levels():
    rng = np.random.default_rng(2)
    xs = [rng.uniform(size=(3, 1)) for _ in range(2)]
    data = datasets(xs, [x[:, 0] for x in xs])
    with pytest.raises(DomainError, match="ladder has 5 levels, got 2 datasets"):
        dgp.train(data, 0, ladder=dgp.default_ladder())


def test_level_one_is_plain_gp_bit_for_bit(five_level_model):
    model = five_level_model
    x = np.array([0.37])
    level1 = point_traces(model, x, 123)[0]
    m, v = gp.predict(model.layers[0], x[None, :])
    assert level1.mean[0] == m[0]
    assert level1.sigma[0] == np.sqrt(v[0])


def test_all_levels_shape_and_consistency(five_level_model):
    model = five_level_model
    x = np.array([[0.61]])
    draws = dgp.point_draws(model, x, 21)
    traces = dgp.propagate(model, x, draws)
    assert len(traces) == 5
    assert [f.name for f in dataclasses.fields(dgp.LevelTrace)] == ["mean", "variance"]
    assert all(tr.mean.shape == tr.variance.shape == (1,) for tr in traces)
    assert all(tr.sigma[0] >= 0 for tr in traces)
    # every level's mixture mean is the mean of its draws' own means
    for tr, (means, _) in zip(traces[1:], draw_moments(model, x, draws)):
        assert means.shape == (model.propagation_samples,)
        assert abs(np.mean(means) - tr.mean[0]) <= 1e-12


def test_propagate_rows_do_not_depend_on_the_batch(five_level_model):
    # shared draws: each row of a batch gets the moments it gets alone
    model = five_level_model
    X = np.random.default_rng(4).uniform(size=(7, 1))
    draws = np.random.default_rng(5).standard_normal((4, 300))
    batch = dgp.propagate(model, X, draws)
    for i in range(len(X)):
        alone = dgp.propagate(model, X[i : i + 1], draws)
        for b, a in zip(batch, alone):
            assert abs(b.mean[i] - a.mean[0]) <= 1e-12
            assert abs(b.variance[i] - a.variance[0]) <= 1e-12


def test_point_draws_are_the_point_substreams(five_level_model):
    model = dataclasses.replace(five_level_model, propagation_samples=50)
    x = np.array([0.27])
    draws = dgp.point_draws(model, x, 21)
    assert draws.shape == (4, 50)
    for t in range(1, 5):
        expected = substream(21, PROPAGATION, point_hash(x), t).standard_normal(50)
        assert np.array_equal(draws[t - 1], expected)
    default = dgp.point_draws(five_level_model, x, 21)
    assert default.shape == (4, five_level_model.propagation_samples)
    assert np.array_equal(default[:, :50], draws)


def test_propagate_needs_a_draw_row_per_lower_level(five_level_model):
    with pytest.raises(DomainError, match="3 base draw rows, need 4"):
        dgp.propagate(five_level_model, np.array([[0.5]]), np.zeros((3, 10)))
    with pytest.raises(DomainError):
        dgp.propagate(five_level_model, np.array([[0.5]]), np.zeros((4, 0)))
    # a query of another dimension: the first layer's kernel refuses it
    with pytest.raises(DomainError, match="input dimension 2 does not match 1 lengthscales"):
        dgp.propagate(five_level_model, np.array([[0.5, 0.5]]), np.zeros((4, 10)))


def test_variance_decomposition_recomputable(five_level_model):
    # the batched mixture against the draws' own moments from one-column passes
    model = dataclasses.replace(five_level_model, propagation_samples=800)
    x = np.array([[0.44]])
    draws = dgp.point_draws(model, x, 5)
    traces = dgp.propagate(model, x, draws)
    for tr, (means, variances) in zip(traces[1:], draw_moments(model, x, draws)):
        recomputed = np.mean(variances) + np.var(means)
        assert abs(recomputed - tr.variance[0]) <= 1e-12


def test_monte_carlo_self_consistency(correlated_two_level):
    # two S = 5000 runs with different seeds agree within 3 standard errors,
    # the spread measured from the draws' own means (one-column passes)
    model = dataclasses.replace(correlated_two_level[2], propagation_samples=5000)
    x = np.array([[0.415]])
    tops, ses = [], []
    for seed in (101, 202):
        draws = dgp.point_draws(model, x, seed)
        tops.append(dgp.propagate(model, x, draws)[-1].mean[0])
        means, _ = draw_moments(model, x, draws)[-1]
        ses.append(np.sqrt(np.var(means) / 5000))
    assert abs(tops[0] - tops[1]) <= 3 * sum(ses) + 1e-12


def test_sigma_never_negative(five_level_model):
    model = five_level_model
    rng = np.random.default_rng(6)
    for x in rng.uniform(size=(10, 1)):
        for tr in point_traces(model, x, int(x[0] * 1e6)):
            assert tr.sigma[0] >= 0


def test_monotone_data_effect():
    # adding a noise-free top-level observation at x does not increase the
    # top-level sigma there (same hyperparameters, common random numbers)
    rng = np.random.default_rng(31)
    X1 = np.linspace(0, 1, 7)[:, None]
    y1 = np.sin(4 * X1[:, 0])
    X2 = np.array([[0.2], [0.8]])
    y2 = np.sin(4 * X2[:, 0])
    model = dgp.train(datasets([X1, X2], [y1, y2], noise_variance=1e-10), 3)

    x_new = np.array([0.5])
    draws = np.random.default_rng(77).standard_normal((1, 10_000))
    before = dgp.propagate(model, x_new, draws)[-1]
    mu, sigma_before = before.mean[0], before.sigma[0]

    # condition layer 2 on the new observation, keeping hyperparameters fixed
    aug = dgp.compose_mean(model.layers[:1], x_new[None, :])
    old = model.layers[1].dataset
    new_inputs = np.vstack([old.inputs, np.column_stack([x_new[None, :], aug])])
    new_targets = np.append(old.targets, mu - aug[0])
    layer2 = gp.TrainedGP.from_params(
        gp.GPDataset(new_inputs, new_targets, old.noise_variance), model.layers[1].kernel
    )
    grown = dgp.MFDeepGP(layers=(model.layers[0], layer2), ladder=model.ladder)
    sigma_after = dgp.propagate(grown, x_new, draws)[-1].sigma[0]

    block_sigmas = [dgp.propagate(model, x_new, draws[:, i::10])[-1].sigma[0] for i in range(10)]
    standard_error = np.std(block_sigmas) / np.sqrt(10)
    assert sigma_after <= sigma_before + 3 * standard_error


def test_augmented_coordinate_invariant(five_level_model):
    # each layer's stored augmenting coordinate is the composed mean of the layers below
    layers = five_level_model.layers
    for t in range(1, len(layers)):
        inputs = layers[t].dataset.inputs
        recomputed = dgp.compose_mean(layers[:t], inputs[:, :-1])
        assert np.max(np.abs(inputs[:, -1] - recomputed)) <= 1e-10


def test_model_without_layers_is_refused():
    # the constructor owns "at least one layer", so propagate never sees an empty stack
    with pytest.raises(DomainError, match="a model needs at least one layer"):
        dgp.MFDeepGP(layers=(), ladder=())


# ---------------------------------------------------------------------------
# propagate writes one augmented block per pass and sums the query side's
# norms column by column. Oracle: the pass as plain expressions, a fresh
# column_stack at every level and each norm by one reduction; the two must
# give the very same bytes.
# ---------------------------------------------------------------------------


def reference_predict(layer, queries):
    spec = layer.kernel
    xa = layer.dataset.inputs / spec.lengthscales
    xb = queries / spec.lengthscales
    sq = np.sum(xa**2, axis=1)[:, None] + np.sum(xb**2, axis=1)[None, :] - 2.0 * xa @ xb.T
    k_star = spec.signal_variance * np.exp(-0.5 * np.maximum(sq, 0.0))
    v = dtrtrs(layer.chol_factor, k_star, lower=1)[0]
    return k_star.T @ layer.alpha, np.maximum(spec.signal_variance - (v**2).sum(axis=0), 0.0)


def reference_propagate(model, X, base_draws):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    top, S, m = model.num_levels, base_draws.shape[1], X.shape[0]
    mean, variance = reference_predict(model.layers[0], X)
    traces = [(mean, variance)]
    if top > 1:
        draws = mean[:, None] + np.sqrt(variance)[:, None] * base_draws[0]
    for t in range(2, top + 1):
        aug = np.column_stack([np.repeat(X, S, axis=0), draws.reshape(-1)])
        mu_flat, var_flat = reference_predict(model.layers[t - 1], aug)
        mus = draws + mu_flat.reshape(m, S)
        vars_ = var_flat.reshape(m, S)
        if t < top:
            draws = mus + np.sqrt(vars_) * base_draws[t - 1]
        traces.append((np.mean(mus, axis=1), np.mean(vars_, axis=1) + np.var(mus, axis=1)))
    return traces


def test_propagate_gives_the_bytes_of_the_plain_pass(five_level_model):
    rng = np.random.default_rng(31)
    x = np.array([[0.0], [0.5], [1.0]])
    one_level = dgp.train(datasets([x], [np.cos(3 * x[:, 0])]), 2)
    # 4-D inputs, as the reactor's, give 5-D augmented blocks. At 21 query
    # rows and layers of 12 or more rows, BLAS rounds the kernel's matmul
    # differently on a column-major block, so this case pins the layout
    xs = [rng.uniform(size=(n, 4)) for n in (16, 14, 12, 4, 2)]
    four_d = dgp.train(datasets(xs, [np.sin(xt @ [3.0, 1.0, -2.0, 0.5]) + 0.1 * t
                                     for t, xt in enumerate(xs)]), 3)
    cases = [(five_level_model, m) for m in (1, 16, 64, 512)]
    cases += [(one_level, 16), (four_d, 21)]
    for model, m in cases:
        assert_plain_pass_bytes(model, rng, m, dgp.ACQUISITION_SAMPLES)
    # 7-D inputs give 8-column augmented blocks, whose rows numpy sums pairwise
    xs = [rng.uniform(size=(n, 7)) for n in (10, 8, 6)]
    seven_d = dgp.train(datasets(xs, [np.sin(xt @ np.linspace(-2.0, 2.0, 7)) + 0.1 * t
                                      for t, xt in enumerate(xs)]), 4)
    for model, m, S in [(seven_d, 1, 100), (seven_d, 21, 100), (five_level_model, 16, 1),
                        (five_level_model, 16, 2), (four_d, 21, 1), (four_d, 21, 2)]:
        assert_plain_pass_bytes(model, rng, m, S)
    # compose_mean's augmented queries are the pass at S = 1, on the level's mean
    for model in (five_level_model, four_d, seven_d):
        X = rng.uniform(size=(21, model.layers[0].kernel.dimension))
        for t in range(1, model.num_levels + 1):
            expected = reference_predict(model.layers[0], X)[0]
            for layer in model.layers[1:t]:
                expected = expected + reference_predict(layer, np.column_stack([X, expected]))[0]
            assert dgp.compose_mean(model.layers[:t], X).tobytes() == expected.tobytes(), t


def assert_plain_pass_bytes(model, rng, m, S):
    X = rng.uniform(size=(m, model.layers[0].kernel.dimension))
    draws = rng.standard_normal((model.num_levels - 1, S))
    got = dgp.propagate(model, X, draws)
    expected = reference_propagate(model, X, draws)
    assert len(got) == len(expected) == model.num_levels
    for trace, (mean, variance) in zip(got, expected):
        assert trace.mean.tobytes() == mean.tobytes(), (model.num_levels, m, S)
        assert trace.variance.tobytes() == variance.tobytes(), (model.num_levels, m, S)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_propagate_refuses_a_non_finite_augmented_coordinate(five_level_model, bad):
    # a non-finite draw of level 2 makes level 3's z column non-finite
    draws = np.random.default_rng(12).standard_normal((4, 10))
    draws[1, 3] = bad
    with pytest.raises(DomainError, match="kernel inputs must be finite"):
        dgp.propagate(five_level_model, np.array([[0.3], [0.8]]), draws)


# ---------------------------------------------------------------------------
# The restart helper: dgp.train forks it where two CPUs are visible, and a
# stack trained with it, without it or with it killed has the same bytes.
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the restart helper is forked")


def visible_cpus(monkeypatch, count):
    """Make gp.restart_helper see ``count`` CPUs: two or more fork the helper, one does not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def campaign_sized_levels():
    """Five levels on a 4-D box, 9 rows at the bottom to 2 at the top, as a reactor campaign ends."""
    rng = np.random.default_rng(36)
    xs = [rng.uniform(size=(n, 4)) for n in (9, 7, 5, 3, 2)]
    ys = [np.sin(x @ [3.0, 1.0, -2.0, 0.5]) * (1.0 + 0.2 * t) + 0.3 * t for t, x in enumerate(xs)]
    return datasets(xs, ys)


@pytest.fixture
def starts_run_here(monkeypatch):
    """The start count of each lock-step search this process runs, not the helper."""
    counts = []
    lock_step = gp._lock_step

    def counted(objective, starts):
        counts.append(len(starts))
        return lock_step(objective, starts)

    monkeypatch.setattr(gp, "_lock_step", counted)
    return counts


def assert_same_stack(a, b):
    for t, (x, y) in enumerate(zip(a.layers, b.layers), start=1):
        assert x.kernel.lengthscales.tobytes() == y.kernel.lengthscales.tobytes(), t
        assert np.float64(x.kernel.signal_variance) == np.float64(y.kernel.signal_variance), t
        assert x.chol_factor.tobytes() == y.chol_factor.tobytes(), t
        assert x.alpha.tobytes() == y.alpha.tobytes(), t


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_train_with_the_restart_helper_gives_the_in_process_bytes(monkeypatch, starts_run_here):
    levels = campaign_sized_levels()
    visible_cpus(monkeypatch, 2)
    split = dgp.train(levels, 5)
    assert_no_child_left()
    visible_cpus(monkeypatch, 1)
    alone = dgp.train(levels, 5)
    # with the helper this process runs two starts of each fit, without it four
    assert starts_run_here == [2] * 5 + [4] * 5
    assert_same_stack(split, alone)


@needs_fork
def test_an_exception_in_the_helper_reaches_the_caller(monkeypatch):
    visible_cpus(monkeypatch, 2)
    caller, nelder_mead = os.getpid(), gp._nelder_mead

    def failing_in_the_helper(start):
        if os.getpid() != caller:
            raise ConditioningError("a restart failed in the helper")
        return nelder_mead(start)

    monkeypatch.setattr(gp, "_nelder_mead", failing_in_the_helper)
    with pytest.raises(ConditioningError) as raised:
        dgp.train(campaign_sized_levels(), 5)
    assert str(raised.value) == "a restart failed in the helper"
    assert_no_child_left()


@needs_fork
def test_a_helper_killed_mid_train_leaves_the_in_process_bytes(monkeypatch, starts_run_here):
    levels = campaign_sized_levels()
    visible_cpus(monkeypatch, 1)
    alone = dgp.train(levels, 5)
    visible_cpus(monkeypatch, 2)
    caller, nelder_mead = os.getpid(), gp._nelder_mead
    started = []  # restarts the helper started, in its own memory

    def killed_in_its_second_job(start):
        if os.getpid() != caller:
            started.append(start)
            if len(started) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return nelder_mead(start)

    monkeypatch.setattr(gp, "_nelder_mead", killed_in_its_second_job)
    del starts_run_here[:]
    split = dgp.train(levels, 5)
    assert_no_child_left()
    # layer 1 split; layer 2 its own two starts, then the dead helper's two;
    # layers 3-5 all four here
    assert starts_run_here == [2, 2, 2, 4, 4, 4]
    assert_same_stack(split, alone)


class _ArgumentedError(MfdgpError):
    """An exception that pickles but does not unpickle: its class takes two arguments."""

    def __init__(self, message, code):
        super().__init__(f"{message} ({code})")


@needs_fork
def test_a_helper_reply_that_does_not_unpickle_leaves_the_in_process_bytes(
        monkeypatch, starts_run_here):
    levels = campaign_sized_levels()
    visible_cpus(monkeypatch, 1)
    alone = dgp.train(levels, 5)
    visible_cpus(monkeypatch, 2)
    caller, nelder_mead = os.getpid(), gp._nelder_mead

    def failing_in_the_helper(start):
        if os.getpid() != caller:
            raise _ArgumentedError("a restart failed in the helper", 7)
        return nelder_mead(start)

    monkeypatch.setattr(gp, "_nelder_mead", failing_in_the_helper)
    del starts_run_here[:]
    split = dgp.train(levels, 5)
    assert_no_child_left()
    # layer 1 runs its own two starts, then the helper's two; the helper is
    # then gone, so layers 2-5 run all four here
    assert starts_run_here == [2, 2, 4, 4, 4, 4]
    assert_same_stack(split, alone)

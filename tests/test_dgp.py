import dataclasses

import numpy as np
import pytest

from mfdgp import campaign, dgp, gp
from mfdgp.errors import DomainError, InsufficientDataError, MfdgpError, ShapeError
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
    with pytest.raises(InsufficientDataError, match="level 2"):
        campaign.train_model(campaign.CampaignState(ladder=ladder, records=[rec]), 0)
    with pytest.raises(MfdgpError):
        dgp.train([], 0)
    # one level is a valid (single-fidelity) dataset
    assert dgp.train(datasets([np.zeros((1, 1))], [[0.0]]), 0).num_levels == 1


def test_train_refuses_levels_of_another_dimension():
    rng = np.random.default_rng(4)
    xs = [rng.uniform(size=(3, 1)), rng.uniform(size=(3, 2))]
    with pytest.raises(ShapeError):
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
    with pytest.raises(ShapeError):
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
    with pytest.raises(ShapeError):
        dgp.propagate(five_level_model, np.array([[0.5]]), np.zeros((3, 10)))
    with pytest.raises(DomainError):
        dgp.propagate(five_level_model, np.array([[0.5]]), np.zeros((4, 0)))
    # a query of another dimension: the first layer's kernel refuses it
    with pytest.raises(ShapeError, match="dimension"):
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
    with pytest.raises(ShapeError, match="at least one layer"):
        dgp.MFDeepGP(layers=(), ladder=())

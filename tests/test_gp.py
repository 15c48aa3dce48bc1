import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf

from mfdgp import gp
from mfdgp.errors import ConditioningError, DomainError, InsufficientDataError, ShapeError
from mfdgp.kernels import KernelSpec, kernel_matrix

# ---------------------------------------------------------------------------
# Independent dense-inverse oracle: explicit kernel formulas, np.linalg.inv
# and slogdet, no shared code with the package's Cholesky path.
# ---------------------------------------------------------------------------


def oracle_kernel(spec, a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    r2 = np.sum((d / spec.lengthscales) ** 2)
    if spec.kind == "squared-exponential":
        return spec.signal_variance * np.exp(-0.5 * r2)
    r = np.sqrt(5.0 * r2)
    return spec.signal_variance * (1 + r + r * r / 3.0) * np.exp(-r)


def oracle_gram(spec, A, B):
    return np.array([[oracle_kernel(spec, a, b) for b in B] for a in A])


def oracle_posterior(spec, X, y, noise, Q):
    K = oracle_gram(spec, X, X) + noise * np.eye(len(X))
    Kinv = np.linalg.inv(K)
    Ks = oracle_gram(spec, X, Q)
    mean = Ks.T @ Kinv @ y
    var = np.array([oracle_kernel(spec, q, q) for q in Q]) - np.einsum(
        "ij,ik,kj->j", Ks, Kinv, Ks
    )
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    lml = -0.5 * y @ Kinv @ y - 0.5 * logdet - 0.5 * len(X) * np.log(2 * np.pi)
    return mean, var, lml


def make_gp(spec, X, y, noise):
    data = gp.GPDataset(inputs=X, targets=y, noise_variance=noise)
    return gp.TrainedGP.from_params(data, spec)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ShapeError):
        gp.GPDataset(inputs=np.zeros((3, 1)), targets=np.zeros(2), noise_variance=0.0)
    with pytest.raises(InsufficientDataError):
        gp.GPDataset(inputs=np.zeros((0, 1)), targets=np.zeros(0), noise_variance=0.0)
    with pytest.raises(DomainError):
        gp.GPDataset(inputs=[[np.inf]], targets=[0.0], noise_variance=0.0)
    with pytest.raises(DomainError):
        gp.GPDataset(inputs=[[0.0]], targets=[0.0], noise_variance=-1.0)


def test_chol_factor_reconstructs_covariance():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(8, 2))
    y = rng.normal(size=8)
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.8, 1.1], signal_variance=1.4)
    model = make_gp(spec, X, y, 1e-4)
    K = oracle_gram(spec, X, X) + 1e-4 * np.eye(8)
    recon = model.chol_factor @ model.chol_factor.T
    assert np.all(np.diag(model.chol_factor) > 0)
    assert np.max(np.abs(recon - K)) <= 1e-8 * np.max(np.abs(K))


# ---------------------------------------------------------------------------
# predict / lml / sample against the oracle
# ---------------------------------------------------------------------------


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(7)
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.5, 0.9], signal_variance=2.0)
    X = rng.uniform(0, 1, size=(6, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    Q = rng.uniform(0, 1, size=(3, 2))
    model = make_gp(spec, X, y, 1e-6)
    mean, var = gp.predict(model, Q)
    o_mean, o_var, o_lml = oracle_posterior(spec, X, y, 1e-6, Q)
    np.testing.assert_allclose(mean, o_mean, atol=1e-8)
    np.testing.assert_allclose(var, o_var, atol=1e-8)
    assert gp.log_marginal_likelihood(model) == pytest.approx(o_lml, abs=1e-8)


def test_lml_trivial_cases():
    # n = 1, target 0, prior variance 1: a standard normal evaluated at zero
    model = make_gp(
        KernelSpec(kind="squared-exponential", lengthscales=[1.0], signal_variance=1.0),
        np.array([[0.5]]), np.array([0.0]), 0.0,
    )
    assert gp.log_marginal_likelihood(model) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    # zero targets: the quadratic term vanishes, leaving the complexity terms
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(5, 1))
    spec = KernelSpec(kind="matern-5/2", lengthscales=[0.7], signal_variance=1.3)
    model = make_gp(spec, X, np.zeros(5), 1e-3)
    expected = -np.sum(np.log(np.diag(model.chol_factor))) - 2.5 * np.log(2 * np.pi)
    assert gp.log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-12)


def test_lml_invariant_under_reordering():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(7, 1))
    y = np.cos(4 * X[:, 0])
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.4], signal_variance=1.0)
    base = gp.log_marginal_likelihood(make_gp(spec, X, y, 1e-5))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(7)
        shuffled = gp.log_marginal_likelihood(make_gp(spec, X[perm], y[perm], 1e-5))
        assert shuffled == pytest.approx(base, abs=1e-9)


def test_noise_free_interpolation_and_prior_reversion():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(6, 1))
    y = np.sin(5 * X[:, 0])
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.3], signal_variance=1.5)
    model = make_gp(spec, X, y, 0.0)
    mean, var = gp.predict(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-7)
    assert np.all(var <= 1e-8)
    # 20+ lengthscales away the posterior reverts to the prior variance
    far_mean, far_var = gp.predict(model, np.array([[50.0]]))
    assert far_var[0] == pytest.approx(1.5, abs=1e-6)
    assert far_mean[0] == pytest.approx(0.0, abs=1e-6)


def test_predict_dimension_mismatch():
    model = make_gp(
        KernelSpec(kind="squared-exponential", lengthscales=[1.0], signal_variance=1.0),
        np.array([[0.0]]), np.array([1.0]), 1e-8,
    )
    with pytest.raises(ShapeError):
        gp.predict(model, np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        gp.predict(model, np.zeros((1, 1, 1)))


def test_predictions_are_pure():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(5, 1))
    y = rng.normal(size=5)
    model = make_gp(
        KernelSpec(kind="squared-exponential", lengthscales=[0.6], signal_variance=1.0),
        X, y, 1e-6,
    )
    Q = rng.uniform(size=(4, 1))
    m1, v1 = gp.predict(model, Q)
    m2, v2 = gp.predict(model, Q)
    assert np.array_equal(m1, m2) and np.array_equal(v1, v2)


def test_dataset_keeps_read_only_copies():
    # editing the caller's arrays after the fit must not move the model
    x = np.array([[0.1], [0.5], [0.9]])
    y = np.array([0.0, 1.0, 0.0])
    model = make_gp(
        KernelSpec(kind="squared-exponential", lengthscales=[0.3], signal_variance=1.0),
        x, y, 1e-8,
    )
    before = gp.predict(model, [[0.5]]), gp.log_marginal_likelihood(model)
    x[1] = 0.2
    y[1] = 5.0
    (m, v), lml = gp.predict(model, [[0.5]]), gp.log_marginal_likelihood(model)
    assert np.array_equal(m, before[0][0]) and np.array_equal(v, before[0][1])
    assert lml == before[1]
    assert m[0] == pytest.approx(1.0, abs=0.01)
    with pytest.raises(ValueError, match="read-only"):
        model.dataset.inputs[1, 0] = 0.2
    with pytest.raises(ValueError, match="read-only"):
        model.dataset.targets[1] = 5.0


def test_variance_shrinks_when_observation_added():
    # adding a noise-free observation at the query cannot raise its variance
    rng = np.random.default_rng(13)
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.5], signal_variance=1.0)
    X = rng.uniform(size=(5, 1))
    y = np.sin(3 * X[:, 0])
    q = np.array([[0.42]])
    before = gp.predict(make_gp(spec, X, y, 0.0), q)[1][0]
    X2 = np.vstack([X, q])
    y2 = np.append(y, 0.123)
    after = gp.predict(make_gp(spec, X2, y2, 0.0), q)[1][0]
    assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def default_init(d=1):
    return KernelSpec(
        kind="squared-exponential", lengthscales=np.full(d, 0.5), signal_variance=1.0
    )


def test_fit_single_point_interpolates():
    data = gp.GPDataset(inputs=[[0.3]], targets=[2.0], noise_variance=0.0)
    model = gp.fit(data, default_init(), restarts=2, rng_seed=0)
    mean, _ = gp.predict(model, [[0.3]])
    assert mean[0] == pytest.approx(2.0, abs=1e-9)


def test_fit_recovers_interpolation_on_gp_draw():
    # data drawn from a known SE-kernel GP with noise std 1e-6; the fitted
    # model must reproduce the targets at the training inputs
    rng = np.random.default_rng(23)
    X = np.linspace(0.0, 1.0, 5)[:, None]
    true = KernelSpec(kind="squared-exponential", lengthscales=[0.25], signal_variance=1.0)
    K = oracle_gram(true, X, X) + 1e-12 * np.eye(5)
    y = np.linalg.cholesky(K) @ rng.standard_normal(5)
    data = gp.GPDataset(inputs=X, targets=y, noise_variance=1e-12)
    model = gp.fit(data, default_init(), restarts=3, rng_seed=1)
    mean, _ = gp.predict(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-6)


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(29)
    X = rng.uniform(size=(6, 1))
    y = np.sin(6 * X[:, 0])
    data = gp.GPDataset(inputs=X, targets=y, noise_variance=1e-8)
    a = gp.fit(data, default_init(), restarts=3, rng_seed=42)
    b = gp.fit(data, default_init(), restarts=3, rng_seed=42)
    assert np.array_equal(a.kernel.lengthscales, b.kernel.lengthscales)
    assert a.kernel.signal_variance == b.kernel.signal_variance


def test_fit_rejects_bad_restarts():
    data = gp.GPDataset(inputs=[[0.0]], targets=[1.0], noise_variance=0.0)
    with pytest.raises(DomainError):
        gp.fit(data, default_init(), restarts=0, rng_seed=0)


def test_factorize_failure_reports_jitter_levels():
    # NaN entries can never factorize; the error carries the attempted levels
    with pytest.raises(ConditioningError):
        gp._factorize(np.full((2, 2), np.nan), 0.0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite: jitter ladder runs out
    with pytest.raises(ConditioningError) as err:
        gp._factorize(bad, 0.0)
    # mean diagonal 1: the ladder runs 1e-10, 1e-9, ... by repeated x10 up to 1e-4
    assert err.value.jitter_levels == (
        1e-10, 1e-09, 1e-08, 1e-07, 1e-06, 9.999999999999999e-06, 9.999999999999999e-05
    )


def test_from_params_raises_on_overflowing_alpha():
    # finite data and a factorizable covariance, but the near-duplicate rows
    # with opposite 1e300 targets overflow the solves: alpha would hold
    # inf and -inf, so the model is refused and the simplex scores it inf
    data = gp.GPDataset(inputs=[[0.0], [1e-9], [1.0]], targets=[1e300, -1e300, 0.0],
                        noise_variance=0.0)
    kernel = KernelSpec(kind="squared-exponential", lengthscales=[0.5], signal_variance=1.0)
    with pytest.raises(ConditioningError, match="not finite"):
        gp.TrainedGP.from_params(data, kernel)
    lo, hi = np.full(2, -10.0), np.full(2, 10.0)
    assert gp._nm_objective(np.log([0.5, 1.0]), data, kernel.kind, lo, hi) == np.inf


# ---------------------------------------------------------------------------
# LAPACK parity: the direct potrf/trtrs calls give the very arrays that
# scipy.linalg's cholesky and solve_triangular give on the same input
# ---------------------------------------------------------------------------

PARITY_SIZES = [1, 2, 5, 16, 32]


def random_spd(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def parity_gp(n, seed):
    rng = np.random.default_rng(seed)
    spec = KernelSpec("matern-5/2", lengthscales=[0.4, 0.7], signal_variance=1.3)
    X = rng.uniform(size=(n, 2))
    return make_gp(spec, X, rng.standard_normal(n), 1e-4), rng


def reference_factor(model):
    K = kernel_matrix(model.kernel, model.dataset.inputs)
    return cholesky(K + model.dataset.noise_variance * np.eye(model.dataset.n), lower=True)


@pytest.mark.parametrize("n", PARITY_SIZES)
def test_factorize_matches_scipy_cholesky(n):
    K = random_spd(n, seed=n)
    L = gp._factorize(K, 0.25)
    assert np.array_equal(L, cholesky(K + 0.25 * np.eye(n), lower=True))
    assert np.array_equal(L, np.tril(L))


@pytest.mark.parametrize("n", PARITY_SIZES)
def test_alpha_matches_scipy_solves(n):
    model, _ = parity_gp(n, seed=10 + n)
    L = reference_factor(model)
    alpha = solve_triangular(
        L.T, solve_triangular(L, model.dataset.targets, lower=True), lower=False
    )
    assert np.array_equal(model.chol_factor, L)
    assert np.array_equal(model.alpha, alpha)


@pytest.mark.parametrize("n", PARITY_SIZES)
@pytest.mark.parametrize("m", [1, 7])
def test_predict_matches_scipy_solves(n, m):
    model, rng = parity_gp(n, seed=20 + n)
    Q = rng.uniform(size=(m, 2))
    mean, var = gp.predict(model, Q)
    k_star = kernel_matrix(model.kernel, model.dataset.inputs, Q)
    v = solve_triangular(reference_factor(model), k_star, lower=True)
    assert np.array_equal(mean, k_star.T @ model.alpha)
    expected_var = model.kernel.signal_variance - np.sum(v**2, axis=0)
    assert np.array_equal(var, np.maximum(expected_var, 0.0))


@pytest.mark.parametrize("n", PARITY_SIZES)
@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("rhs_shape", [(), (3,)], ids=["vector", "matrix"])
def test_solve_lower_matches_solve_triangular(n, trans, rhs_shape):
    L = cholesky(random_spd(n, seed=30 + n), lower=True)
    b = np.random.default_rng(n).standard_normal((n, *rhs_shape))
    if trans:
        expected = solve_triangular(L.T, b, lower=False)
    else:
        expected = solve_triangular(L, b, lower=True)
    assert np.array_equal(gp._solve_lower(L, b, trans=trans), expected)


def test_factorize_near_singular_takes_one_jitter_step():
    K = np.full((3, 3), 2.0)  # rank one: the unjittered factorization fails
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(K, lower=True)
    one_step = gp._JITTER_START * 2.0  # the first rung, scaled by the mean diagonal
    assert np.array_equal(gp._factorize(K, 0.0), cholesky(K + one_step * np.eye(3), lower=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_lower_rejects_non_finite_operands(bad):
    L = cholesky(random_spd(3, seed=3), lower=True)
    b = np.ones(3)
    L_bad, b_bad = L.copy(), b.copy()
    L_bad[1, 0] = bad
    b_bad[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp._solve_lower(L_bad, b)
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp._solve_lower(L, b_bad)


# ---------------------------------------------------------------------------
# Bit-for-bit parity with the plain expressions: the noise and each jitter
# rung added as a multiple of np.eye, the jitter scale computed up front and
# the log-determinant summed with np.sum/np.diag give the same factor, the
# same ladder and the same log marginal likelihood
# ---------------------------------------------------------------------------


def reference_factorize(K, noise_variance):
    """(factor or None, jitter levels tried) by the plain ladder."""
    n = K.shape[0]
    base = K + noise_variance * np.eye(n)
    mean_diag = max(float(np.mean(np.diag(K))), np.finfo(np.float64).tiny)
    attempted = []
    jitter = 0.0
    while True:
        L, info = dpotrf(base + jitter * np.eye(n), lower=1, clean=1)
        if info == 0:
            return L, attempted
        jitter = gp._JITTER_START * mean_diag if jitter == 0.0 else jitter * gp._JITTER_FACTOR
        if jitter > gp._JITTER_STOP * mean_diag:
            return None, attempted
        attempted.append(jitter)


FACTORIZE_CASES = {
    # no jitter needed
    "spd-1": (random_spd(1, seed=41), 0.0),
    "spd-6": (random_spd(6, seed=42), 1e-3),
    "spd-16": (random_spd(16, seed=43), 1e-8),
    # rank one: the first rung factors it
    "one-rung": (np.full((3, 3), 2.0), 0.0),
    # smallest eigenvalue -5e-10 of a unit-diagonal matrix: the second rung, 1e-9, factors it
    "two-rungs": (np.ones((2, 2)) - 5e-10 * np.eye(2), 0.0),
    # the noise lifts the smallest eigenvalue to -5e-10: the second rung again
    "two-rungs-noise": (np.ones((2, 2)) - 6e-10 * np.eye(2), 1e-10),
    # indefinite: the ladder runs out
    "indefinite": (np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-3),
}


@pytest.mark.parametrize("case", sorted(FACTORIZE_CASES))
def test_factorize_matches_plain_ladder(case):
    K, noise = FACTORIZE_CASES[case]
    expected, ladder = reference_factorize(K, noise)
    if expected is None:
        with pytest.raises(ConditioningError) as err:
            gp._factorize(K, noise)
        assert err.value.jitter_levels == tuple(ladder)
        return
    assert len(ladder) == {"one-rung": 1, "two-rungs": 2, "two-rungs-noise": 2}.get(case, 0)
    assert np.array_equal(gp._factorize(K, noise), expected)


@pytest.mark.parametrize("n", [1, 6, 16])
def test_lml_matches_plain_expression(n):
    model, _ = parity_gp(n, seed=50 + n)
    fit_term = -0.5 * float(model.dataset.targets @ model.alpha)
    logdet_term = -float(np.sum(np.log(np.diag(model.chol_factor))))
    expected = fit_term + logdet_term - 0.5 * n * np.log(2.0 * np.pi)
    assert gp.log_marginal_likelihood(model) == expected

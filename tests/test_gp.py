import inspect
import os
import re
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf

from mfdgp import gp, kernels
from mfdgp.errors import ConditioningError, DomainError
from mfdgp.kernels import KernelSpec, _scaled_kernel_matrix, kernel_matrix

# ---------------------------------------------------------------------------
# Independent dense-inverse oracle: explicit kernel formulas, np.linalg.inv
# and slogdet, no shared code with the package's Cholesky path.
# ---------------------------------------------------------------------------


def oracle_kernel(spec, a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    r2 = np.sum((d / spec.lengthscales) ** 2)
    return spec.signal_variance * np.exp(-0.5 * r2)


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
    with pytest.raises(DomainError, match=r"targets length \(2,\) does not match 3 input rows"):
        gp.GPDataset(inputs=np.zeros((3, 1)), targets=np.zeros(2), noise_variance=0.0)
    with pytest.raises(DomainError, match="a GP dataset needs at least one observation"):
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
    spec = KernelSpec(kind="squared-exponential", lengthscales=[0.7], signal_variance=1.3)
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
    with pytest.raises(DomainError, match="input dimension 3 does not match 1 lengthscales"):
        gp.predict(model, np.zeros((2, 3)))
    with pytest.raises(DomainError, match=r"must be an \(n, d\) matrix, got 3 dimensions"):
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
    for cached in (model.chol_factor, model.alpha):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = cached[0]


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


def test_fit_single_point_interpolates():
    data = gp.GPDataset(inputs=[[0.3]], targets=[2.0], noise_variance=0.0)
    model = gp.fit(data, rng_seed=0)
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
    model = gp.fit(data, rng_seed=1)
    mean, _ = gp.predict(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-6)


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(29)
    X = rng.uniform(size=(6, 1))
    y = np.sin(6 * X[:, 0])
    data = gp.GPDataset(inputs=X, targets=y, noise_variance=1e-8)
    a = gp.fit(data, rng_seed=42)
    b = gp.fit(data, rng_seed=42)
    assert np.array_equal(a.kernel.lengthscales, b.kernel.lengthscales)
    assert a.kernel.signal_variance == b.kernel.signal_variance


def test_fit_trains_a_squared_exponential_from_the_data():
    # the only inputs are the data and the seed
    assert list(inspect.signature(gp.fit).parameters) == ["data", "rng_seed"]
    rng = np.random.default_rng(31)
    X = np.column_stack([rng.uniform(size=7), np.full(7, 0.4)])  # the second input is flat
    data = gp.GPDataset(inputs=X, targets=np.cos(4 * X[:, 0]), noise_variance=1e-8)
    model = gp.fit(data, rng_seed=0)
    assert model.kernel.kind == "squared-exponential"
    assert model.kernel.dimension == 2


@pytest.mark.parametrize(
    "inputs, targets",
    [
        # the target variance overflows to inf: the signal-variance bounds are inf
        ([[0.0], [1.0]], [1e200, -1e200]),
        # 1e-3 times the input range underflows to 0: the lower lengthscale bound is -inf
        ([[0.0], [5e-324]], [0.0, 1.0]),
        # the flat dimension's range falls back to 1.0, so the box is finite, but
        # (1e200 / 3)**2 overflows the scaled norms at its longest lengthscale
        ([[1e200, 0.0], [1e200, 1.0]], [0.0, 1.0]),
    ],
    ids=["target-variance-overflows", "input-range-underflows", "scaled-norms-overflow"],
)
def test_fit_refuses_a_box_without_finite_hyperparameters(inputs, targets):
    data = gp.GPDataset(inputs=inputs, targets=targets, noise_variance=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match="hyperparameter box"):
            gp.fit(data, rng_seed=0)
    assert [str(w.message) for w in caught] == []


def test_fit_trains_just_inside_the_scaled_norm_refusal():
    # (1e150 / 3)**2 is finite, so fit trains as it always did: the norms
    # overflow at no vertex, the shortest lengthscale 1e-3 included
    data = gp.GPDataset(inputs=[[1e150, 0.0], [1e150, 1.0]], targets=[0.0, 1.0],
                        noise_variance=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = gp.fit(data, rng_seed=0)
    assert caught == []
    np.testing.assert_allclose(model.kernel.lengthscales,
                               [0.9544002784068483, 0.0010000009946639612], rtol=1e-9)
    assert model.kernel.signal_variance == pytest.approx(48921.55712589221, rel=1e-9)
    assert gp.log_marginal_likelihood(model) == pytest.approx(-51103.591782666284, rel=1e-9)


# Zero noise and a near-duplicate input pair: the Cholesky route's variance
# sv - ||v||^2 falls far below -1e-10 on the query grid, so predict raises.
_CLAMP_GRID = np.linspace(0.0, 1.0, 11)[:, None]


@pytest.mark.parametrize(
    "lengthscale, X, floor",
    [(0.2, [[0.2], [0.2 + 1e-8], [0.5], [0.9]], -1e-3),
     (0.6, [[0.1], [0.1 + 3e-8]], -1e-5)],
    ids=["four-points", "two-points"],
)
def test_predict_raises_when_the_cholesky_variance_is_below_the_clamp(lengthscale, X, floor):
    spec = KernelSpec(kind="squared-exponential", lengthscales=[lengthscale],
                      signal_variance=1.0)
    X = np.array(X)
    model = make_gp(spec, X, np.cos(7 * X[:, 0]), 0.0)
    k_star = kernel_matrix(model.kernel, model.dataset.inputs, _CLAMP_GRID)
    v = gp._trtrs(model.chol_factor, k_star)
    assert (spec.signal_variance - (v**2).sum(axis=0)).min() < floor
    with pytest.raises(ConditioningError, match="below clamp threshold"):
        gp.predict(model, _CLAMP_GRID)


def test_factorize_failure_reports_jitter_levels():
    # NaN entries can never factorize; the message lists the attempted levels
    with pytest.raises(ConditioningError):
        gp._factorize(np.full((2, 2), np.nan), 0.0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite: jitter ladder runs out
    # mean diagonal 1: the ladder runs 1e-10, 1e-9, ... by repeated x10 up to 1e-4
    attempted = [
        1e-10, 1e-09, 1e-08, 1e-07, 1e-06, 9.999999999999999e-06, 9.999999999999999e-05
    ]
    with pytest.raises(ConditioningError, match=re.escape(f"(attempted {attempted})")):
        gp._factorize(bad, 0.0)


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
    assert gp._negative_lml(data, lo, hi)([np.log([0.5, 1.0])])[0] == np.inf


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
    spec = KernelSpec("squared-exponential", lengthscales=[0.4, 0.7], signal_variance=1.3)
    X = rng.uniform(size=(n, 2))
    return make_gp(spec, X, rng.standard_normal(n), 1e-4), rng


def reference_factor(model):
    K = kernel_matrix(model.kernel, model.dataset.inputs)
    n = model.dataset.inputs.shape[0]
    return cholesky(K + model.dataset.noise_variance * np.eye(n), lower=True)


_WRAPPER_SCRIPT = """
import sys
{first}
import scipy.linalg.lapack
from mfdgp import gp
assert gp.dpotrf is scipy.linalg.lapack.dpotrf
assert gp.dtrtrs is scipy.linalg.lapack.dtrtrs
data = gp.GPDataset(inputs=[[0.1, 0.7], [0.4, 0.2], [0.9, 0.5]],
                    targets=[0.3, -1.2, 0.8], noise_variance=1e-6)
model = gp.fit(data, rng_seed=5)
print(model.kernel.lengthscales.tobytes().hex(), model.kernel.signal_variance.hex())
"""


def test_lapack_wrappers_are_scipys_in_either_import_order():
    # gp loads scipy's compiled LAPACK module by path; scipy.linalg, imported
    # after it or before it (perfbench's order), exports the same functions
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fits = []
    for first in ("from mfdgp import gp", "import scipy.linalg"):
        proc = subprocess.run([sys.executable, "-c", _WRAPPER_SCRIPT.format(first=first)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        fits.append(proc.stdout.split())
    assert fits[0] == fits[1]
    assert len(fits[0]) == 2


def test_a_missing_lapack_module_raises_import_error_naming_the_path(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, gp._FLAPACK)
    monkeypatch.setattr(gp.scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError) as raised:
        gp._lapack_wrappers()
    assert str(tmp_path / "scipy" / "linalg" / "_flapack") in str(raised.value)


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
    # trans=0 is predict's solve and _alpha's first, L x = b; trans=1 is
    # _alpha's second, L.T x = b
    L = cholesky(random_spd(n, seed=30 + n), lower=True)
    b = np.random.default_rng(n).standard_normal((n, *rhs_shape))
    if trans:
        expected = solve_triangular(L.T, b, lower=False)
    else:
        expected = solve_triangular(L, b, lower=True)
    assert np.array_equal(gp._trtrs(L, b, trans=trans), expected)


def test_factorize_near_singular_takes_one_jitter_step():
    K = np.full((3, 3), 2.0)  # rank one: the unjittered factorization fails
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(K, lower=True)
    one_step = gp._JITTER_START * 2.0  # the first rung, scaled by the mean diagonal
    assert np.array_equal(gp._factorize(K, 0.0), cholesky(K + one_step * np.eye(3), lower=True))


@pytest.mark.parametrize(
    "row, lengthscale, query",
    [(1e153, 1.0, 1e156), (0.5, 0.5, 1e308)],
    ids=["distance-overflows", "scaled-query-overflows"],
)
def test_predict_refuses_a_non_finite_cross_covariance(row, lengthscale, query):
    # finite data and a finite query whose squared norm, or whose value over
    # the lengthscale, overflows to inf: the expanded squared distance is
    # inf - inf, a nan in k_star that no dataset or input check sees;
    # predict refuses it, without a warning
    model = make_gp(KernelSpec("squared-exponential", [lengthscale], 1.0),
                    np.array([[row]]), np.array([1.0]), 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(kernel_matrix(model.kernel, model.dataset.inputs, [[query]])).all()
        with pytest.raises(ConditioningError, match="not finite"):
            gp.predict(model, [[query]])


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
        with pytest.raises(ConditioningError, match=re.escape(f"(attempted {ladder})")):
            gp._factorize(K, noise)
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


# ---------------------------------------------------------------------------
# The Nelder-Mead objective runs the trusted cores alone. Reference: the
# objective it replaced, which built and checked a KernelSpec and a
# TrainedGP through the public entries at every vertex. The two must give
# the very same value, or both inf, and drive fit to the very same model.
# ---------------------------------------------------------------------------


def reference_nm_objective(log_params, data, lo, hi):
    if (log_params < lo).any() or (log_params > hi).any():
        return np.inf
    ls = np.exp(log_params[:-1])
    sv = float(np.exp(log_params[-1]))
    try:
        kernel = KernelSpec(kind="squared-exponential", lengthscales=ls, signal_variance=sv)
        return -gp.log_marginal_likelihood(gp.TrainedGP.from_params(data, kernel))
    except ConditioningError:
        return np.inf


def search_setup(data, rng):
    """``gp._search_setup``, also for data whose scaled input norms it refuses.

    The box and the starts depend on the input ranges and the targets
    alone, so for such data (flat-huge) they are those of the same inputs
    moved to the origin. flat-huge exists to drive the objective and the
    simplex into overflow at every vertex.
    """
    try:
        return gp._search_setup(data, rng)
    except DomainError as exc:
        if "scaled input norms" not in str(exc):
            raise
    moved = gp.GPDataset(inputs=data.inputs - data.inputs.min(axis=0), targets=data.targets,
                         noise_variance=data.noise_variance)
    assert np.array_equal(np.ptp(moved.inputs, axis=0), np.ptp(data.inputs, axis=0))
    return gp._search_setup(moved, rng)


def objective_box(data):
    lo, hi, _ = search_setup(data, np.random.default_rng(0))
    return lo, hi


def box_vertices(lo, hi, rng, spread=24):
    """Vertices spread over the box, its corners, and vertices just outside it."""
    k = lo.size
    inside = [lo + rng.uniform(size=k) * (hi - lo) for _ in range(spread)]
    corners = [np.where(rng.uniform(size=k) < 0.5, lo, hi) for _ in range(8)]
    corners += [lo.copy(), hi.copy()]
    outside = []
    for _ in range(6):
        v = lo + rng.uniform(size=k) * (hi - lo)
        j = rng.integers(k)
        v[j] = lo[j] - 1e-9 if rng.uniform() < 0.5 else hi[j] + 1e-9
        outside.append(v)
    return inside + corners + outside


def random_se_data(rng):
    n, d = int(rng.integers(1, 17)), int(rng.integers(1, 6))
    x = rng.uniform(-2.0, 3.0, size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = rng.normal(size=n) * rng.uniform(0.1, 5.0) + rng.normal()
    return gp.GPDataset(inputs=x, targets=y, noise_variance=float(rng.choice([0.0, 1e-8, 1e-3])))


def special_data():
    x = np.array([[0.2], [0.2 + 1e-9], [0.5], [0.5 + 1e-10], [0.9]])
    rng = np.random.default_rng(71)
    flat = np.column_stack([rng.uniform(size=6), np.full(6, 0.4), rng.uniform(size=6)])
    return {
        # zero noise and near-duplicate rows: long lengthscales need the jitter ladder
        "near-duplicates": gp.GPDataset(inputs=x, targets=np.cos(5 * x[:, 0]),
                                        noise_variance=0.0),
        # a flat second dimension: its range falls back to 1.0
        "flat-dimension": gp.GPDataset(inputs=flat, targets=np.sin(3 * flat[:, 0]),
                                       noise_variance=1e-8),
        # the case of test_from_params_raises_on_overflowing_alpha
        "overflowing-alpha": gp.GPDataset(inputs=[[0.0], [1e-9], [1.0]],
                                          targets=[1e300, -1e300, 0.0], noise_variance=0.0),
        # a flat dimension at 1e200: (x / ls)**2 overflows the covariance at every vertex
        "flat-huge": gp.GPDataset(inputs=[[1e200, 0.0], [1e200, 1.0]], targets=[0.0, 1.0],
                                  noise_variance=0.0),
        # one row, scored by the objective's closed form: zero noise
        "one-row-noise-0": gp.GPDataset(inputs=[[0.3, -1.2]], targets=[0.7],
                                        noise_variance=0.0),
        # one row: y * alpha overflows at every vertex, and alpha itself at signal
        # variances below about 5.6e-9, which only scoring_box's box reaches
        "one-row-overflowing-alpha": gp.GPDataset(inputs=[[0.4]], targets=[1e300],
                                                  noise_variance=0.0),
        # one row at 1e200: the covariance is not finite at any vertex
        "one-row-flat-huge": gp.GPDataset(inputs=[[1e200, 0.3]], targets=[1.0],
                                          noise_variance=1e-8),
    }


# corpus cases that overflow on the way to their scores
OVERFLOWING = {"overflowing-alpha", "flat-huge", "one-row-overflowing-alpha",
               "one-row-flat-huge", "overflow-mix"}


def scoring_box(name, data):
    """The box whose vertices a corpus test scores: the fit's, or one that reaches alpha's check.

    fit refuses overflowing-alpha's targets' box, so its vertices come from
    test_from_params_raises_on_overflowing_alpha's box. The fit's box keeps
    one-row-overflowing-alpha's signal variance at 1e-8 and up, where alpha
    is still finite.
    """
    if name == "overflowing-alpha":
        return np.full(2, -10.0), np.full(2, 10.0)
    if name == "one-row-overflowing-alpha":
        return np.array([-10.0, -40.0]), np.array([10.0, 10.0])
    return objective_box(data)


def parity_corpus():
    rng = np.random.default_rng(2024)
    cases = [(f"random-{i}", random_se_data(rng)) for i in range(48)]
    return cases + sorted(special_data().items()), rng


def test_objective_matches_the_checked_reference_on_a_corpus():
    cases, rng = parity_corpus()
    scored = inf_inside = one_row_scored = 0
    for name, data in cases:
        lo, hi = scoring_box(name, data)
        objective = gp._negative_lml(data, lo, hi)
        vertices = box_vertices(lo, hi, rng)
        if name == "overflowing-alpha":
            vertices.append(np.log([0.5, 1.0]))
        # both objectives overflow on the way at many of these vertices
        quiet = name in OVERFLOWING
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            scores = [(reference_nm_objective(v, data, lo, hi), objective([v])[0])
                      for v in vertices]
        for v, (expected, got) in zip(vertices, scores):
            assert got == expected or (np.isnan(got) and np.isnan(expected)), (name, v)
            inside = bool(np.all((lo <= v) & (v <= hi)))
            scored += np.isfinite(expected)
            inf_inside += inside and expected == np.inf
            # the one-row closed form, checked against LAPACK's 1 x 1 potrf and trtrs
            one_row_scored += data.inputs.shape[0] == 1 and np.isfinite(expected)
    assert scored > 1500  # most vertices are scored, not refused
    assert inf_inside > 0  # and some in-box vertices fail to factorize or overflow
    assert one_row_scored > 0


def overflow_mix_data():
    """A flat dimension at 3e152: in-box vertices both score and overflow.

    Its range falls back to 1.0, so the box's lengthscales run from 1e-3 to
    3. At the longest ones the scaled norms are about 1e304; below about
    0.03 they or their pairwise sums overflow, and the covariance is not
    finite.
    """
    return gp.GPDataset(inputs=[[3e152, 0.0], [3e152, 0.5], [3e152, 1.0]],
                        targets=[0.0, 1.0, 0.5], noise_variance=1e-8)


def test_a_vertex_scores_the_same_alone_and_in_any_batch(monkeypatch):
    # the objective builds a round's covariances as one batch: one vertex's
    # refusal, ladder, overflow or blown alpha must not move another's score
    ladders = []
    factorize = gp._factorize

    def counted_factorize(K, noise_variance):
        ladders.append(K.shape)
        return factorize(K, noise_variance)

    monkeypatch.setattr(gp, "_factorize", counted_factorize)
    cases, rng = parity_corpus()
    cases.append(("overflow-mix", overflow_mix_data()))
    mixed = {"out-of-box": 0, "ladder": 0, "in-box inf": 0}
    for name, data in cases:
        lo, hi = scoring_box(name, data)
        objective = gp._negative_lml(data, lo, hi)
        vertices = [v.tolist() for v in box_vertices(lo, hi, rng)]
        if name == "overflowing-alpha":
            vertices.append(np.log([0.5, 1.0]).tolist())
        quiet = name in OVERFLOWING
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            expected = [reference_nm_objective(np.array(v), data, lo, hi) for v in vertices]
            alone = [objective([v])[0] for v in vertices]
            del ladders[:]
            batch = objective(vertices)
            batch_ladders = len(ladders)
            backwards = objective(vertices[::-1])[::-1]
        for scores in (alone, batch, backwards):
            assert np.array(scores).tobytes() == np.array(expected).tobytes(), name
        # what this batch mixes with finite scores
        if np.isfinite(expected).any():
            inside = [bool(np.all((lo <= v) & (v <= hi))) for v in np.array(vertices)]
            mixed["out-of-box"] += not all(inside)
            mixed["ladder"] += batch_ladders > 0
            mixed["in-box inf"] += any(i and e == np.inf for i, e in zip(inside, expected))
    assert min(mixed.values()) > 0, mixed


def test_a_one_row_covariance_of_zero_takes_the_jitter_ladder(monkeypatch):
    # potrf refuses a 1 x 1 matrix of 0, which noise 0 and a covariance that
    # underflows to 0 give; such vertices leave the closed form for the
    # ladder. Whether a one-row covariance underflows depends on the
    # platform's rounding of the squared distance, so the covariance is set
    # to 0 here, in the objective and in the reference alike
    def zero_covariance(signal_variance, xa, xb=None):
        return np.zeros(xa.shape[:-1] + xa.shape[-2:-1])

    monkeypatch.setattr(gp, "_scaled_kernel_matrix", zero_covariance)
    monkeypatch.setattr(kernels, "_scaled_kernel_matrix", zero_covariance)
    ladders = []
    factorize = gp._factorize

    def counted_factorize(K, noise_variance):
        ladders.append(K.shape)
        return factorize(K, noise_variance)

    monkeypatch.setattr(gp, "_factorize", counted_factorize)
    finite = 0
    # target 0 keeps alpha finite at the jittered factor; 0.5 overflows it
    for target in (0.0, 0.5):
        data = gp.GPDataset(inputs=[[0.3, -1.2]], targets=[target], noise_variance=0.0)
        lo, hi = objective_box(data)
        objective = gp._negative_lml(data, lo, hi)
        vertices = [v.tolist() for v in box_vertices(lo, hi, np.random.default_rng(5))]
        expected = [reference_nm_objective(np.array(v), data, lo, hi) for v in vertices]
        del ladders[:]
        got = objective(vertices)
        assert np.array(got).tobytes() == np.array(expected).tobytes(), target
        inside = sum(bool(np.all((lo <= v) & (v <= hi))) for v in np.array(vertices))
        assert len(ladders) == inside > 0
        finite += np.isfinite(got).sum()
    assert finite > 0


def test_corpus_reaches_each_check_the_objective_keeps():
    data = special_data()
    # the jitter ladder: at the longest lengthscales the unjittered covariance
    # is not positive definite, and the objective still scores the vertex
    near = data["near-duplicates"]
    lo, hi = objective_box(near)
    K = kernel_matrix(KernelSpec("squared-exponential", np.exp(hi[:-1]), 1.0), near.inputs)
    assert dpotrf(K, lower=1)[1] > 0
    assert np.isfinite(gp._negative_lml(near, lo, hi)([hi])[0])
    # _factorize's finite scan: the flat huge dimension overflows the covariance
    huge = data["flat-huge"]
    lo, hi = objective_box(huge)
    with np.errstate(over="ignore", invalid="ignore"):
        K = _scaled_kernel_matrix(1.0, huge.inputs / np.exp(hi[:-1]))
        assert gp._negative_lml(huge, lo, hi)([hi])[0] == np.inf
    with pytest.raises(ConditioningError, match="non-finite"):
        gp._factorize(K, 0.0)
    # the alpha scan: the solves overflow
    blown = data["overflowing-alpha"]
    K = kernel_matrix(KernelSpec("squared-exponential", [0.5], 1.0), blown.inputs)
    with pytest.raises(ConditioningError, match="not finite"):
        gp._alpha(gp._factorize(K, 0.0), blown.targets)


def test_first_start_tells_a_unit_range_from_a_flat_dimension():
    # the first dimension spans exactly [0, 1], so its range 1.0 equals the
    # flat fallback: its lengthscale starts at 0.5 of it, the flat one's at 1.0
    data = gp.GPDataset(inputs=[[0.0, 2.0], [0.25, 2.0], [1.0, 2.0]], targets=[0.0, 1.0, 3.0],
                        noise_variance=1e-8)
    tv = float(np.var(data.targets))
    _, _, starts = gp._search_setup(data, np.random.default_rng(0))
    assert starts[0] == np.log([0.5, 1.0, tv]).tolist()
    assert len(starts) == gp._RESTARTS == 4
    assert all(type(p) is float for start in starts for p in start)


def test_every_restart_start_lies_inside_the_box():
    # fit runs the simplex from each start as drawn, so each must sit
    # strictly inside the box, 1e-6 clear of both bounds; five fits' draws
    # give each case 15 random starts besides the data-scaled one
    cases, _ = parity_corpus()
    cases.append(("one-point", gp.GPDataset(inputs=[[0.3, -2.0]], targets=[1.5],
                                            noise_variance=1e-8)))
    assert any(data.inputs.shape[0] == 1 for _, data in cases)
    for name, data in cases:
        if name == "overflowing-alpha":
            continue  # fit refuses this box before it draws a start
        rng = np.random.default_rng(7)
        for _ in range(5):
            lo, hi, starts = search_setup(data, rng)
            for start in starts:
                assert np.all((lo + 1e-6 < start) & (start < hi - 1e-6)), (name, start)


FIT_PARITY_SEEDS = [3, 5, 8, 13, 21, 34]


@pytest.mark.parametrize("seed", FIT_PARITY_SEEDS)
def test_fit_matches_a_fit_driven_by_the_reference_objective(seed, monkeypatch):
    data = random_se_data(np.random.default_rng(seed))
    model = gp.fit(data, rng_seed=seed)
    monkeypatch.setattr(
        gp, "_negative_lml",
        # the reference scores each vertex of a round, as the array it used to take
        lambda data, lo, hi: lambda vertices: [
            reference_nm_objective(np.array(v), data, lo, hi) for v in vertices
        ],
    )
    reference = gp.fit(data, rng_seed=seed)
    assert np.array_equal(model.kernel.lengthscales, reference.kernel.lengthscales)
    assert model.kernel.signal_variance == reference.kernel.signal_variance
    assert np.array_equal(model.chol_factor, reference.chol_factor)
    assert np.array_equal(model.alpha, reference.alpha)


def first_best(results):
    """The one-start result a fit keeps: the first whose value is lowest below ``inf``."""
    best, best_fun = results[0], np.inf
    for res in results:
        if res.fun < best_fun:
            best, best_fun = res, res.fun
    return best


def test_lock_step_restarts_equal_their_one_start_runs():
    cases, _ = parity_corpus()
    cases.append(("one-point", gp.GPDataset(inputs=[[0.3, -2.0]], targets=[1.5],
                                            noise_variance=1e-8)))
    staggered = not_first = 0
    for name, data in cases:
        if name == "overflowing-alpha":
            continue  # fit refuses this box before it draws a start
        lo, hi, starts = search_setup(data, np.random.default_rng(7))
        objective = gp._negative_lml(data, lo, hi)
        quiet = name in OVERFLOWING
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            together = gp.minimize(objective, starts)
            alone = [gp.minimize(objective, [start]) for start in starts]
        best = first_best(alone)
        assert together.x.tobytes() == best.x.tobytes(), name
        assert np.float64(together.fun).tobytes() == np.float64(best.fun).tobytes(), name
        assert together.nfev == sum(res.nfev for res in alone), name
        # restarts that score different vertex counts stop on different rounds
        staggered += len({res.nfev for res in alone}) > 1
        not_first += best is not alone[0]
    assert staggered > 40 and not_first > 0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the restart helper is forked")


def visible_cpus(monkeypatch, count):
    """Make gp.restart_helper see ``count`` CPUs: two or more fork the helper, one does not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@needs_fork
def test_minimize_with_the_restart_helper_gives_the_in_process_bytes(monkeypatch):
    visible_cpus(monkeypatch, 2)
    cases, _ = parity_corpus()
    cases.append(("one-point", gp.GPDataset(inputs=[[0.3, -2.0]], targets=[1.5],
                                            noise_variance=1e-8)))
    for name, data in cases:
        if name == "overflowing-alpha":
            continue  # fit refuses this box before it draws a start
        lo, hi, starts = search_setup(data, np.random.default_rng(7))
        objective = gp._negative_lml(data, lo, hi)
        quiet = name in OVERFLOWING
        # the helper keeps the error state it was forked in
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            with gp.restart_helper() as helper:
                assert helper is not None
                split = gp.minimize(objective, starts, helper)
                alone = gp.minimize(objective, starts)
        assert helper.pid is None  # reaped when its block ended
        assert split.x.tobytes() == alone.x.tobytes(), name
        assert np.float64(split.fun).tobytes() == np.float64(alone.fun).tobytes(), name
        assert split.nfev == alone.nfev, name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_restart_helper_forks_nothing_on_one_cpu(monkeypatch):
    visible_cpus(monkeypatch, 1)
    with gp.restart_helper() as helper:
        assert helper is None


def test_fit_raises_when_every_vertex_scores_inf():
    # a flat dimension at 3e154: the scaled norms are finite at the box's
    # longest lengthscales, so the box is accepted, but from 1e308 up their
    # pairwise sums overflow and no covariance in the box is finite
    data = gp.GPDataset(inputs=[[3e154, 0.0], [3e154, 1.0]], targets=[0.0, 1.0],
                        noise_variance=0.0)
    lo, hi, starts = gp._search_setup(data, np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"):
        res = gp.minimize(gp._negative_lml(data, lo, hi), starts)
        assert res.fun == np.inf and res.nfev > len(starts) * len(starts[0])
        with pytest.raises(ConditioningError, match="no restart produced a finite"):
            gp.fit(data, rng_seed=0)


# ---------------------------------------------------------------------------
# gp.minimize takes scipy's Nelder-Mead steps bit for bit. Oracle: scipy's
# own Nelder-Mead, imported here alone; the package does not import it.
# ---------------------------------------------------------------------------


def test_minimize_matches_scipy_nelder_mead_bit_for_bit():
    from scipy.optimize import minimize as scipy_minimize

    cases, _ = parity_corpus()
    cases.append(("one-point", gp.GPDataset(inputs=[[0.3, -2.0]], targets=[1.5],
                                            noise_variance=1e-8)))
    stops = {"maxiter": set(), "converged": set()}
    out_of_box = 0
    for name, data in cases:
        if name == "overflowing-alpha":
            continue  # fit refuses this box before it draws a start
        lo, hi, starts = search_setup(data, np.random.default_rng(7))
        objective = gp._negative_lml(data, lo, hi)
        scores = {}  # both runs score the same vertices, so each is computed once

        def scored(v):
            key = np.asarray(v).tobytes()
            if key not in scores:
                scores[key] = objective([v])[0]
            return scores[key]

        def scored_round(vertices):
            return [scored(v) for v in vertices]

        quiet = name in OVERFLOWING
        for start in starts:
            # one observation: the signal-variance start is log 1 = 0, scipy's 0.00025 branch
            assert name != "one-point" or start[-1] == 0
            with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
                got = gp.minimize(scored_round, [start])
                expected = scipy_minimize(
                    scored, start, method="Nelder-Mead",
                    options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400 * len(start)},
                )
            assert np.array_equal(got.x, expected.x), (name, start)
            assert got.fun == expected.fun and got.nfev == expected.nfev, (name, start)
            stops["maxiter" if expected.status == 2 else "converged"].add(name)
        vertices = np.frombuffer(b"".join(scores), dtype=np.float64).reshape(-1, lo.size)
        out_of_box += int(((vertices < lo) | (vertices > hi)).any(axis=1).sum())
    assert {"flat-huge", "near-duplicates"} <= stops["maxiter"]
    assert len(stops["converged"]) > 40
    assert out_of_box > 0


def test_simplex_reorder_reaches_the_bisection_and_the_tie_fallback(monkeypatch):
    # a round that replaces the worst vertex bisects the new value into the
    # sorted others, unless it ties one of them, two of them tie, or a value
    # is nan; then _argsort (np.argsort on ties) sorts the whole simplex, as
    # after the first simplex and a shrink. The corpus reaches the bisection
    # and both kinds of tie
    events = []
    bisect_left, argsort = gp.bisect_left, gp._argsort

    def counted_bisect_left(values, value, lo, hi):
        events.append(("bisect", None))
        return bisect_left(values, value, lo, hi)

    def counted_argsort(values):
        events.append(("argsort", list(values)))
        return argsort(values)

    monkeypatch.setattr(gp, "bisect_left", counted_bisect_left)
    monkeypatch.setattr(gp, "_argsort", counted_argsort)
    cases, _ = parity_corpus()
    cases.append(("one-point", gp.GPDataset(inputs=[[0.3, -2.0]], targets=[1.5],
                                            noise_variance=1e-8)))
    counts = {"bisected": 0, "new value ties": 0, "others tie": 0}
    all_inf_sorts = set()
    for name, data in cases:
        if name == "overflowing-alpha":
            continue  # fit refuses this box before it draws a start
        lo, hi, starts = search_setup(data, np.random.default_rng(7))
        quiet = name in OVERFLOWING
        objective = gp._negative_lml(data, lo, hi)

        def logged(vertices):
            # every iteration scores a vertex before it reorders
            events.append(("round", None))
            return objective(vertices)

        for start in starts:
            del events[:]
            with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
                gp.minimize(logged, [start])
            for (kind, _), (next_kind, values) in zip(events, events[1:] + [("end", None)]):
                if kind != "bisect":
                    continue
                if next_kind != "argsort":
                    counts["bisected"] += 1
                elif values[-1] in values[:-1]:
                    counts["new value ties"] += 1
                elif len(set(values[:-1])) < len(values) - 1:
                    counts["others tie"] += 1
            if any(kind == "argsort" and all(v == np.inf for v in values)
                   for kind, values in events):
                all_inf_sorts.add(name)
    assert min(counts.values()) > 0, counts
    assert "flat-huge" in all_inf_sorts

"""Exact Gaussian process regression.

A :class:`TrainedGP` bundles a dataset, a kernel and the cached Cholesky
factorization of ``K + noise * I``; prediction and the log marginal
likelihood both reuse that factorization. Hyperparameters are trained by
maximizing the log marginal likelihood with a derivative-free simplex
search in log-parameter space, from a data-scaled start and then
scale-aware random ones. Training always fits a squared-exponential
kernel; a Matérn-5/2 :class:`~mfdgp.kernels.KernelSpec` can still be
factorized and predicted from with :meth:`TrainedGP.from_params`.

The factorization and the triangular solves call LAPACK ``potrf`` and
``trtrs`` directly: on the 1-32 row matrices the training loop builds,
scipy's general wrappers cost many times the LAPACK work.

Where each check lives:

* :class:`GPDataset`: input rank, target length, at least one row, finite
  inputs and targets, a finite noise variance >= 0. It keeps read-only
  copies of the arrays, so a checked dataset cannot change under a model.
* :class:`~mfdgp.kernels.KernelSpec`: the kernel kind, 1-D finite positive
  lengthscales, a finite positive signal variance.
* ``kernels._scaled``: kernel inputs are finite (n, d) matrices whose d
  matches the lengthscales.
* :meth:`TrainedGP.from_params` and :func:`predict`: the kernel, data and
  query dimensions agree.
* :func:`_factorize`: the covariance is finite; the jitter ladder.
* :func:`_solve_lower`: both operands of a ``predict`` solve are finite.
* :func:`_trtrs`: LAPACK reports no zero pivot or illegal argument.
* :meth:`TrainedGP.from_params` scans only alpha: its factor comes from a
  successful ``potrf`` on a matrix :func:`_factorize` checked finite and its
  targets from a checked dataset, so overflow can only appear in the solves,
  and a non-finite alpha raises :class:`~mfdgp.errors.ConditioningError`.
* :func:`_nm_objective`: the simplex vertex lies inside the box.

A likelihood evaluation (:func:`_nm_objective`) does no work beyond its
arithmetic and these checks: arrays that already are float64 pass
through without conversion, each row's squared norm is computed once,
the kernel matrix is finished in place, the noise goes onto the diagonal
of one copy, and the jitter scale is computed only after a failed
factorization. It calls ``kernel_matrix``, ``TrainedGP.from_params`` and
``log_marginal_likelihood`` through their module and class attributes, so
a wrapper put on those attributes sees every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.optimize import minimize

from .errors import ConditioningError, DomainError, InsufficientDataError, ShapeError
from .kernels import SQUARED_EXPONENTIAL, KernelSpec, as_float_array, kernel_matrix

# Jitter escalation ladder: fractions of the mean diagonal of K, tried in
# order until the Cholesky succeeds.
_JITTER_START = 1e-10
_JITTER_STOP = 1e-4
_JITTER_FACTOR = 10.0

# Predictive variances in [-VAR_CLAMP, 0) are rounding noise and clamped to 0;
# anything below -VAR_CLAMP indicates real conditioning trouble.
_VAR_CLAMP = 1e-10

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GPDataset:
    """Inputs (n, d), targets (n,) and a fixed observation noise variance; read-only copies."""

    inputs: np.ndarray
    targets: np.ndarray
    noise_variance: float

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.inputs, dtype=np.float64))
        y = np.atleast_1d(np.array(self.targets, dtype=np.float64))
        if x.ndim != 2:
            raise ShapeError("inputs must be an (n, d) matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ShapeError(f"targets length {y.shape} does not match {x.shape[0]} input rows")
        if x.shape[0] < 1:
            raise InsufficientDataError("a GP dataset needs at least one observation")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DomainError("inputs and targets must be finite")
        nv = float(self.noise_variance)
        if not np.isfinite(nv) or nv < 0:
            raise DomainError("noise_variance must be finite and >= 0")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "noise_variance", nv)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class TrainedGP:
    """An exact GP posterior with cached factorization.

    ``chol_factor`` is the lower Cholesky factor of ``K + noise * I`` and
    ``alpha`` solves ``(K + noise * I) alpha = targets``. Instances are
    immutable; every operation on one is pure.
    """

    dataset: GPDataset
    kernel: KernelSpec
    chol_factor: np.ndarray
    alpha: np.ndarray

    @classmethod
    def from_params(cls, dataset: GPDataset, kernel: KernelSpec) -> "TrainedGP":
        """Build the cached factorization for fixed hyperparameters."""
        if kernel.dimension != dataset.dimension:
            raise ShapeError(
                f"kernel dimension {kernel.dimension} != data dimension {dataset.dimension}"
            )
        K = kernel_matrix(kernel, dataset.inputs)
        L = _factorize(K, dataset.noise_variance)
        alpha = _trtrs(L, _trtrs(L, dataset.targets), trans=1)
        if not np.isfinite(alpha).all():
            raise ConditioningError("alpha = (K + noise * I)^-1 targets is not finite")
        return cls(dataset=dataset, kernel=kernel, chol_factor=L, alpha=alpha)


def _plus_diagonal(A: np.ndarray, value: float) -> np.ndarray:
    """A copy of the square matrix ``A`` with ``value`` added to its diagonal."""
    out = A.copy()
    out.reshape(-1)[:: out.shape[0] + 1] += value
    return out


def _factorize(K: np.ndarray, noise_variance: float) -> np.ndarray:
    """Lower Cholesky of K + noise * I, escalating jitter on failure."""
    base = _plus_diagonal(K, noise_variance)
    if not np.isfinite(base).all():
        raise ConditioningError("covariance matrix contains non-finite entries")
    attempted = []
    L, info = dpotrf(base, lower=1, clean=1)
    while info != 0:
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
        # info > 0: a leading minor is not positive definite, so add jitter
        if attempted:
            jitter *= _JITTER_FACTOR
        else:
            mean_diag = max(float(np.mean(np.diag(K))), np.finfo(np.float64).tiny)
            jitter = _JITTER_START * mean_diag
        if jitter > _JITTER_STOP * mean_diag:
            raise ConditioningError(
                f"Cholesky failed after jitter escalation (attempted {attempted})",
                jitter_levels=attempted,
            )
        attempted.append(jitter)
        L, info = dpotrf(_plus_diagonal(base, jitter), lower=1, clean=1)
    return L


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve ``L x = b`` (``trans=1``: ``L.T x = b``) for lower-triangular ``L``."""
    if not (np.isfinite(L).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    return _trtrs(L, b, trans)


def _trtrs(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """LAPACK ``trtrs`` for lower-triangular ``L``, unchecked operands, checked ``info``."""
    x, info = dtrtrs(L, b, lower=1, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero diagonal at row {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK trtrs")
    return x


def log_marginal_likelihood(gp: TrainedGP) -> float:
    """log p(y | X, kernel) from the cached factorization."""
    fit_term = -0.5 * float(gp.dataset.targets @ gp.alpha)
    logdet_term = -float(np.log(gp.chol_factor.diagonal()).sum())
    return fit_term + logdet_term - 0.5 * gp.dataset.n * _LOG_2PI


def predict(gp: TrainedGP, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (noise-free) variance at the query rows.

    Returns
    -------
    mean, variance : ndarray, shape (m,)
        Variances are clamped to >= 0; values below -1e-10 that survive a
        truncated-spectral recomputation raise a conditioning error rather
        than being silently repaired.
    """
    X = as_float_array(queries, 2)
    if X.shape[1] != gp.dataset.dimension:
        raise ShapeError(
            f"query dimension {X.shape[1]} != training dimension {gp.dataset.dimension}"
        )
    k_star = kernel_matrix(gp.kernel, gp.dataset.inputs, X)
    mean = k_star.T @ gp.alpha
    v = _solve_lower(gp.chol_factor, k_star)
    variance = gp.kernel.signal_variance - (v**2).sum(axis=0)
    low = float(variance.min()) if variance.size else 0.0
    if low < -_VAR_CLAMP:
        variance = _spectral_variance(gp, k_star)
        low = float(np.min(variance))
        if low < -_VAR_CLAMP:
            raise ConditioningError(f"predictive variance {low} below clamp threshold")
    return mean, np.maximum(variance, 0.0, out=variance)


def _spectral_variance(gp: TrainedGP, k_star: np.ndarray) -> np.ndarray:
    """Quadratic-form variance via a truncated eigendecomposition.

    On severely ill-conditioned systems the Cholesky route loses enough
    precision for sv - ||v||^2 to dip visibly negative. Discarding
    eigenvalues below machine precision times the largest (a truncated
    pseudo-inverse) never overshoots the quadratic form, so the result is
    nonnegative up to rounding.
    """
    K = kernel_matrix(gp.kernel, gp.dataset.inputs)
    A = K + gp.dataset.noise_variance * np.eye(K.shape[0])
    w, u = np.linalg.eigh(0.5 * (A + A.T))
    cutoff = np.finfo(np.float64).eps * float(np.max(w)) * K.shape[0]
    keep = w > cutoff
    proj = u[:, keep].T @ k_star
    quad = np.sum(proj**2 / w[keep, None], axis=0)
    return gp.kernel.signal_variance - quad


def _data_scales(data: GPDataset) -> tuple[np.ndarray, float]:
    """Per-dimension input range (1.0 if flat) and target variance (1.0 if constant)."""
    ranges = np.ptp(data.inputs, axis=0)
    tv = float(np.var(data.targets))
    return np.where(ranges > 0, ranges, 1.0), (tv if tv > 0 else 1.0)


def _param_bounds(ranges: np.ndarray, tv: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-space hyperparameter box, scaled to the data.

    Lengthscales are confined to [1e-3, 3] times the per-dimension input
    range and the signal variance to [1e-8, 1e6] times the target variance.
    Flat likelihood directions (irrelevant inputs, perfectly dependent
    targets) otherwise let the simplex drift to scales that destroy both
    the conditioning of downstream predictions and every exploration
    signal: beyond a few input ranges a stationary kernel is
    indistinguishable from a trend, but its posterior variance collapses.
    """
    lo = np.log(np.concatenate([1e-3 * ranges, [1e-8 * tv]]))
    hi = np.log(np.concatenate([3.0 * ranges, [1e6 * tv]]))
    return lo, hi


def _nm_objective(log_params, data: GPDataset, lo, hi) -> float:
    if (log_params < lo).any() or (log_params > hi).any():
        return np.inf
    ls = np.exp(log_params[:-1])
    sv = float(np.exp(log_params[-1]))
    try:
        kernel = KernelSpec(kind=SQUARED_EXPONENTIAL, lengthscales=ls, signal_variance=sv)
        return -log_marginal_likelihood(TrainedGP.from_params(data, kernel))
    except ConditioningError:
        return np.inf


def _restart_inits(
    data: GPDataset, ranges: np.ndarray, tv: float, restarts: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Log-space starting points: the data-scaled start, then scale-aware draws.

    The data-scaled lengthscales are 0.5 times the per-dimension input range
    (1.0 if flat); random ones are log-uniform in [0.05, 2] times it. Every
    start puts the signal variance at the target variance.
    """
    ls = np.where(np.ptp(data.inputs, axis=0) > 0, 0.5 * ranges, 1.0)
    starts = [np.log(np.concatenate([ls, [tv]]))]
    for _ in range(restarts - 1):
        frac = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=ranges.size))
        starts.append(np.log(np.concatenate([frac * ranges, [tv]])))
    return starts


def fit(data: GPDataset, restarts: int, rng_seed: int) -> TrainedGP:
    """Train squared-exponential hyperparameters by marginal-likelihood maximization.

    Runs a Nelder-Mead simplex search in log-parameter space from
    ``restarts`` starting points (the data-scaled start first, then
    randomized ones) and keeps the best optimum found inside the scaled
    hyperparameter box. Deterministic given ``rng_seed``.

    The box and every start are scaled by :func:`_data_scales`. For a
    one-observation layer those scales fall back to 1.0, and the
    likelihood puts the signal variance at about the squared target.
    """
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    rng = np.random.default_rng(rng_seed)
    ranges, tv = _data_scales(data)
    lo, hi = _param_bounds(ranges, tv)
    inset = 1e-6
    best_val = np.inf
    best_params = None
    for start in _restart_inits(data, ranges, tv, restarts, rng):
        start = np.clip(start, lo + inset, hi - inset)
        res = minimize(
            _nm_objective,
            start,
            args=(data, lo, hi),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400 * start.size},
        )
        # a vertex outside the box scores inf, so a finite res.fun has res.x inside it
        if res.fun < best_val:
            best_val = res.fun
            best_params = res.x
    if best_params is None:
        raise ConditioningError("no restart produced a finite marginal likelihood")
    kernel = KernelSpec(
        kind=SQUARED_EXPONENTIAL,
        lengthscales=np.exp(best_params[:-1]),
        signal_variance=float(np.exp(best_params[-1])),
    )
    return TrainedGP.from_params(data, kernel)

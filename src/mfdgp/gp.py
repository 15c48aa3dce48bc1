"""Exact Gaussian process regression.

A :class:`TrainedGP` bundles a dataset, a squared-exponential kernel and
the cached Cholesky factorization of ``K + noise * I``; prediction and the
log marginal likelihood both reuse that factorization. Training has one
configuration: the hyperparameters maximize the log marginal likelihood
by a derivative-free simplex search in log-parameter space, from
``_RESTARTS`` starts, a data-scaled one and then scale-aware random ones,
each capped at 400 iterations per parameter. The search is the module's
own :func:`minimize`, which takes scipy's Nelder-Mead steps in scipy's
order on Python floats, so each restart lands on the very vertex scipy's
would. It runs a fit's restarts in lock step: each round scores the
vertices that every running restart needs next in one call of the
objective, which builds their kernel matrices as one batch. It keeps the
name ``minimize``, which benchmark tracing wraps to count each fit's
evaluations.

A :func:`~mfdgp.dgp.train` call runs its fits inside one
:func:`restart_helper` block. Where ``os.fork`` and ``os.sched_getaffinity``
exist, the process may run on two or more CPUs and runs no other thread,
the block forks one helper process at its start and reaps it when it
ends. Each :func:`fit` in the block hands the helper, through a
pipe, its objective's data and box and starts 1 and 2 of its four. The
helper runs them by :func:`_lock_step`, the one lock-step loop, while the
caller runs starts 0 and 3, and :func:`minimize` merges the four ends in
start order. The split cannot move a float: the restarts do not depend on
each other, a vertex scores the same in any batch, the helper rebuilds the
objective from the same data by the same code, and pickle carries floats
exactly. Being forked, the helper runs with the caller's module state,
numpy error state and warning filters. It writes only to its own pipe and
leaves only through ``os._exit``, so nothing the caller had buffered is
written twice. An exception its restarts raise is sent back, and the
caller re-raises it. If the helper dies, its pipe breaks or its reply
does not unpickle, the caller runs the helper's starts itself. A :func:`fit` outside such a block, and
every other caller of :func:`minimize`, runs all restarts in process.

Where a cheaper form of a step exists, it gives the floats of the plain
one. The simplex's Python steps follow numpy's reduction and sort orders
(:func:`_nelder_mead`). A one-row objective runs on Python floats only
the correctly rounded operations, and leaves ``exp`` and ``log`` to
numpy, whose vectorized (SIMD) kernels need not give the bytes of
``math.exp`` and ``math.log``
(:func:`_negative_lml`). :func:`predict` sums each query's squared solve
by sequential adds below 8 data rows, the order numpy's reduction takes
there (``kernels._row_norms``). A deep GP level's augmented queries, each
x-part repeated once per sample, go through :func:`_predict_augmented`,
whose cross-covariance is the one ``predict`` would build on the stacked
rows, from x-parts scaled and squared once
(``kernels._augmented_kernel_matrix``); the two share their posterior
half, :func:`_posterior`.

The factorization and the triangular solves call LAPACK ``potrf`` and
``trtrs`` directly, through scipy's own wrappers ``dpotrf`` and ``dtrtrs``.
:func:`_lapack_wrappers` takes them from scipy's compiled module
``scipy/linalg/_flapack*``, loaded by path, the way ``space`` reads scipy's
Sobol table. They are the very objects ``scipy.linalg.lapack`` exports,
whichever of the two is imported first. Importing ``scipy.linalg`` itself
loads scipy's array-API layer (``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and more): about 0.2 s of each CLI command's start-up, where
the compiled module alone takes about 3 ms (median of 9 fresh processes
each, one BLAS thread, 2-core x86-64 container).

Each check has one owner, and the code past it trusts it:

* :class:`GPDataset`: input rank, target length, at least one row, finite
  inputs and targets, a finite noise variance >= 0. It keeps read-only
  copies, so a checked dataset cannot change under a model.
* :class:`~mfdgp.kernels.KernelSpec`: the kind and the hyperparameters.
* :func:`~mfdgp.kernels.kernel_matrix`: every kernel input, and
  ``kernels._augmented_kernel_matrix`` those of augmented queries. They
  refuse a kernel, dataset or query of another dimension in
  :meth:`TrainedGP.from_params`, :func:`predict` and
  :func:`_predict_augmented`.
* :func:`_search_setup`, which builds a fit's box and starts from one
  scan of the data: a log-parameter box with finite bounds,
  ``exp(lo) > 0`` and ``exp(hi) < inf``; inputs whose scaled norms
  ``sum((x / exp(hi))**2)`` are finite, since no vertex can give smaller
  ones.
* :func:`_factorize`: a finite covariance (``x / ls`` can still overflow
  at shorter lengthscales) and the jitter ladder; :func:`_trtrs`: LAPACK's
  ``info``; :func:`_alpha`: a finite alpha.
* :func:`_posterior`, the posterior half of both predictions: a finite
  cross-covariance ``k_star``, since no dataset check covers the queries'
  distances to the data, and a predictive variance no lower than the
  clamp threshold. Its factor is finite, since ``potrf`` ran on a finite
  matrix.

A Nelder-Mead vertex is the list of floats :func:`minimize` keeps, handed
to the objective as it is, in the list of one round's vertices. The
objective (:func:`_negative_lml`) checks only that each vertex lies in the
box, and runs the trusted cores on the dataset's read-only arrays: the box
stands in for ``KernelSpec``'s checks and the dataset for
``kernel_matrix``'s. It builds the in-box vertices' covariances as one
batch (``kernels._scaled_kernel_matrix``). On a dataset of two or more
rows it adds the noise diagonal and scans the batch once for non-finite
entries, then factors, solves and scores each vertex on its own, with
:func:`_factorize`'s jitter ladder for that vertex alone when ``potrf``
fails. On a one-row dataset it scores the whole batch in closed form, the
same floats that ``potrf`` and ``trtrs`` give on a 1 x 1 matrix. Each fit
builds its winner through the checked :meth:`TrainedGP.from_params`, whose
factor and alpha are read-only. So a wrapper on ``kernel_matrix``,
``TrainedGP.from_params`` or ``log_marginal_likelihood`` sees each fit's
final model and none of its vertices; :func:`_lml`, looked up as a module
attribute, is called once per scored vertex of a dataset with two or more
rows, and for a one-row dataset only at a vertex that needs the jitter
ladder. :func:`minimize`'s ``nfev`` counts every vertex of every fit.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import sys
import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from operator import add, lt
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .errors import ConditioningError, DomainError
from .kernels import SQUARED_EXPONENTIAL, KernelSpec, kernel_matrix
from .kernels import _augmented_kernel_matrix, _row_norms, _scaled_kernel_matrix

# Simplex restarts of every fit: the data-scaled start and three random ones.
_RESTARTS = 4

# Jitter escalation ladder: fractions of the mean diagonal of K, tried in
# order until the Cholesky succeeds.
_JITTER_START = 1e-10
_JITTER_STOP = 1e-4
_JITTER_FACTOR = 10.0

# Predictive variances in [-VAR_CLAMP, 0) are rounding noise and clamped to 0;
# anything below -VAR_CLAMP indicates real conditioning trouble.
_VAR_CLAMP = 1e-10

_LOG_2PI = np.log(2.0 * np.pi)

_FLAPACK = "scipy.linalg._flapack"


def _lapack_wrappers():
    """``dpotrf`` and ``dtrtrs`` of scipy's compiled LAPACK module, the objects
    ``scipy.linalg.lapack`` exports.

    The module is loaded by path and registered under its own name, so a
    later ``import scipy.linalg`` reuses it; if ``scipy.linalg`` came first,
    its module is reused here.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        stem = Path(scipy.__file__).parent / "linalg" / "_flapack"
        paths = [stem.with_name(stem.name + suffix) for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK module not found: none of"
                              f" {', '.join(map(str, paths))} exists")
        loader = ExtensionFileLoader(_FLAPACK, str(path))
        module = module_from_spec(spec_from_file_location(_FLAPACK, path, loader=loader))
        loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module.dpotrf, module.dtrtrs


dpotrf, dtrtrs = _lapack_wrappers()


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
            raise DomainError("inputs must be an (n, d) matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DomainError(f"targets length {y.shape} does not match {x.shape[0]} input rows")
        if x.shape[0] < 1:
            raise DomainError("a GP dataset needs at least one observation")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DomainError("inputs and targets must be finite")
        nv = float(self.noise_variance)
        if not np.isfinite(nv) or nv < 0:
            raise DomainError("noise_variance must be finite and >= 0")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "noise_variance", nv)


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
        """Build the cached factorization for fixed hyperparameters; read-only arrays."""
        K = kernel_matrix(kernel, dataset.inputs)
        L = _factorize(K, dataset.noise_variance)
        alpha = _alpha(L, dataset.targets)
        L.flags.writeable = alpha.flags.writeable = False
        return cls(dataset=dataset, kernel=kernel, chol_factor=L, alpha=alpha)


def _alpha(L: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``alpha = (L L^T)^-1 targets`` by two triangular solves; refused unless finite."""
    # one dpotrs call is not bit-identical to these two trtrs calls
    alpha = _trtrs(L, _trtrs(L, targets), trans=1)
    if not np.isfinite(alpha).all():
        raise ConditioningError("alpha = (K + noise * I)^-1 targets is not finite")
    return alpha


def _plus_diagonal(A: np.ndarray, value: float) -> np.ndarray:
    """A copy of the square matrix ``A``, or (k, n, n) stack, plus ``value`` on the diagonal."""
    out = A.copy()
    n = out.shape[-1]
    out.reshape(*out.shape[:-2], n * n)[..., :: n + 1] += value
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
                f"Cholesky failed after jitter escalation (attempted {attempted})"
            )
        attempted.append(jitter)
        L, info = dpotrf(_plus_diagonal(base, jitter), lower=1, clean=1)
    return L


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
    return _lml(gp.dataset.targets, gp.alpha, gp.chol_factor)


def _lml(targets: np.ndarray, alpha: np.ndarray, L: np.ndarray) -> float:
    """log p(y | X, kernel) from ``targets``, ``alpha`` and the Cholesky factor ``L``."""
    fit_term = -0.5 * float(targets @ alpha)
    logdet_term = -float(np.log(L.diagonal()).sum())
    return fit_term + logdet_term - 0.5 * targets.shape[0] * _LOG_2PI


def predict(gp: TrainedGP, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (noise-free) variance at the query rows.

    Returns
    -------
    mean, variance : ndarray, shape (m,)
        The variance is ``sv - ||v||^2`` with ``v = L^-1 k_star``, each
        ``||v||^2`` the bytes of ``(v**2).sum(axis=0)``. Values in
        [-1e-10, 0) are rounding noise and clamped to 0; a value below
        -1e-10 raises a conditioning error rather than being repaired, and
        so does a query whose covariance with the data is not finite.
    """
    return _posterior(gp, kernel_matrix(gp.kernel, gp.dataset.inputs, queries))


def _predict_augmented(gp: TrainedGP, X: np.ndarray, z: np.ndarray):
    """:func:`predict` at the augmented rows (X[i], z[i, s]), i-major, with its very floats.

    ``X`` is (m, d) and ``z`` (m, S); the cross-covariance comes from
    ``kernels._augmented_kernel_matrix``, which scales and squares X's part
    on its m rows, not on the m * S rows of ``np.column_stack([np.repeat(X,
    S, axis=0), z.reshape(-1)])``, and the posterior from :func:`predict`'s.
    """
    return _posterior(gp, _augmented_kernel_matrix(gp.kernel, gp.dataset.inputs, X, z))


def _posterior(gp: TrainedGP, k_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The posterior half of :func:`predict`: mean and clamped variance from (n, m) ``k_star``."""
    if not np.isfinite(k_star).all():
        raise ConditioningError("covariance between queries and data is not finite")
    mean = k_star.T @ gp.alpha
    v = _trtrs(gp.chol_factor, k_star)
    variance = gp.kernel.signal_variance - _row_norms(v.T)
    if variance.size and variance.min() < -_VAR_CLAMP:
        raise ConditioningError(f"predictive variance {variance.min()} below clamp threshold")
    return mean, np.maximum(variance, 0.0, out=variance)


def _search_setup(
    data: GPDataset, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Log-space hyperparameter box ``(lo, hi)`` of one fit and its ``_RESTARTS`` starts.

    Lengthscales are confined to [1e-3, 3] times the per-dimension input
    range (1.0 if flat) and the signal variance to [1e-8, 1e6] times the
    target variance (1.0 if constant). Flat likelihood directions
    (irrelevant inputs, perfectly dependent targets) otherwise let the
    simplex drift to scales that destroy both the conditioning of
    downstream predictions and every exploration signal: beyond a few
    input ranges a stationary kernel is indistinguishable from a trend,
    but its posterior variance collapses.

    The first start puts each lengthscale at 0.5 times its dimension's
    range, or at 1.0 on a flat dimension; the others draw it log-uniform in
    [0.05, 2] times the range. Every start puts the signal variance at the
    target variance, so every start lies well inside the box. A start is a
    list of floats, the vertex type of :func:`minimize`.

    Raises :class:`~mfdgp.errors.DomainError` unless both bounds are finite,
    ``exp(lo) > 0`` and ``exp(hi) < inf``, so that every vertex inside the
    box gives finite positive hyperparameters, and unless the scaled input
    norms ``sum((x / exp(hi))**2)`` are finite, since no vertex gives
    smaller ones. Data whose scales underflow or overflow fail here, before
    any likelihood evaluation and without a numpy warning.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        spans = np.ptp(data.inputs, axis=0)
        live = spans > 0
        ranges = np.where(live, spans, 1.0)
        tv = float(np.var(data.targets))
        tv = tv if tv > 0 else 1.0
        lo = np.log(np.concatenate([1e-3 * ranges, [1e-8 * tv]]))
        hi = np.log(np.concatenate([3.0 * ranges, [1e6 * tv]]))
        box_ok = (
            np.isfinite(lo).all()
            and np.isfinite(hi).all()
            and (np.exp(lo) > 0).all()
            and (np.exp(hi) < np.inf).all()
        )
        if not box_ok:
            raise DomainError(
                f"input ranges {ranges} and target variance {tv} give no finite hyperparameter box"
            )
        norms = ((data.inputs / np.exp(hi[:-1])) ** 2).sum(axis=1)
    if not np.isfinite(norms).all():
        raise DomainError(
            "scaled input norms overflow at the longest lengthscales of the hyperparameter box"
        )
    ls = np.where(live, 0.5 * ranges, 1.0)
    starts = [np.log(np.concatenate([ls, [tv]])).tolist()]
    for _ in range(_RESTARTS - 1):
        frac = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=ranges.size))
        starts.append(np.log(np.concatenate([frac * ranges, [tv]])).tolist())
    return lo, hi, starts


def _negative_lml(data: GPDataset, lo: np.ndarray, hi: np.ndarray):
    """The Nelder-Mead objective of one fit: vertices -> their -LML, ``inf`` outside the box.

    A vertex holds the log lengthscales and the log signal variance, as the
    list of floats :func:`minimize` keeps; the objective reads the vertices
    and never changes them. It runs the box test on each vertex. On the
    in-box ones it runs one ``np.exp`` over their (k, d + 1) block, then the
    input scaling and the SE kernel once, on (k, n, n) arrays whose slices
    hold the very floats a one-vertex call builds: ``np.exp`` is elementwise,
    so a block gives each entry the bytes it gets alone. Then, for a dataset
    of two or more rows, it adds the noise diagonal, scans for non-finite
    entries once and, vertex by vertex, runs ``potrf`` (and
    :func:`_factorize`'s jitter ladder when that fails), the two solves of
    :func:`_alpha` and :func:`_lml`. For a one-row dataset it scores the
    in-box vertices on Python floats, in the order of :func:`_alpha`'s and
    :func:`_lml`'s operations: on a 1 x 1 matrix ``potrf`` is a square root
    and each ``trtrs`` one division, and ``math.sqrt``, ``+``, ``-``, ``*``
    and ``/`` are correctly rounded in Python as in numpy and LAPACK, so the
    scores are the floats of the per-vertex path. The log alone stays one
    ``np.log`` call over the batch, since numpy's vectorized log kernel
    need not give ``math.log``'s bytes. Only a vertex whose covariance plus
    noise is 0, which ``potrf`` refuses, takes the per-vertex path and its
    jitter ladder. A vertex whose covariance is not finite, whose ladder
    runs out or whose alpha is not finite scores ``inf``. So a vertex's
    score does not depend on the other vertices of its batch. The module
    docstring says which per-fit fact stands in for each check it leaves
    out.
    """
    inputs, targets, noise = data.inputs, data.targets, data.noise_variance
    one_row = targets.shape[0] == 1
    y = float(targets[0])
    half_log_2pi = 0.5 * float(_LOG_2PI)
    # the box test compares Python floats: on a vertex's few entries that
    # costs a fraction of two numpy comparisons and their reductions
    bounds = list(zip(lo.tolist(), hi.tolist()))

    def in_box(vertex: list) -> bool:
        for p, (low, high) in zip(vertex, bounds):
            if p < low or p > high:
                return False
        return True

    def by_lapack(K_i: np.ndarray, base_i: np.ndarray) -> float:
        L, info = dpotrf(base_i, lower=1, clean=1)
        try:
            if info != 0:
                L = _factorize(K_i, noise)
            alpha = _alpha(L, targets)
        except ConditioningError:
            return np.inf
        return -_lml(targets, alpha, L)

    def one_row_scores(K: np.ndarray) -> list:
        # by_lapack's floats, op for op in _alpha's and _lml's order, on Python
        # floats but for the log, which stays numpy's
        bs = [k + noise for k in K.reshape(-1).tolist()]
        roots = [math.sqrt(b) if b > 0 else 1.0 for b in bs]
        scores = []
        for j, (b, root, log_root) in enumerate(zip(bs, roots, np.log(roots).tolist())):
            if b > 0:
                alpha = y / root / root
                if math.isfinite(alpha):
                    scores.append(-((-0.5 * (y * alpha) + -log_root) - half_log_2pi))
                else:  # _alpha's refusal
                    scores.append(np.inf)
            elif b <= 0:  # potrf's refusal: noise 0 and an underflowed covariance
                scores.append(by_lapack(K[j], _plus_diagonal(K[j], noise)))
            else:  # a covariance of nan, which _alpha refuses
                scores.append(np.inf)
        return scores

    def objective(vertices: list) -> list:
        scores = [np.inf] * len(vertices)
        inside = [i for i, vertex in enumerate(vertices) if in_box(vertex)]
        if not inside:
            return scores
        params = np.exp([vertices[i] for i in inside])
        K = _scaled_kernel_matrix(params[:, -1, None, None], inputs / params[:, None, :-1])
        if one_row:
            values = one_row_scores(K)
        else:
            base = _plus_diagonal(K, noise)
            finite = np.isfinite(base).all(axis=(1, 2)).tolist()
            values = [by_lapack(K_i, base_i) if ok else np.inf
                      for K_i, base_i, ok in zip(K, base, finite)]
        for i, value in zip(inside, values):
            scores[i] = value
        return scores

    objective.args = (data, lo, hi)  # what the restart helper rebuilds it from
    return objective


class SimplexResult(NamedTuple):
    """The best vertex of a :func:`minimize` run, its value and the objective's vertex count."""

    x: np.ndarray
    fun: float
    nfev: int


# Stopping tolerances of a fit's simplex: every vertex within _XATOL of the
# best in each coordinate and within _FATOL of its value.
_XATOL = 1e-6
_FATOL = 1e-9


def minimize(objective, starts: list, helper=None) -> SimplexResult:
    """Nelder-Mead from each of ``starts`` in lock step, each taking scipy's steps bit for bit.

    ``objective`` maps a list of vertices to the list of their values. Each
    start runs as one :func:`_nelder_mead` restart, of at most 400
    iterations per coordinate, in :func:`_lock_step`. The restarts do not
    depend on each other, so each takes the steps it would take alone.
    Their floats are scipy's, step by step as :func:`_nelder_mead` says, in
    lock step as alone, since the objective scores a vertex the same in any
    batch. Returns the first restart whose value is the lowest below
    ``inf``, or the first restart when none is, with ``nfev`` the vertices
    scored over all restarts.

    With a ``helper`` from :func:`restart_helper` and an objective from
    :func:`_negative_lml`, the helper runs starts 1 to ``len(starts) // 2``
    (two of a fit's four) while the caller runs the others, and the ends
    are merged in start order. Either side's two restarts take 0.6-0.7 of
    the four's lock-step time (summed over the fits of a forrester5 and a
    reactor-proxy campaign, one BLAS thread). If the helper is gone, the
    caller runs those starts itself, after its own.
    """
    k = len(starts) // 2 if helper is not None else 0
    if k and not helper.submit(objective.args, starts[1:1 + k]):
        k = 0
    ends, nfev = _lock_step(objective, starts[:1] + starts[1 + k:])
    if k:
        their_ends, their_nfev = helper.collect() or _lock_step(objective, starts[1:1 + k])
        ends[1:1] = their_ends
        nfev += their_nfev
    best, best_fun = ends[0], np.inf
    for x, fun in ends:
        if fun < best_fun:
            best, best_fun = (x, fun), fun
    return SimplexResult(x=np.array(best[0]), fun=best[1], nfev=nfev)


def _lock_step(objective, starts: list) -> tuple[list, int]:
    """Run one :func:`_nelder_mead` restart per start in lock step; their ends and the vertex count.

    Each round hands ``objective`` the vertices every running restart needs
    next, in start order, in one call. The ends are ``(x, fun)`` pairs in
    start order.
    """
    runs = [_nelder_mead(start) for start in starts]
    ends = [None] * len(runs)
    live = [(i, run, next(run)) for i, run in enumerate(runs)]
    nfev = 0
    while live:
        scores = objective([vertex for _, _, vertices in live for vertex in vertices])
        nfev += len(scores)
        pos, running = 0, []
        for i, run, vertices in live:
            end = pos + len(vertices)
            try:
                running.append((i, run, run.send(scores[pos:end])))
            except StopIteration as stop:
                ends[i] = stop.value
            pos = end
        live = running
    return ends, nfev


# The restart helper of the enclosing restart_helper block, which fit hands to minimize.
_HELPER: ContextVar = ContextVar("restart_helper", default=None)


@contextmanager
def restart_helper():
    """Fork a restart helper for the block's :func:`fit` calls and yield it; yield None if none runs.

    None runs where ``os.fork`` or ``os.sched_getaffinity`` is missing, on
    fewer than two CPUs, in a process with another thread (which a fork
    could leave holding a lock in the child), or when the fork fails. The
    helper is reaped when the block ends, however it ends.
    """
    helper = None
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1):
        helper = _Helper.fork()
    if helper is None:
        yield None
        return
    token = _HELPER.set(helper)
    try:
        yield helper
    finally:
        _HELPER.reset(token)
        helper.close()


class _Helper:
    """The caller's end of a restart helper: a child pid and the two pipes to it."""

    def __init__(self, pid: int, jobs, results):
        self.pid, self._jobs, self._results = pid, jobs, results

    @classmethod
    def fork(cls):
        """Fork a helper serving :func:`_serve`; None if a pipe or the fork fails."""
        fds = []
        try:
            fds += os.pipe()  # jobs: read end, write end
            fds += os.pipe()  # results: read end, write end
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        job_read, job_write, result_read, result_write = fds
        if pid == 0:
            try:
                # leave the caller's objects to the caller: a collection here
                # could finalize, and so flush, a file object the caller holds
                gc.freeze()
                os.close(job_write)
                os.close(result_read)
                _serve(os.fdopen(job_read, "rb"), os.fdopen(result_write, "wb"))
            finally:
                os._exit(0)
        os.close(job_read)
        os.close(result_write)
        return cls(pid, os.fdopen(job_write, "wb"), os.fdopen(result_read, "rb"))

    def submit(self, args: tuple, starts: list) -> bool:
        """Send the helper :func:`_negative_lml`'s arguments and the starts; False if it is gone."""
        if self.pid is None:
            return False
        try:
            pickle.dump((args, starts), self._jobs, pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except BrokenPipeError:  # the helper died
            self.close()
            return False
        return True

    def collect(self):
        """The last job's ``(ends, nfev)``, or None if none arrives whole; re-raises its exception.

        None when the helper died, or sent a reply that does not unpickle,
        such as an exception whose class takes other arguments than its
        ``args``: the caller then runs those starts itself.
        """
        try:
            ok, value = pickle.load(self._results)
        except Exception:  # the helper died, mid-reply or before, or sent what does not unpickle
            self.close()
            return None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Close the pipes and reap the helper, which then leaves; later calls do nothing.

        An idle helper reads the end of its job pipe and leaves at once. A
        busy one, when the caller raised mid-fit, leaves when it has ended
        its job and found the result pipe closed.
        """
        if self.pid is None:
            return
        for stream in (self._jobs, self._results):
            try:
                stream.close()
            except BrokenPipeError:  # flushing what the dead helper's pipe refused
                pass
        os.waitpid(self.pid, 0)
        self.pid = None


def _serve(jobs, results) -> None:
    """The helper's loop: run each job's starts by :func:`_lock_step` until its pipe closes.

    A reply is pickled whole before any of it is written, so one that cannot
    be pickled ends the helper with nothing written, and the caller runs
    those starts itself.
    """
    while True:
        try:
            args, starts = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = (True, _lock_step(_negative_lml(*args), starts))
        except Exception as exc:  # the caller re-raises it
            reply = (False, exc)
        results.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        results.flush()


def _nelder_mead(start: list):
    """One restart of :func:`minimize`: yields the vertices it needs next, receives their values.

    Runs the float operations of ``scipy.optimize.minimize(objective, start,
    method="Nelder-Mead", options={"xatol": 1e-6, "fatol": 1e-9, "maxiter":
    maxiter})`` with ``maxiter = 400 * len(start)``, in scipy's order, on
    Python floats: the same first simplex (each coordinate times 1 + 0.05,
    or 0.00025 where it is 0), reflection, expansion, outside and inside
    contraction, shrink, and the vertex order of ``np.argsort``, so that
    tied values (``inf`` vertices) break as scipy's do. It runs at most
    ``maxiter - 1`` iterations, as scipy does. It yields the whole first
    simplex, then one trial vertex at a time, or the n vertices of a
    shrink, each the very list of floats its simplex keeps, which the
    objective must not change.

    Three steps take a cheaper way to scipy's floats. The centroid adds
    each coordinate's column left to right with ``functools.reduce``, the
    order of ``np.add.reduce`` down the rows; builtin ``sum`` is not used,
    since from Python 3.12 it compensates its float sums. The value test
    compares the best value with the last alone: on sorted values that one
    lies farthest from it, and a nan sorts last, so it decides scipy's
    ``max(|fsim[0] - fsim[1:]|) <= fatol``. After a round that replaces
    the worst vertex, the new one is reinserted by bisection when no two
    values tie and none is nan, since such values have one ascending
    order; otherwise :func:`_argsort` sorts the whole simplex, as after
    the first simplex and a shrink. What it leaves out is scipy's per-call
    wrapping and per-iteration result and callback. Returns the best
    vertex and its value.
    """
    n = len(start)
    x0 = list(start)
    sim = [x0]
    for k, v in enumerate(x0):
        vertex = list(x0)
        vertex[k] = (1 + 0.05) * v if v != 0 else 0.00025
        sim.append(vertex)
    fsim = yield sim
    for _ in range(2):  # scipy sorts the first simplex twice
        order = _argsort(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    distinct = all(map(lt, fsim, fsim[1:]))
    for _ in range(400 * n - 1):
        best, f_best = sim[0], fsim[0]
        # the values are sorted, so the last lies farthest from the best, or is nan
        if abs(f_best - fsim[-1]) <= _FATOL and all(
            abs(a - b) <= _XATOL for v in sim[1:] for a, b in zip(v, best)
        ):
            break
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        (fxr,) = yield [xr]
        shrink = False
        if fxr < f_best:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            (fxe,) = yield [xe]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
            (fxc,) = yield [xc]
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
            (fxcc,) = yield [xcc]
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            sim[1:] = [[a + 0.5 * (b - a) for a, b in zip(best, v)] for v in sim[1:]]
            fsim[1:] = yield sim[1:]
        else:
            # one new last vertex: when no two values tie and none is nan,
            # its place among the sorted others is the only ascending order
            f_new = fsim[-1]
            k = bisect_left(fsim, f_new, 0, n)
            if distinct and (k == n or f_new < fsim[k]):
                sim.insert(k, sim.pop())
                fsim.insert(k, fsim.pop())
                continue
        order = _argsort(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        distinct = all(map(lt, fsim, fsim[1:]))
    return sim[0], float(np.min(fsim))


def _argsort(values: list) -> list:
    """``np.argsort(values)`` as a list, by Python's sort when no two values tie and none is nan.

    Such values have one ascending order, so any sort gives numpy's; ties
    and nan take ``np.argsort`` itself, whose order among equal values
    depends on the platform's sort kernel.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    for i, j in zip(order, order[1:]):
        if not values[i] < values[j]:
            return np.argsort(values).tolist()
    return order


def fit(data: GPDataset, rng_seed: int) -> TrainedGP:
    """Train squared-exponential hyperparameters by marginal-likelihood maximization.

    Runs one :func:`minimize` in log-parameter space over ``_RESTARTS``
    starting points (the data-scaled start first, then randomized ones),
    each restart the Nelder-Mead search scipy would run with ``xatol=1e-6``,
    ``fatol=1e-9`` and ``maxiter = 400 * parameters``, and keeps the first
    best optimum found inside the scaled hyperparameter box. Deterministic
    given ``rng_seed``.

    The box and the starts come from one :func:`_search_setup` call, each
    start a list of floats, the vertex type :func:`minimize` keeps and
    hands to the objective. For a one-observation layer the data scales
    fall back to 1.0, and the likelihood puts the signal variance at about
    the squared target. Inside a :func:`restart_helper` block two of the
    restarts run in its helper process, to the same floats.
    """
    rng = np.random.default_rng(rng_seed)
    lo, hi, starts = _search_setup(data, rng)
    res = minimize(_negative_lml(data, lo, hi), starts, _HELPER.get())
    # a vertex outside the box scores inf, so a finite res.fun has res.x inside it
    if not res.fun < np.inf:
        raise ConditioningError("no restart produced a finite marginal likelihood")
    kernel = KernelSpec(
        kind=SQUARED_EXPONENTIAL,
        lengthscales=np.exp(res.x[:-1]),
        signal_variance=float(np.exp(res.x[-1])),
    )
    return TrainedGP.from_params(data, kernel)

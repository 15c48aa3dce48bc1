"""Stationary covariance kernels with per-dimension lengthscales.

Two families are supported:

* ``squared-exponential``:  k(r) = s2 * exp(-r^2 / 2)
* ``matern-5/2``:           k(r) = s2 * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r)

where r is the Euclidean distance after dividing each input dimension by
its lengthscale and s2 is the signal variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

SQUARED_EXPONENTIAL = "squared-exponential"
MATERN52 = "matern-5/2"
_KINDS = (SQUARED_EXPONENTIAL, MATERN52)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its hyperparameters.

    Parameters
    ----------
    kind : str
        One of ``"squared-exponential"`` or ``"matern-5/2"``.
    lengthscales : ndarray
        One positive lengthscale per input dimension.
    signal_variance : float
        Positive prior variance k(x, x).
    """

    kind: str
    lengthscales: np.ndarray
    signal_variance: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        if ls.ndim != 1:
            raise ShapeError("lengthscales must be a 1-D array with one entry per dimension")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise DomainError("all lengthscales must be finite and > 0")
        sv = float(self.signal_variance)
        if not np.isfinite(sv) or sv <= 0:
            raise DomainError("signal_variance must be finite and > 0")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", sv)

    @property
    def dimension(self) -> int:
        return self.lengthscales.shape[0]


def _scaled(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.dimension:
        raise ShapeError(
            f"input dimension {x.shape[1]} does not match {spec.dimension} lengthscales"
        )
    if not np.all(np.isfinite(x)):
        raise DomainError("kernel inputs must be finite")
    return x / spec.lengthscales


def kernel_matrix(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Covariance matrix between rows of ``a`` and rows of ``b`` (or ``a``)."""
    xa = _scaled(spec, a)
    xb = xa if b is None else _scaled(spec, b)
    # squared distances via the expanded form; clip tiny negatives from cancellation
    sq = np.sum(xa**2, axis=1)[:, None] + np.sum(xb**2, axis=1)[None, :] - 2.0 * xa @ xb.T
    sq = np.maximum(sq, 0.0)
    if spec.kind == SQUARED_EXPONENTIAL:
        return spec.signal_variance * np.exp(-0.5 * sq)
    r = np.sqrt(5.0 * sq)
    return spec.signal_variance * (1.0 + r + r**2 / 3.0) * np.exp(-r)


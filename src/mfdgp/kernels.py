"""Stationary covariance kernels with per-dimension lengthscales.

Two families are supported:

* ``squared-exponential``:  k(r) = s2 * exp(-r^2 / 2)
* ``matern-5/2``:           k(r) = s2 * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r)

where r is the Euclidean distance after dividing each input dimension by
its lengthscale and s2 is the signal variance.

This module owns two checks. :class:`KernelSpec` checks the kind and the
hyperparameters once, when it is built, and keeps a read-only copy of its
lengthscales. :func:`kernel_matrix` checks its inputs at every call: an
input of rank below two is one row (``np.atleast_2d``); one of rank above
two, or with a d other than the lengthscales', is a ``ShapeError``; a
non-finite one is a ``DomainError``. Its arithmetic lives in
``_scaled_kernel_matrix``, the unchecked core that likelihood training
calls on inputs it has already checked and scaled.
"""

from __future__ import annotations

import math
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
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=np.float64))
        if ls.ndim != 1:
            raise ShapeError("lengthscales must be a 1-D array with one entry per dimension")
        if not np.isfinite(ls).all() or (ls <= 0).any():
            raise DomainError("all lengthscales must be finite and > 0")
        sv = float(self.signal_variance)
        if not math.isfinite(sv) or sv <= 0:
            raise DomainError("signal_variance must be finite and > 0")
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", sv)

    @property
    def dimension(self) -> int:
        return self.lengthscales.shape[0]


def _scaled(spec: KernelSpec, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise ShapeError(f"kernel inputs must be an (n, d) matrix, got {x.ndim} dimensions")
    if x.shape[1] != spec.dimension:
        raise ShapeError(
            f"input dimension {x.shape[1]} does not match {spec.dimension} lengthscales"
        )
    if not np.isfinite(x).all():
        raise DomainError("kernel inputs must be finite")
    return x / spec.lengthscales


def kernel_matrix(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Covariance matrix between rows of ``a`` and rows of ``b`` (or ``a``)."""
    xa = _scaled(spec, a)
    xb = None if b is None else _scaled(spec, b)
    return _scaled_kernel_matrix(spec.kind, spec.signal_variance, xa, xb)


def _scaled_kernel_matrix(kind: str, signal_variance: float, xa, xb=None) -> np.ndarray:
    """:func:`kernel_matrix` on (n, d) float64 inputs already divided by the lengthscales.

    Trusted core: it checks nothing. Its caller vouches for a known ``kind``
    and a finite positive ``signal_variance``, and scans the result where the
    scaled inputs can overflow.
    """
    norms_a = (xa**2).sum(axis=1)
    if xb is None:
        xb, norms_b = xa, norms_a
    else:
        norms_b = (xb**2).sum(axis=1)
    # squared distances via the expanded form; clip tiny negatives from cancellation
    sq = norms_a[:, None] + norms_b[None, :] - 2.0 * xa @ xb.T
    np.maximum(sq, 0.0, out=sq)
    if kind == SQUARED_EXPONENTIAL:
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= signal_variance
        return sq
    r = np.sqrt(5.0 * sq)
    return signal_variance * (1.0 + r + r**2 / 3.0) * np.exp(-r)

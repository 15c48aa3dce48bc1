"""The squared-exponential covariance kernel with per-dimension lengthscales.

k(r) = s2 * exp(-r^2 / 2), where r is the Euclidean distance after
dividing each input dimension by its lengthscale and s2 is the signal
variance. It is the one kernel family of the model's layers.

This module owns two checks. :class:`KernelSpec` checks the kind and the
hyperparameters once, when it is built, and keeps a read-only copy of its
lengthscales. :func:`kernel_matrix` checks its inputs at every call: an
input of rank below two is one row (``np.atleast_2d``); one of rank above
two, or with a d other than the lengthscales', is a ``ShapeError``; a
non-finite one is a ``DomainError``. Finite inputs can still overflow
when scaled or in the squared distances: an overflowed distance gives the
exact covariance 0, and ``inf - inf`` a nan that its callers refuse, so it
computes without numpy's overflow warnings. Its arithmetic lives in
``_scaled_kernel_matrix``, the unchecked core that likelihood training
calls on inputs it has already checked and scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

SQUARED_EXPONENTIAL = "squared-exponential"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its hyperparameters.

    Parameters
    ----------
    kind : str
        ``"squared-exponential"``, the one family.
    lengthscales : ndarray
        One positive lengthscale per input dimension.
    signal_variance : float
        Positive prior variance k(x, x).
    """

    kind: str
    lengthscales: np.ndarray
    signal_variance: float

    def __post_init__(self):
        if self.kind != SQUARED_EXPONENTIAL:
            raise DomainError(f"unknown kernel kind {self.kind!r}; expected {SQUARED_EXPONENTIAL}")
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
    """Covariance matrix between rows of ``a`` and rows of ``b`` (or ``a``).

    An entry whose squared distance overflows is 0; one whose scaled inputs
    or distance overflow into ``inf - inf`` or ``inf * 0`` is nan, for the
    caller to refuse.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xa = _scaled(spec, a)
        xb = None if b is None else _scaled(spec, b)
        return _scaled_kernel_matrix(spec.signal_variance, xa, xb)


def _scaled_kernel_matrix(signal_variance: float, xa, xb=None) -> np.ndarray:
    """:func:`kernel_matrix` on (n, d) float64 inputs already divided by the lengthscales.

    Trusted core: it checks nothing. Its caller vouches for a finite positive
    ``signal_variance``, and scans the result where the scaled inputs can
    overflow. Inputs may carry leading batch axes, (k, n, d), with
    ``signal_variance`` shaped to broadcast against the (k, n, m) result:
    each slice gets the very floats of its own 2-D call.
    """
    norms_a = (xa**2).sum(axis=-1)
    if xb is None:
        xb, norms_b = xa, norms_a
    else:
        norms_b = (xb**2).sum(axis=-1)
    # squared distances via the expanded form; clip tiny negatives from cancellation
    sq = norms_a[..., :, None] + norms_b[..., None, :] - 2.0 * xa @ xb.swapaxes(-1, -2)
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_variance
    return sq

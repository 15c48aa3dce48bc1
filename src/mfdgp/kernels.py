"""The squared-exponential covariance kernel with per-dimension lengthscales.

k(r) = s2 * exp(-r^2 / 2), where r is the Euclidean distance after
dividing each input dimension by its lengthscale and s2 is the signal
variance. It is the one kernel family of the model's layers.

This module owns two checks. :class:`KernelSpec` checks the kind and the
hyperparameters once, when it is built, and keeps a read-only copy of its
lengthscales. :func:`kernel_matrix` checks its inputs at every call: an
input of rank below two is one row (``np.atleast_2d``); one of rank above
two, one with a d other than the lengthscales' and a non-finite one are
each a ``DomainError``. Finite inputs can still overflow
when scaled or in the squared distances: an overflowed distance gives the
exact covariance 0, and ``inf - inf`` a nan that its callers refuse, so it
computes without numpy's overflow warnings. Its arithmetic lives in
``_scaled_kernel_matrix``, the unchecked core that likelihood training
calls on inputs it has already checked and scaled. The core sums a tall
query block's squared norms column by column when it has fewer than 8
columns (``_row_norms``), which gives the bytes of numpy's reduction at a
fraction of its cost.

A deep GP level queries its layer at augmented rows (x_i, z_is), each
x-part repeated once per sample. ``_augmented_kernel_matrix`` takes the m
distinct x-parts and the z column apart, makes the same checks, and scales
and squares the x-parts on their m rows. It writes them into the C-order
block that stacking the rows would give and sums each norm in the same
order, so the core, and its matmul, see the very operands of
:func:`kernel_matrix` on the stacked rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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
            raise DomainError("lengthscales must be a 1-D array with one entry per dimension")
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
        raise DomainError(f"kernel inputs must be an (n, d) matrix, got {x.ndim} dimensions")
    if x.shape[1] != spec.dimension:
        raise DomainError(
            f"input dimension {x.shape[1]} does not match {spec.dimension} lengthscales"
        )
    if not np.isfinite(x).all():
        raise DomainError("kernel inputs must be finite")
    return x / spec.lengthscales


def kernel_matrix(spec: KernelSpec, a, b=None) -> np.ndarray:
    """Covariance matrix between rows of ``a`` and rows of ``b`` (or ``a``).

    An entry whose squared distance overflows is 0; one whose scaled inputs
    or distance overflow into ``inf - inf`` or ``inf * 0`` is nan, for the
    caller to refuse. Each entry has the bytes of the plain expression
    ``sv * exp(-0.5 * max(|a|^2 + |b|^2 - 2 a.b, 0))``, each squared norm
    one ``(x**2).sum(axis=-1)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xa = _scaled(spec, a)
        xb = None if b is None else _scaled(spec, b)
        return _scaled_kernel_matrix(spec.signal_variance, xa, xb)


def _augmented_kernel_matrix(spec: KernelSpec, a, X: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`kernel_matrix` of ``a`` against the augmented rows (X[i], z[i, s]), i-major.

    ``X`` is an (m, d) float64 matrix, ``z`` an (m, S) one and ``spec`` has
    d + 1 lengthscales: the query block of one level of a deep GP pass,
    whose m * S rows hold only m distinct x-parts. The result has the bytes
    of ``kernel_matrix(spec, a, np.column_stack([np.repeat(X, S, axis=0),
    z.reshape(-1)]))``, with that call's checks on that block: X's width and
    finiteness, checked on its m rows, and z's finiteness. X is divided by
    its lengthscales on its m rows and written S times into the C-order
    scaled block, so the kernel's matmul sees the operands of the plain
    call. Below 8 columns its squared norms are summed on the m rows, then
    repeated and given ``(z / l_z)**2``: the left-to-right column sum of
    :func:`_row_norms` on the whole block. From 8 columns on, numpy sums a
    row pairwise, and the whole block's rows are summed.
    """
    m, d = X.shape
    if d + 1 != spec.dimension:
        raise DomainError(f"input dimension {d + 1} does not match {spec.dimension} lengthscales")
    if not (np.isfinite(X).all() and np.isfinite(z).all()):
        raise DomainError("kernel inputs must be finite")
    S = z.shape[1]
    ls = spec.lengthscales
    with np.errstate(over="ignore", invalid="ignore"):
        xa = _scaled(spec, a)
        rows = np.zeros((m, d + 1))
        sx = np.divide(X, ls[:d], out=rows[:, :d])
        xb = np.repeat(rows, S, axis=0)
        np.divide(z.reshape(-1), ls[d], out=xb[:, d])
        if 0 < d < 7:
            norms_b = np.repeat(_row_norms(sx), S)
            norms_b += xb[:, d] ** 2
        else:
            norms_b = _row_norms(xb)
        return _scaled_kernel_matrix(spec.signal_variance, xa, xb, norms_b)


def _scaled_kernel_matrix(signal_variance: float, xa, xb=None, norms_b=None) -> np.ndarray:
    """:func:`kernel_matrix` on (n, d) float64 inputs already divided by the lengthscales.

    Trusted core: it checks nothing. Its caller vouches for a finite positive
    ``signal_variance``, and scans the result where the scaled inputs can
    overflow. Inputs may carry leading batch axes, (k, n, d), with
    ``signal_variance`` shaped to broadcast against the (k, n, m) result:
    each slice gets the very floats of its own 2-D call. The norms of
    ``xa``, a training batch or the data, come from one reduction, the
    cheaper form on such small arrays; those of a given ``xb``, the (m, d)
    query block, are ``norms_b`` when the caller has them, else
    :func:`_row_norms`, with the same bytes.
    """
    norms_a = (xa**2).sum(axis=-1)
    if xb is None:
        xb, norms_b = xa, norms_a
    elif norms_b is None:
        norms_b = _row_norms(xb)
    # squared distances via the expanded form; clip tiny negatives from cancellation
    sq = norms_a[..., :, None] + norms_b[..., None, :]
    sq -= 2.0 * xa @ xb.swapaxes(-1, -2)
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_variance
    return sq


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``(x**2).sum(axis=-1)``, bit for bit, for x of shape (..., d).

    numpy sums a contiguous run of fewer than 8 entries left to right, so
    below 8 columns sequential column adds give its very bytes, at a
    fraction of its cost on a tall block; from 8 columns on it sums
    pairwise, and the reduction itself runs.
    """
    d = x.shape[-1]
    if d >= 8:
        return (x**2).sum(axis=-1)
    norms = x[..., 0] ** 2
    for j in range(1, d):
        norms += x[..., j] ** 2
    return norms

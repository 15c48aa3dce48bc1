"""Axis-aligned box design spaces and space-filling sampling.

``scipy.stats.qmc`` is imported inside the two samplers, not at module
level: loading ``scipy.stats`` takes about a third of the package's import
time, and commands that never sample (``validate-fidelity``, ``report``)
should not pay for it. A campaign imports it in its first Latin-hypercube
design, before the first objective call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class DesignSpace:
    """A box ``[lower, upper]`` in d dimensions with lower < upper per axis; read-only copies."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.array(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("lower and upper must be 1-D arrays of equal length")
        if lo.size < 1:
            raise DomainError("design space needs at least one dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError("bounds must be finite")
        if np.any(lo >= hi):
            raise DomainError("every lower bound must be strictly below its upper bound")
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)

    def normalize(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.lower) / (self.upper - self.lower)

    def denormalize(self, u) -> np.ndarray:
        return self.lower + np.asarray(u, dtype=np.float64) * (self.upper - self.lower)

    def sample_lhs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n Latin-hypercube points, shape (n, d)."""
        from scipy.stats import qmc

        sampler = qmc.LatinHypercube(d=self.dimension, seed=rng)
        return self.denormalize(sampler.random(n))

    def sample_sobol(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n scrambled Sobol points, shape (n, d)."""
        from scipy.stats import qmc

        sampler = qmc.Sobol(d=self.dimension, scramble=True, seed=rng)
        return self.denormalize(sampler.random(n))

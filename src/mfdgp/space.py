"""Axis-aligned box design spaces and space-filling sampling.

The two samplers draw exactly what ``scipy.stats.qmc`` draws, bit for bit:
``sample_lhs`` the points of ``qmc.LatinHypercube(d, seed=rng).random(n)``
and ``sample_sobol`` those of ``qmc.Sobol(d, scramble=True,
seed=rng).random(n)``. Like ``qmc``, each spawns one child Generator from
the caller's seed sequence and draws from it in ``qmc``'s order, so the
caller's Generator ends in the same state too.

The Sobol direction numbers are Joe and Kuo's (2008, SIAM J. Sci. Comput.
30(5)). Their primitive polynomials and initial numbers are read from the
``_sobol_direction_numbers.npz`` file that scipy installs beside
``scipy/stats``, opened by path, and extended to 30 bits by the Bratley-Fox
recurrence (1988, ACM TOMS 14(1)). The scramble is a random lower-triangular
matrix over GF(2) and a digital shift (Matousek 1998, J. Complexity 14).

Nothing here imports ``scipy.stats``. Loading it took about 0.3 s, half of
a campaign's start-up, and these two integer-arithmetic samplers were all
the package used of it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import DomainError

_SOBOL_BITS = 30
_SOBOL_TABLE = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """Unscrambled direction numbers of the first d Sobol dimensions, (d, 30) uint32, read-only.

    Row j holds dimension j's v_k = m_k * 2**(30 - k), k = 1..30. Cached per
    d, so the table is read and the recurrence run in Python once per
    process, not at every draw.
    """
    with np.load(_SOBOL_TABLE) as table:
        polys = table["poly"][:d].tolist()
        inits = table["vinit"][:d].tolist()
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(polys[1:], inits[1:]):
        degree = poly.bit_length() - 1
        m = init[:degree]
        for j in range(degree, _SOBOL_BITS):
            new = m[j - degree]
            for k in range(degree):
                if (poly >> (degree - 1 - k)) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        rows.append(m)
    directions = np.array(rows, dtype=np.uint32) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    directions.flags.writeable = False
    return directions


@dataclass(frozen=True)
class DesignSpace:
    """A box ``[lower, upper]`` in d dimensions with lower < upper per axis; read-only copies."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.array(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("lower and upper must be 1-D arrays of equal length")
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
        """n Latin-hypercube points, shape (n, d): ``qmc.LatinHypercube``'s, bit for bit."""
        rng = rng.spawn(1)[0]
        offsets = rng.uniform(size=(n, self.dimension))
        perms = np.tile(np.arange(1, n + 1), (self.dimension, 1))
        for row in perms:
            rng.shuffle(row)
        return self.denormalize((perms.T - offsets) / n)

    def sample_sobol(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n scrambled Sobol points, shape (n, d): ``qmc.Sobol``'s, bit for bit.

        Warns, as ``qmc`` does, when n is not a power of two.
        """
        d, bits = self.dimension, _SOBOL_BITS
        rng = rng.spawn(1)[0]
        powers = 2 ** np.arange(bits, dtype=np.uint32)
        shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ powers
        lower = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
        lower[:, range(bits), range(bits)] = 1
        # Read top bit first, a number is a GF(2) vector, and the scramble
        # maps v to lower @ v: the XOR of lower's columns at v's set bits.
        top_first = np.arange(bits - 1, -1, -1, dtype=np.uint32)
        columns = lower.transpose(0, 2, 1) @ powers[top_first]
        v_bits = (_sobol_directions(d)[:, :, None] >> top_first) & 1
        scrambled = np.bitwise_xor.reduce(np.where(v_bits == 1, columns[:, None, :], 0), axis=2)
        if n & (n - 1):
            warnings.warn("The balance properties of Sobol' points require n to be a power of 2.",
                          stacklevel=2)
        # Gray-code order: point k is point k - 1 XOR the direction numbered by k's trailing zeros
        k = np.arange(1, n)
        flips = scrambled[:, np.bitwise_count(k ^ (k - 1)) - 1].T
        points = np.bitwise_xor.accumulate(np.vstack([shift, flips]), axis=0)[:n]
        return self.denormalize(points * (1.0 / 2**bits))

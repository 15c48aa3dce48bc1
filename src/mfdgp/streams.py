"""Deterministic random-stream derivation.

Every piece of randomness in a campaign flows from one root seed through
named substreams, so that any iteration's draws are a pure function of
(seed, stream, iteration) rather than of how many draws happened before.
This is what makes interrupted-and-resumed runs reproduce uninterrupted
ones record for record.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Fixed stream identifiers. Values are arbitrary but must never change:
# they are part of the reproducibility contract.
DESIGN = 11
TRAIN = 12
ACQUISITION = 13
PROPAGATION = 14
COST = 15


def _encode(tag) -> int:
    """Map a stream tag (int or short string) to a stable non-negative int."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.blake2b(str(tag).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _entropy(seed: int, tags) -> list[int]:
    return [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_encode(t) for t in tags]


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the substream named by ``tags`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, tags)))


def derive_seed(seed: int, *tags) -> int:
    """Collapse a substream name to a plain integer seed."""
    return int(np.random.SeedSequence(_entropy(seed, tags)).generate_state(1)[0])


def point_hash(x) -> int:
    """Stable 32-bit hash of a point's float64 bytes.

    Used to give each prediction call its own reproducible stream keyed on
    the query location, independent of call order or process.
    """
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    digest = hashlib.blake2b(arr.tobytes(), digest_size=4).digest()
    return int.from_bytes(digest, "little")

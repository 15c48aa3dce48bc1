"""Contract binding multi-fidelity test objectives to the optimizer.

:class:`MultiFidelityObjective`'s constructor is the one every objective
runs: it builds the fidelity ladder from ``nominals``, checks one base cost
per level and keeps the seed. Without ``base_costs`` it charges
:func:`default_base_costs`, 1 at the lowest level and doubling per level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..dgp import FidelityLevel, default_ladder, ladder_from_nominals
from ..errors import DomainError
from ..space import DesignSpace


def default_base_costs(levels: int) -> tuple:
    """The default cost ladder: 1 at the lowest level, doubling per level."""
    return tuple(2.0 ** i for i in range(levels))


class MultiFidelityObjective(ABC):
    """A black box evaluable at any rung of a discrete fidelity ladder.

    Implementations must be deterministic given (x, level, objective seed)
    and report a strictly positive evaluation cost.
    """

    ladder: tuple
    space: DesignSpace

    def __init__(self, seed: int = 0, nominals=None, base_costs=None):
        """Build the ladder from ``nominals`` (the default ladder when None), check its
        base costs (:func:`default_base_costs` when None) and keep the seed."""
        ladder = default_ladder() if nominals is None else ladder_from_nominals(nominals)
        self.ladder = tuple(ladder)
        if base_costs is None:
            base_costs = default_base_costs(len(self.ladder))
        if len(base_costs) != len(self.ladder):
            raise DomainError("need one base cost per fidelity level")
        if not all(0.0 < c < np.inf for c in base_costs):
            raise DomainError(f"base costs must be > 0 and finite, got {list(base_costs)}")
        self.base_costs = tuple(float(c) for c in base_costs)
        self.seed = int(seed)

    @property
    def dimension(self) -> int:
        """The design dimension, the dimension of :attr:`space`."""
        return self.space.dimension

    @abstractmethod
    def evaluate(self, x, level) -> tuple[float, float]:
        """Return (value, cost) for the design point x at the given level."""

    def resolve_level(self, level) -> FidelityLevel:
        idx = level.index if isinstance(level, FidelityLevel) else int(level)
        for lv in self.ladder:
            if lv.index == idx:
                return lv
        raise DomainError(f"level {idx} not on this objective's ladder")

    def check_point(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if x.shape != (self.dimension,):
            raise DomainError(f"expected a {self.dimension}-vector, got shape {x.shape}")
        if not self.space.contains(x):
            raise DomainError(
                f"x={x.tolist()} outside design box "
                f"[{self.space.lower.tolist()}, {self.space.upper.tolist()}]"
            )
        return x

"""Five-level synthetic benchmark built on the classic 1-D Forrester pair.

Both fidelities are negated so the campaign's maximization convention
applies: the high-fidelity optimum is a maximum near x = 0.7572. Levels
interpolate linearly between the low- and high-fidelity functions with
the level's nominal value as the mixing weight, and by default cost
doubles per level: 1, 2, 4, 8, 16.
"""

from __future__ import annotations

import numpy as np

from ..space import DesignSpace
from .base import MultiFidelityObjective


def forrester_high(x):
    """Negated Forrester function: -(6x-2)^2 * sin(12x-4)."""
    x = np.asarray(x, dtype=np.float64)
    return -((6.0 * x - 2.0) ** 2) * np.sin(12.0 * x - 4.0)


def forrester_low(x):
    """Negated low-fidelity companion: 0.5*f_hi(x) - 10*(x-0.5) + 5."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * forrester_high(x) - 10.0 * (x - 0.5) + 5.0


class ForresterFamily(MultiFidelityObjective):
    """The benchmark objective with a configurable cost ladder."""

    space = DesignSpace(lower=[0.0], upper=[1.0])

    def evaluate(self, x, level):
        x = self.check_point(x)
        lv = self.resolve_level(level)
        s = lv.nominal
        value = s * forrester_high(x[0]) + (1.0 - s) * forrester_low(x[0])
        return float(value), self.base_costs[lv.index - 1]

    def known_optimum(self):
        """(x*, f*) of the top-fidelity function, the best of a 10,001-point grid."""
        xs = np.linspace(0.0, 1.0, 10_001)
        vals = forrester_high(xs)
        i = int(np.argmax(vals))
        return np.asarray([xs[i]]), float(vals[i])

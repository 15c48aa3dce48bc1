"""Multi-fidelity test objectives and the name registry the CLI consumes.

The registry maps each name to its objective class, and :func:`get_objective`
calls that class with (seed, nominals, base_costs): every objective is built
by :class:`MultiFidelityObjective`'s constructor, which charges 1 at the
lowest level and doubles per level when no base costs are given. The reactor
proxy's solver, fit and CSV helpers live in :mod:`.reactor` under one name.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import MultiFidelityObjective
from .forrester import ForresterFamily
from .reactor import ReactorProxyObjective

_REGISTRY = {"forrester5": ForresterFamily, "reactor-proxy": ReactorProxyObjective}


def objective_names() -> list[str]:
    return sorted(_REGISTRY)


def get_objective(
    name: str, seed: int = 0, nominals=None, base_costs=None
) -> MultiFidelityObjective:
    """Instantiate a registered objective by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown objective {name!r}; known: {objective_names()}"
        ) from None
    return cls(seed, nominals, base_costs)

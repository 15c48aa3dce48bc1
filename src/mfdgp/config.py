"""Campaign configuration: sectioned key/value text files.

The format is INI-style with three sections. Unknown sections or keys are
errors (fail-closed), so typos cannot silently fall back to defaults; a
``[DEFAULT]`` section holding any key is unknown too. Values are literal:
``%`` is never interpolated, so ``out = runs/%(seed)s`` names that path.
``cmd_init`` writes a fully commented template that parses back equal to
the built-in defaults.

:class:`CampaignConfig` checks itself when it is built, so no unchecked
config exists: a config file, a results-log header and a ``run`` that
overrides ``--seed`` or ``--out`` (through ``dataclasses.replace``) all
build one and pass the same checks. The objective name, ladder, base
costs and design box are checked by the objects built from them.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

from .dgp import DEFAULT_NOMINALS
from .errors import ConfigError, DomainError, ShapeError
from .objectives import get_objective
from .space import DesignSpace


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# Each section's keys and the converter for their text values.
_SCHEMA = {
    "campaign": {"objective": str, "n": int, "beta": float, "budget": float,
                 "seed": int, "out": str},
    "space": {"lower": _float_list, "upper": _float_list},
    "fidelity": {"nominals": _float_list, "base_costs": _float_list},
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run needs, checked when built, resolvable to live objects.

    Checks n, seed, beta, budget, that every number is a real number and
    not a bool (a string such as ``"0.5"`` is refused, not converted), and
    the box against the objective's (same dimension, inside its box); the
    objective and the box check the rest while they are built here. ``lower``,
    ``upper``, ``nominals`` and ``base_costs`` are kept as tuples of the
    given elements (a scalar becomes a one-tuple), so a caller's later edit
    of its list cannot reach a checked config.
    """

    objective: str = "forrester5"
    n: int = 1
    beta: float = 2.0
    budget: float = 60.0
    seed: int = 0
    out: str = "campaign-out"
    lower: tuple = (0.0,)
    upper: tuple = (1.0,)
    nominals: tuple = DEFAULT_NOMINALS
    base_costs: tuple | None = None

    def __post_init__(self):
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        for name in ("beta", "budget", "lower", "upper", "nominals", "base_costs"):
            value = getattr(self, name)
            if value is None and name == "base_costs":
                continue
            items = value if isinstance(value, (list, tuple)) else [value]
            if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items):
                raise ConfigError(f"{name} must hold numbers, got {value!r}")
            if name not in ("beta", "budget"):
                object.__setattr__(self, name, tuple(items))  # not the caller's list
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError("beta must be finite and >= 0")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ConfigError("budget must be finite and > 0")
        try:
            objective, space = self.build_objective(), self.build_space()
        except (DomainError, ShapeError) as exc:
            raise ConfigError(str(exc)) from exc
        if space.dimension != objective.dimension:
            raise ConfigError(
                f"bounds have dimension {space.dimension}, objective "
                f"{self.objective!r} expects {objective.dimension}"
            )
        box = objective.space
        if not (box.contains(space.lower) and box.contains(space.upper)):
            raise ConfigError(
                f"bounds reach outside objective {self.objective!r}'s box "
                f"[{box.lower.tolist()}, {box.upper.tolist()}]"
            )

    def build_objective(self):
        return get_objective(
            self.objective,
            seed=self.seed,
            nominals=self.nominals,
            base_costs=self.base_costs,
        )

    def build_space(self) -> DesignSpace:
        return DesignSpace(lower=self.lower, upper=self.upper)

    def as_payload(self) -> dict:
        return asdict(self)


def parse_config(path) -> CampaignConfig:
    """Read a UTF-8 config file into a checked :class:`CampaignConfig`; unknown keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    payload = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            if section == "fidelity" and not raw.strip():
                continue  # a blank nominals or base_costs keeps its default
            try:
                payload[key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"invalid value in {path}: {exc}") from exc
    return CampaignConfig(**payload)


TEMPLATE = """\
# Campaign configuration. Unknown sections or keys are rejected.

[campaign]
# Objective registry name: forrester5 | reactor-proxy
objective = forrester5
# Initial Latin-hypercube samples per fidelity level
n = 1
# UCB exploration weight (the acquisition is mean + sqrt(beta) * sigma)
beta = 2.0
# Total evaluation budget in cost units (initial design included)
budget = 60.0
# Root random seed; every random stream in the run derives from it
seed = 0
# Output directory for the results log, summary and report files
out = campaign-out

[space]
# Design box, one value per dimension (comma- or space-separated).
# Must match the objective's dimension (forrester5: 1, reactor-proxy: 4).
lower = 0.0
upper = 1.0

[fidelity]
# Nominal fidelity of each level, strictly increasing in [0, 1]
nominals = 0.0, 0.25, 0.5, 0.75, 1.0
# Optional per-level base costs, one per level; blank = objective defaults
base_costs =
"""


def write_template(path) -> None:
    Path(path).write_text(TEMPLATE)


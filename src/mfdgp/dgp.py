"""Multi-fidelity deep Gaussian process built by sequential composition.

The model is an ordered stack of GP layers, one per fidelity level. Layer
1 maps the design point x to the lowest-fidelity output. Every later
layer t maps (x, z) -> z + correction(x, z), where z is the composed
output of the layers below: fidelity t is modeled as fidelity t-1 plus a
GP-distributed mismatch term evaluated at the augmented input. The
identity component keeps the composition informative when a level has
very few observations (the correction GP then simply contributes little),
and it lets predictive uncertainty accumulate up the stack instead of
collapsing to each layer's own data scale.

Training is greedy: layer 1 is fit on (x_1, y_1); layer t's correction GP
is fit on the level-t inputs augmented with the composed posterior *mean*
of the layers below, against the residuals y_t minus that mean.

Prediction has one path, :func:`propagate`: samples are drawn level by
level through the stack from one set of standard-normal base draws that
every query row shares, and the reported moments at level t are the
Gaussian-mixture moments over the propagated sample population

    mean     = mean of per-sample predictive means
    variance = mean of per-sample predictive variances
               + variance of per-sample predictive means.

Level-1 moments bypass the Monte Carlo machinery entirely and are the
plain GP posterior of the first layer. :func:`point_draws` derives one
point's base draws from a seed and the point itself.

Every later layer is queried at augmented rows through
``gp._predict_augmented``, by :func:`propagate` with one row per query and
sample and by :func:`compose_mean` with one per query. Its floats are those
of ``gp.predict`` on the stacked rows: the scaled query block has the same
layout and values, and each squared norm is summed in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import DomainError
from .streams import PROPAGATION, point_hash, substream

DEFAULT_NOMINALS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Declared defaults for the number of propagation samples: a small budget
# while an acquisition optimizer is hammering the model, a larger one for
# reported moments and fidelity selection.
ACQUISITION_SAMPLES = 100
REPORTING_SAMPLES = 2000


@dataclass(frozen=True)
class FidelityLevel:
    """One rung of the fidelity ladder: 1-based index and nominal value in [0, 1]."""

    index: int
    nominal: float

    def __post_init__(self):
        if self.index < 1:
            raise DomainError("fidelity index is 1-based and must be >= 1")
        if not 0.0 <= self.nominal <= 1.0:
            raise DomainError(f"nominal fidelity {self.nominal} outside [0, 1]")


def ladder_from_nominals(nominals) -> list[FidelityLevel]:
    """Build a fidelity ladder of at least one level, checking that nominals strictly increase."""
    values = [float(v) for v in nominals]
    if not values:
        raise DomainError("a fidelity ladder needs at least one nominal")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"nominal fidelities must be strictly increasing, got {values}")
    return [FidelityLevel(index=i + 1, nominal=v) for i, v in enumerate(values)]


def default_ladder() -> list[FidelityLevel]:
    """The five-level ladder with nominals 0, 0.25, 0.5, 0.75, 1."""
    return ladder_from_nominals(DEFAULT_NOMINALS)


@dataclass(frozen=True)
class MFDeepGP:
    """Trained layer stack, at least one layer, plus the ladder it models."""

    layers: tuple
    ladder: tuple
    propagation_samples: int = REPORTING_SAMPLES

    def __post_init__(self):
        if not self.layers:
            raise DomainError("a model needs at least one layer")
        if len(self.layers) != len(self.ladder):
            raise DomainError("layer count must equal ladder length")
        if self.propagation_samples < 1:
            raise DomainError("propagation_samples must be >= 1")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "ladder", tuple(self.ladder))

    @property
    def num_levels(self) -> int:
        return len(self.layers)


def compose_mean(layers, X) -> np.ndarray:
    """Deterministic mean propagation through a (partial) layer stack."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    m, _ = gp.predict(layers[0], X)
    for layer in layers[1:]:
        correction, _ = gp._predict_augmented(layer, X, m[:, None])
        m = m + correction
    return m


def train(levels, rng_seed: int, ladder=None) -> MFDeepGP:
    """Fit the stack bottom-up on ``levels``, each layer by one :func:`gp.fit`.

    ``levels`` holds one :class:`gp.GPDataset` per fidelity, lowest first,
    all of one input dimension (:func:`~mfdgp.kernels.kernel_matrix`
    refuses another). Layer 1 is fit on (x_1, y_1). Each later layer t is
    fit on the level-t inputs augmented with the composed posterior mean m
    of the layers below; its GP carries the correction y_t - m(x_t), so the
    layer's predictive is the identity in the augmented coordinate plus that
    learned mismatch. Deterministic given ``rng_seed``. ``ladder`` defaults
    to evenly spaced nominals when not supplied.
    """
    if ladder is None:
        ladder = ladder_from_nominals(np.linspace(0.0, 1.0, len(levels)))
    elif len(ladder) != len(levels):
        raise DomainError(f"ladder has {len(ladder)} levels, got {len(levels)} datasets")
    seeds = np.random.SeedSequence(rng_seed).generate_state(len(levels))
    layers = []
    for t, ds in enumerate(levels, start=1):
        if t > 1:
            aug = compose_mean(layers, ds.inputs)
            ds = gp.GPDataset(inputs=np.column_stack([ds.inputs, aug]),
                              targets=ds.targets - aug, noise_variance=ds.noise_variance)
        layers.append(gp.fit(ds, rng_seed=int(seeds[t - 1])))
    return MFDeepGP(layers=tuple(layers), ladder=tuple(ladder))


@dataclass(frozen=True)
class LevelTrace:
    """The predictive moments of one level of a propagation pass, each of shape (m,)."""

    mean: np.ndarray
    variance: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        """Predictive standard deviation, sqrt(max(variance, 0))."""
        return np.sqrt(np.maximum(self.variance, 0.0))


def point_draws(model: MFDeepGP, x, rng_seed: int) -> np.ndarray:
    """Base draws of one query point, shape (T-1, S) with S = ``model.propagation_samples``.

    Row t-1 is ``substream(rng_seed, PROPAGATION, point_hash(x), t)``, so a
    point's draws depend only on the seed and the point itself; another S
    is ``dataclasses.replace(model, propagation_samples=S)``.
    """
    S = model.propagation_samples
    rows = [
        substream(rng_seed, PROPAGATION, point_hash(x), t).standard_normal(S)
        for t in range(1, model.num_levels)
    ]
    return np.asarray(rows, dtype=np.float64).reshape(model.num_levels - 1, S)


def propagate(model: MFDeepGP, X, base_draws) -> list[LevelTrace]:
    """Run the sampling recursion through every level; trace t-1 holds level t's moments.

    ``base_draws`` holds standard normals, at least T-1 rows of S columns;
    row t-1 samples the level-t predictive. Every query row uses the same
    draws (common random numbers), so downstream functions of the output
    are continuous in x. Only the mixture moments are returned: a one-column
    pass, ``base_draws[:, [s]]``, gives draw s's own predictive moments at
    every level.

    A row's moments depend on the other rows of the batch only through
    floating-point rounding, and that is enough to move records. In a
    forrester5 and a reactor-proxy campaign (seed 0), rescoring every tenth
    acquisition batch as two halves changed 6 of 936 UCB values and 0 of
    5,320, and scoring each row alone changed 700 and 1,910. So dropping a
    batch's repeated rows, scoring rows ahead of the round that asks for
    them, or splitting a batch across processes would each change records.

    Level t >= 2 queries its layer at the m * S augmented rows (x_i, z_is)
    through ``gp._predict_augmented``, which scales and squares each x-part
    once on the m rows, not once per sample, and gives the very floats of
    ``gp.predict`` on ``np.column_stack`` of those rows. The mixture moments
    are ``np.add.reduce`` and a division by S, the ufuncs ``np.mean`` and
    ``np.var`` run, so they are those calls' floats too.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    base_draws = np.atleast_2d(np.asarray(base_draws, dtype=np.float64))
    top = model.num_levels
    S = base_draws.shape[1]
    if S < 1:
        raise DomainError("need at least one propagation sample")
    if base_draws.shape[0] < top - 1:
        raise DomainError(f"{base_draws.shape[0]} base draw rows, need {top - 1}")

    m = X.shape[0]
    mean, variance = gp.predict(model.layers[0], X)
    traces = [LevelTrace(mean=mean, variance=variance)]
    if top > 1:
        draws = mean[:, None] + np.sqrt(variance)[:, None] * base_draws[0]
    for t in range(2, top + 1):
        mu_flat, var_flat = gp._predict_augmented(model.layers[t - 1], X, draws)
        # layer predictive = identity in the augmented coordinate + correction GP
        mus = mu_flat.reshape(m, S)
        mus += draws
        vars_ = var_flat.reshape(m, S)
        # np.mean and np.var's own ufuncs: pairwise row sums, then a division by S
        level_mean = np.add.reduce(mus, axis=1)
        level_mean /= S
        spread = mus - level_mean[:, None]
        np.square(spread, out=spread)
        variance = np.add.reduce(vars_, axis=1)
        variance /= S
        spread_mean = np.add.reduce(spread, axis=1)
        spread_mean /= S
        variance += spread_mean
        traces.append(LevelTrace(mean=level_mean, variance=variance))
        if t < top:
            # mus + sqrt(vars_) * draws, in place: a float sum is the same either way round
            draws = np.sqrt(vars_, out=vars_)
            draws *= base_draws[t - 1]
            draws += mus
    return traces

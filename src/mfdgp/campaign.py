"""Cost-aware multi-fidelity Bayesian optimization campaigns.

A campaign is a ledger of evaluation records that one entry point,
:func:`resume`, brings to a budget: it evaluates what the ledger lacks of
the initial design (an n-point Latin hypercube at every fidelity), then
runs the BO loop, :func:`continue_run`. :func:`run` is ``resume`` on an
empty ledger. One loop iteration retrains the deep GP on all data so far,
maximizes the highest-fidelity UCB to propose a design point, picks the
fidelity whose cost-weighted predictive uncertainty there is largest,
evaluates the objective and appends the record. The spend, the per-fidelity
cost tau_t (:attr:`CampaignState.tau`) and the training data, one
``gp.GPDataset`` per level, all derive from the records, so a campaign
rebuilt from its log holds the same state as the live one. The budget is in
objective-reported cost units, and the single evaluation that crosses it is
kept. Any package error while training, acquiring or picking a fidelity
(recorded costs so far apart that a fidelity score overflows among them),
any objective failure, and any cost that would make the spend non-finite or
leave it unchanged ends the campaign with ``error`` set and the records
gathered so far kept.

A ladder may have a single rung: the loop on the top rung alone is the
single-fidelity baseline, with a one-layer (plain GP) surrogate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import acquisition, dgp, gp
from .dgp import FidelityLevel, MFDeepGP
from .errors import DomainError, InsufficientDataError, MfdgpError
from .space import DesignSpace
from .streams import ACQUISITION, DESIGN, PROPAGATION, TRAIN, derive_seed, substream

PHASE_INITIAL = "initial-design"
PHASE_LOOP = "bo-loop"

# Observation noise of every level's training data; objectives here are
# deterministic, so this is purely a conditioning floor.
OBS_NOISE = 1e-8


def _phase_of(iteration: int) -> str:
    return PHASE_INITIAL if iteration == 0 else PHASE_LOOP


def fidelity_scores(sigmas, taus, beta: float) -> np.ndarray:
    """Cost-weighted exploration scores gamma_t * sqrt(beta) * sigma_t.

    gamma_t = max(tau) / tau_t is a pure ratio of recorded costs, so the
    scores are invariant to rescaling all taus by a common factor, and the
    argmax is invariant to rescaling beta. Costs so far apart that a score
    is not finite (a subnormal tau can overflow the ratio) raise
    ``DomainError`` naming them.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.max(taus) / taus
        scores = gamma * np.sqrt(beta) * sigmas
    if not np.isfinite(scores).all():
        raise DomainError(
            f"cost ratio max(tau) / tau overflows the fidelity scores at tau = {taus.tolist()}"
        )
    return scores


def argmax_highest(scores) -> int:
    """0-based argmax with ties broken toward the highest index."""
    scores = np.asarray(scores, dtype=np.float64)
    return int(scores.shape[0] - 1 - np.argmax(scores[::-1]))


@dataclass(frozen=True)
class EvaluationRecord:
    """One ledger evaluation: finite ``y`` and ``x`` (a read-only copy), ``cost`` finite and > 0.

    ``iteration`` is an int >= 0: 0 for the initial design, k for loop
    iteration k. The record's :attr:`phase` derives from it.
    """

    x: np.ndarray
    level: FidelityLevel
    y: float
    cost: float
    iteration: int

    def __post_init__(self):
        if type(self.iteration) is not int or self.iteration < 0:  # a bool is not an int here
            raise DomainError(f"record iteration must be an int >= 0, got {self.iteration!r}")
        x = np.atleast_1d(np.array(self.x, dtype=np.float64))
        x.flags.writeable = False
        y = float(self.y)
        if not (np.isfinite(x).all() and np.isfinite(y)):
            raise DomainError(f"record x and y must be finite, got x={x.tolist()}, y={self.y!r}")
        cost = float(self.cost)
        if not np.isfinite(cost) or cost <= 0:
            raise DomainError(f"record cost must be finite and > 0, got {self.cost!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "cost", cost)

    @property
    def phase(self) -> str:
        return _phase_of(self.iteration)


@dataclass
class CampaignState:
    """Full optimization ledger for one campaign; ``records`` is its only campaign data."""

    ladder: tuple
    records: list = field(default_factory=list)
    budget_total: float = 0.0
    error: str | None = None

    @property
    def incumbent(self) -> EvaluationRecord | None:
        """Best observed record at the highest fidelity (the first of equals), else None."""
        top = max(lv.index for lv in self.ladder)
        at_top = [rec for rec in self.records if rec.level.index == top]
        return max(at_top, key=lambda rec: rec.y, default=None)

    @property
    def budget_spent(self) -> float:
        """The recorded costs summed left to right, the bits of a running total."""
        return sum((rec.cost for rec in self.records), 0.0)

    @property
    def tau(self) -> np.ndarray:
        """tau_t = mean of the costs recorded at level t, one entry per level in ladder order.

        A function of the records alone, so a state replayed from a log holds
        the live campaign's tau after its last record, bit for bit. Costs are
        finite and > 0 (:class:`EvaluationRecord` checks them). A level with no
        record has no mean, but :func:`train_model` then stops with
        ``InsufficientDataError`` before the loop reads tau.
        """
        return np.asarray(
            [np.mean([rec.cost for rec in group]) for group in self._by_level()],
            dtype=np.float64,
        )

    @property
    def loop_iterations(self) -> int:
        return sum(1 for rec in self.records if rec.phase == PHASE_LOOP)

    def per_level_counts(self) -> dict[int, int]:
        return {lv.index: len(group) for lv, group in zip(self.ladder, self._by_level())}

    def append(self, rec: EvaluationRecord) -> None:
        """Append ``rec``, refusing it when it would leave the spend non-finite or unchanged.

        Both ledger appenders, a campaign's evaluation and a log's replay, go
        through here, so no ledger's :attr:`budget_spent` is infinite, and
        every record moves it: a cost below half an ulp of the spend would
        let the loop run without end.
        """
        before = self.budget_spent
        spent = before + rec.cost
        if not np.isfinite(spent):
            raise DomainError(f"cost {rec.cost!r} takes the spend to {spent!r}")
        if spent == before:
            raise DomainError(f"cost {rec.cost!r} leaves the spend at {before!r}")
        self.records.append(rec)

    def _by_level(self) -> list[list[EvaluationRecord]]:
        """Each ladder level's records, in ladder order and in record order within a level."""
        groups = {lv.index: [] for lv in self.ladder}
        for rec in self.records:
            groups[rec.level.index].append(rec)
        return list(groups.values())


def _dataset_from_state(state: CampaignState) -> list[gp.GPDataset]:
    """Each ladder level's training data, in ladder order, at :data:`OBS_NOISE`.

    Raises ``InsufficientDataError`` naming the first level with no record.
    """
    # The acquisition may re-propose an already-evaluated point; objectives
    # are deterministic, so merging exact duplicates loses nothing and keeps
    # the kernel matrices well conditioned.
    levels = []
    for level, group in zip(state.ladder, state._by_level()):
        if not group:
            raise InsufficientDataError(f"level {level.index} has no observations")
        x = np.asarray([rec.x for rec in group], dtype=np.float64)
        y = np.asarray([rec.y for rec in group], dtype=np.float64)
        _, keep = np.unique(x, axis=0, return_index=True)
        keep.sort()
        levels.append(gp.GPDataset(inputs=x[keep], targets=y[keep], noise_variance=OBS_NOISE))
    return levels


def _evaluate(state, objective, x, level, iteration, on_record) -> bool:
    """Evaluate once and append the record, or set ``state.error`` and return False.

    The error reads "objective failed" when the objective raises or returns
    a value :class:`EvaluationRecord` refuses, and "ledger refused the
    evaluation" when :meth:`CampaignState.append` refuses a cost that would
    leave the spend not finite or unchanged.
    """
    where = (
        f"at iteration {iteration} ({_phase_of(iteration)}), "
        f"level {level.index}, x={np.asarray(x).tolist()}"
    )
    try:
        y, cost = objective.evaluate(x, level)
        rec = EvaluationRecord(x=x, level=level, y=y, cost=cost, iteration=iteration)
    except Exception as exc:
        state.error = f"objective failed {where}: {exc}"
        return False
    try:
        state.append(rec)
    except DomainError as exc:
        state.error = f"ledger refused the evaluation {where}: {exc}"
        return False
    if on_record is not None:
        on_record(rec)
    return True


def initial_design(
    state: CampaignState, objective, space: DesignSpace, n: int, rng_seed: int, on_record=None
) -> None:
    """Evaluate the n-point Latin hypercube of every fidelity that the ledger lacks.

    Level t's design is the LHS drawn from ``substream(rng_seed, DESIGN, t)``.
    If the ledger already holds k initial-design records at level t, its
    first k points are skipped, so a design cut short by a failure is
    finished from the point where it stopped. A failing objective sets
    ``state.error``, naming the level, and stops the design.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not state.ladder:
        raise DomainError("a campaign needs at least 1 fidelity level")
    done = Counter(rec.level.index for rec in state.records if rec.phase == PHASE_INITIAL)
    for level in state.ladder:
        points = space.sample_lhs(n, substream(rng_seed, DESIGN, level.index))
        for x in points[done[level.index]:]:
            if not _evaluate(state, objective, x, level, 0, on_record):
                return


def select_fidelity(model: MFDeepGP, x_star, tau, beta: float, rng_seed: int) -> FidelityLevel:
    """Pick the level maximizing gamma_t * sqrt(beta) * sigma_t(x*).

    ``tau`` holds one cost per level of ``model.ladder``, in ladder order
    (:attr:`CampaignState.tau`). sigma_t comes from propagating x* with
    :func:`dgp.point_draws` under ``rng_seed``. Ties (including the
    degenerate beta = 0 case where every score is 0) go to the highest level.
    """
    traces = dgp.propagate(model, x_star, dgp.point_draws(model, x_star, rng_seed))
    sigmas = np.asarray([tr.sigma[0] for tr in traces])
    scores = fidelity_scores(sigmas, tau, beta)
    return model.ladder[argmax_highest(scores)]


def train_model(state: CampaignState, rng_seed: int) -> MFDeepGP:
    """The model of the ledger's next loop iteration, trained under its TRAIN seed.

    The loop trains iteration k's model by :func:`dgp.train` on
    ``derive_seed(rng_seed, TRAIN, k)``; after the last iteration this is
    the final model a run reports from.
    """
    seed = derive_seed(rng_seed, TRAIN, state.loop_iterations + 1)
    return dgp.train(_dataset_from_state(state), seed, ladder=state.ladder)


def continue_run(
    state: CampaignState,
    objective,
    space: DesignSpace,
    beta: float,
    rng_seed: int,
    on_record=None,
) -> CampaignState:
    """Run the BO loop from an existing state until ``state.budget_total`` is spent.

    Each iteration's randomness is derived from (seed, stream, iteration),
    so continuing a reloaded state reproduces an uninterrupted run exactly.
    A package error while training, acquiring or picking a fidelity, a
    failing objective or a refused cost stops the loop with ``state.error``
    set; the records so far are kept.
    """
    while state.budget_spent < state.budget_total:
        k = state.loop_iterations + 1
        try:
            model = train_model(state, rng_seed)
            x_star = acquisition.solve_ucb(
                model, space, beta, derive_seed(rng_seed, ACQUISITION, k)
            )
            level = select_fidelity(
                model, x_star, state.tau, beta, derive_seed(rng_seed, PROPAGATION, k)
            )
        except MfdgpError as exc:
            state.error = f"model failed at iteration {k}: {exc}"
            break
        if not _evaluate(state, objective, x_star, level, k, on_record):
            break
    return state


def resume(
    state: CampaignState,
    objective,
    space: DesignSpace,
    n: int,
    beta: float,
    budget_total: float,
    rng_seed: int,
    on_record=None,
) -> CampaignState:
    """Bring any ledger to ``budget_total``: finish its initial design, then loop.

    ``beta``, the UCB exploration weight, is the loop's only setting: the
    fidelity-selection rule has no knobs of its own, being a pure function
    of predictive sigmas and recorded costs. It must be finite and >= 0, and
    is checked here, before any evaluation.

    An error left on ``state`` by an earlier run is cleared. The
    design points the ledger lacks are evaluated whatever the budget; the
    loop runs only once the design is complete.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise DomainError(f"beta must be finite and >= 0, got {beta!r}")
    state.error = None
    state.budget_total = budget_total
    initial_design(state, objective, space, n, rng_seed, on_record=on_record)
    if state.error is None:
        continue_run(state, objective, space, beta, rng_seed, on_record=on_record)
    return state


def run(
    objective,
    space: DesignSpace,
    ladder,
    n: int,
    beta: float,
    budget_total: float,
    rng_seed: int,
) -> CampaignState:
    """Full campaign: :func:`resume` on an empty ledger over ``ladder``.

    A campaign whose records are logged as they happen is :func:`resume`
    on ``CampaignState(ladder=...)`` with ``on_record``.
    """
    return resume(
        CampaignState(ladder=tuple(ladder)), objective, space, n, beta, budget_total, rng_seed
    )


def recommend(model: MFDeepGP, space: DesignSpace) -> np.ndarray:
    """The maximizer of the top-fidelity posterior mean, the campaign's recommendation.

    It is the UCB solve at beta = 0. The maximizer may interpolate beyond
    the data; the best observed top-fidelity record is
    :attr:`CampaignState.incumbent`.
    """
    return acquisition.solve_ucb(model, space, 0.0, 0)


def run_single_fidelity(
    objective,
    space: DesignSpace,
    n: int,
    beta: float,
    budget_total: float,
    rng_seed: int,
) -> CampaignState:
    """UCB baseline that only ever evaluates the highest fidelity.

    The single-fidelity comparison point for the multi-fidelity loop:
    :func:`run` on the top rung alone, so the same beta, budget accounting,
    training and failure handling, with a one-layer (plain GP) surrogate.
    """
    top = tuple(objective.ladder)[-1:]
    return run(objective, space, top, n, beta, budget_total, rng_seed)

"""Multi-fidelity Bayesian optimization with deep Gaussian process surrogates.

The package stacks exact GP layers into a sequentially composed deep GP
over a discrete fidelity ladder, and drives a cost-aware UCB loop that
decides both where to evaluate next and at which fidelity. Synthetic
benchmarks and a coiled-tube reactor proxy (tracer transport plus
tanks-in-series scoring) are included as pluggable objectives.
"""

from .acquisition import solve_ucb, ucb_values
from .campaign import (
    CampaignState,
    EvaluationRecord,
    argmax_highest,
    fidelity_scores,
    initial_design,
    recommend,
    resume,
    run,
    run_single_fidelity,
    select_fidelity,
    train_model,
)
from .dgp import (
    FidelityLevel,
    LevelTrace,
    MFDeepGP,
    MultiFidelityDataset,
    default_ladder,
    ladder_from_nominals,
    point_draws,
    propagate,
    train,
)
from .gp import (
    GPDataset,
    TrainedGP,
    fit,
    log_marginal_likelihood,
    predict,
)
from .kernels import KernelSpec, kernel_matrix
from .space import DesignSpace

__version__ = "0.1.0"

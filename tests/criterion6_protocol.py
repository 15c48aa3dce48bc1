"""Criterion 6 on ten seeds: the protocol for changes that move campaign records.

Runs the acceptance suite's criterion-6 campaign (forrester5, n = 1,
budget 60, default UCB config) and the single-fidelity baseline on seeds
0-9. For each seed it prints |x - x*|, the regret, the baseline's regret
and the level of every loop evaluation. It ends with the seeds 0-4
median |x - x*| (the criterion's statistic) and the hits (|x - x*| <=
0.05) on seeds 0-9. A change that passes seeds 0-4 but loses hits on
seeds 5-9 fits the seeds rather than the algorithm.

Not a tier-1 test (pytest does not collect it); run it by hand:

    PYTHONPATH=src python tests/criterion6_protocol.py
"""

import time

import numpy as np

from mfdgp import campaign
from mfdgp.objectives import ForresterFamily

SEEDS = range(10)
CRITERION_SEEDS = range(5)
BUDGET = 60.0
HIT = 0.05


def main() -> None:
    objective = ForresterFamily()
    xs = np.linspace(0.0, 1.0, 10_001)
    vals = -((6 * xs - 2) ** 2) * np.sin(12 * xs - 4)
    x_grid, f_grid = xs[np.argmax(vals)], np.max(vals)

    start = time.perf_counter()
    errors = []
    print("seed  |x - x*|    regret  baseline  loop levels")
    for seed in SEEDS:
        state = campaign.run(
            objective, objective.space, objective.ladder,
            n=1, beta=2.0, budget_total=BUDGET, rng_seed=seed,
        )
        baseline = campaign.run_single_fidelity(
            objective, objective.space, 1, 2.0,
            budget_total=BUDGET, rng_seed=seed,
        )
        inc = state.incumbent
        errors.append(abs(inc.x[0] - x_grid))
        levels = "".join(
            str(r.level.index) for r in state.records if r.phase == campaign.PHASE_LOOP
        )
        print(f"{seed:>4}  {errors[-1]:>9.4f}  {f_grid - inc.y:>8.3f}  "
              f"{f_grid - baseline.incumbent.y:>8.3f}  {levels or '-'}")

    median = float(np.median([errors[s] for s in CRITERION_SEEDS]))
    hits = [s for s in SEEDS if errors[s] <= HIT]
    print(f"seeds 0-4 median |x - x*| = {median:.4f} (criterion 6 asks <= {HIT})")
    print(f"hits on seeds 0-9 = {len(hits)}/{len(SEEDS)} (seeds {hits})")
    print(f"elapsed {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()

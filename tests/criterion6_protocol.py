"""Criterion 6 on forty seeds: the protocol for changes that move campaign records.

Runs the acceptance suite's criterion-6 campaign (forrester5, n = 1,
budget 60, default UCB config) and the single-fidelity baseline on seeds
0-39. For each of seeds 0-9 it prints |x - x*|, the regret, the
baseline's regret and the level of every loop evaluation. It then prints
the seeds 0-4 median |x - x*| (the criterion's statistic) and the hits
(|x - x*| <= 0.05) on seeds 0-9. A change that passes seeds 0-4 but loses
hits on seeds 5-9 fits the seeds rather than the algorithm. One more line
sums up seeds 10-39, because single seeds flip on small changes and ten
overstate a lever: the hits, the median
|x - x*|, the median regret and the baseline's, the seeds where the
multi-fidelity regret is below the baseline's, and the mean number of
top-level loop evaluations per seed.

Not a tier-1 test (pytest does not collect it); run it by hand:

    PYTHONPATH=src python tests/criterion6_protocol.py
"""

import time

import numpy as np

from mfdgp import campaign, helper
from mfdgp.objectives import ForresterFamily

SEEDS = range(10)
CRITERION_SEEDS = range(5)
WIDE_SEEDS = range(10, 40)
BUDGET = 60.0
HIT = 0.05


def run_seed(objective, seed, x_grid, f_grid):
    """|x - x*|, the regret, the baseline's regret and the loop levels of one seed.

    Each campaign runs in one helper block, as a CLI command does, so its
    trainings share one helper process where a second CPU is free.
    """
    with helper.block():
        state = campaign.run(
            objective, objective.space, objective.ladder,
            n=1, beta=2.0, budget_total=BUDGET, rng_seed=seed,
        )
    with helper.block():
        baseline = campaign.run_single_fidelity(
            objective, objective.space, 1, 2.0,
            budget_total=BUDGET, rng_seed=seed,
        )
    inc = state.incumbent
    levels = "".join(
        str(r.level.index) for r in state.records if r.phase == campaign.PHASE_LOOP
    )
    return abs(inc.x[0] - x_grid), f_grid - inc.y, f_grid - baseline.incumbent.y, levels


def main() -> None:
    objective = ForresterFamily()
    xs = np.linspace(0.0, 1.0, 10_001)
    vals = -((6 * xs - 2) ** 2) * np.sin(12 * xs - 4)
    x_grid, f_grid = xs[np.argmax(vals)], np.max(vals)
    top = str(objective.ladder[-1].index)

    start = time.perf_counter()
    errors = []
    print("seed  |x - x*|    regret  baseline  loop levels")
    for seed in SEEDS:
        error, regret, baseline, levels = run_seed(objective, seed, x_grid, f_grid)
        errors.append(error)
        print(f"{seed:>4}  {error:>9.4f}  {regret:>8.3f}  "
              f"{baseline:>8.3f}  {levels or '-'}")

    median = float(np.median([errors[s] for s in CRITERION_SEEDS]))
    hits = [s for s in SEEDS if errors[s] <= HIT]
    print(f"seeds 0-4 median |x - x*| = {median:.4f} (criterion 6 asks <= {HIT})")
    print(f"hits on seeds 0-9 = {len(hits)}/{len(SEEDS)} (seeds {hits})")

    wide = [run_seed(objective, seed, x_grid, f_grid) for seed in WIDE_SEEDS]
    errors, regrets, baselines, levels = zip(*wide)
    hits = sum(error <= HIT for error in errors)
    ahead = [s for s, r, b in zip(WIDE_SEEDS, regrets, baselines) if r < b]
    top_evals = np.mean([lv.count(top) for lv in levels])
    print(f"seeds 10-39: hits {hits}/{len(WIDE_SEEDS)}, "
          f"median |x - x*| {np.median(errors):.4f}, median regret {np.median(regrets):.3f} "
          f"(baseline {np.median(baselines):.3f}), ahead of the baseline on "
          f"{len(ahead)}/{len(WIDE_SEEDS)} (seeds {ahead}), "
          f"{top_evals:.2f} top-level loop evaluations per seed")
    print(f"elapsed {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()

"""The reactor-proxy protocol: does the multi-fidelity loop beat the single-fidelity one?

Runs reactor-proxy campaigns (n = 1, beta 2, budget 80) and the
single-fidelity baseline on seeds 0-5. The reference optimum f* is the
level-5 tank count N at the Pe-maximizing corner of the design box,
(20, 1.5, 4, 0.5): N depends on the geometry only through Pe, and it rises
with Pe. For each seed it prints the regret f* - y of the campaign's
incumbent, the baseline's regret and the level of every loop evaluation.
It ends with both medians.

Not a tier-1 test (pytest does not collect it); run it by hand:

    PYTHONPATH=src python tests/reactor_protocol.py
"""

import time

import numpy as np

from mfdgp import campaign, helper
from mfdgp.objectives import ReactorProxyObjective

SEEDS = range(6)
BUDGET = 80.0
PE_ARGMAX = (20.0, 1.5, 4.0, 0.5)


def main() -> None:
    objective = ReactorProxyObjective()
    f_star, _ = objective.evaluate(PE_ARGMAX, objective.ladder[-1])
    print(f"f* = {f_star:.3f} (level-5 N at {PE_ARGMAX})")

    start = time.perf_counter()
    regrets, baselines = [], []
    print("seed    regret  baseline  loop levels")
    for seed in SEEDS:
        # one helper block per campaign, as a CLI command runs, so its
        # trainings share one helper process where a second CPU is free
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
        regrets.append(f_star - state.incumbent.y)
        baselines.append(f_star - baseline.incumbent.y)
        levels = "".join(
            str(r.level.index) for r in state.records if r.phase == campaign.PHASE_LOOP
        )
        print(f"{seed:>4}  {regrets[-1]:>8.3f}  {baselines[-1]:>8.3f}  {levels or '-'}")

    print(f"median regret = {np.median(regrets):.3f}, "
          f"baseline median regret = {np.median(baselines):.3f}")
    print(f"elapsed {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()

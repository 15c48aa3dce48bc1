"""A full cost-aware multi-fidelity campaign on the Forrester family.

Runs the UCB loop with a 60-unit budget, then prints the fidelity
timeline and compares the incumbent against the known optimum.
"""

import numpy as np

from mfdgp.campaign import recommend, run, train_model
from mfdgp.objectives import ForresterFamily

objective = ForresterFamily()
state = run(
    objective, objective.space, objective.ladder,
    n=1, beta=2.0, budget_total=60.0, rng_seed=1,
)

print("fidelity timeline (level per evaluation):")
for rec in state.records:
    tag = "init" if rec.phase == "initial-design" else f"it{rec.iteration:02d}"
    print(f"  {tag}  level {rec.level.index}  x={rec.x[0]:.4f}  y={rec.y:+.3f}  cost={rec.cost:g}")

print(f"\nbudget spent: {state.budget_spent:g} / {state.budget_total:g}")
print("per-level evaluation counts:", state.per_level_counts())

x_star, f_star = objective.known_optimum()
incumbent = state.incumbent
model = train_model(state, 1)
model_best = recommend(model, objective.space)
print(f"\ntrue optimum      : x={x_star[0]:.4f}  f={f_star:+.4f}")
print(f"observed incumbent: x={incumbent.x[0]:.4f}  y={incumbent.y:+.4f}")
print(f"model-best point  : x={model_best[0]:.4f}")

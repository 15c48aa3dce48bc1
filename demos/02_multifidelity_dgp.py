"""A two-fidelity deep GP on the classic nonlinear benchmark pair.

The low fidelity is a fast oscillation; the high fidelity is a nonlinear
transformation of it. The stacked model fuses 30 cheap and 8 expensive
observations; a plain GP sees only the 8 expensive ones.
"""

import numpy as np

from mfdgp.dgp import propagate, train
from mfdgp.gp import GPDataset, fit, predict


def f_low(x):
    return np.sin(8 * np.pi * x)


def f_high(x):
    return (x - np.sqrt(2)) * f_low(x) ** 2


x_lo = np.linspace(0, 1, 30)[:, None]
x_hi = np.linspace(0, 1, 8)[:, None]

# one dataset per fidelity, lowest first
levels = [
    GPDataset(inputs=x_lo, targets=f_low(x_lo[:, 0]), noise_variance=1e-8),
    GPDataset(inputs=x_hi, targets=f_high(x_hi[:, 0]), noise_variance=1e-8),
]
model = train(levels, 4, 0)

# one set of base draws, shared by every grid point
grid = np.linspace(0, 1, 201)[:, None]
base_draws = np.random.default_rng(1).standard_normal((1, model.propagation_samples))
mu = propagate(model, grid, base_draws)[-1].mean
truth = f_high(grid[:, 0])
print("deep GP   rmse vs truth:", float(np.sqrt(np.mean((mu - truth) ** 2))))

single = fit(
    GPDataset(inputs=x_hi, targets=f_high(x_hi[:, 0]), noise_variance=1e-8),
    restarts=4,
    rng_seed=0,
)
mu_sf, _ = predict(single, grid)
print("plain GP  rmse vs truth:", float(np.sqrt(np.mean((mu_sf - truth) ** 2))))
print("(lower is better; the stack borrows shape from the cheap fidelity)")

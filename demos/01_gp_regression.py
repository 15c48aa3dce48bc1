"""Exact GP regression on a toy curve.

Fits squared-exponential hyperparameters by marginal likelihood from a
data-scaled start, prints the learned kernel, and checks the posterior
against the observations.
"""

import numpy as np

from mfdgp.gp import GPDataset, fit, log_marginal_likelihood, predict

rng = np.random.default_rng(0)
X = np.sort(rng.uniform(0, 1, 9))[:, None]
y = np.sin(6 * X[:, 0]) + 0.05 * rng.standard_normal(9)

data = GPDataset(inputs=X, targets=y, noise_variance=0.05**2)
model = fit(data, restarts=4, rng_seed=1)

print("fitted lengthscale :", model.kernel.lengthscales)
print("fitted signal var  :", model.kernel.signal_variance)
print("log marginal lik   :", log_marginal_likelihood(model))

grid = np.linspace(0, 1, 9)[:, None]
mean, var = predict(model, grid)
print("\n  x      truth    mean     sd")
for g, m, v in zip(grid[:, 0], mean, np.sqrt(var)):
    print(f"{g:5.2f}  {np.sin(6 * g):+7.3f}  {m:+7.3f}  {np.sqrt(max(v, 0)):6.3f}")

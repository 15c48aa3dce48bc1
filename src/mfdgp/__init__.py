"""Multi-fidelity Bayesian optimization with deep Gaussian process surrogates.

The package stacks exact GP layers into a sequentially composed deep GP
over a discrete fidelity ladder, and drives a cost-aware UCB loop that
decides both where to evaluate next and at which fidelity. Synthetic
benchmarks and a coiled-tube reactor proxy (tracer transport plus
tanks-in-series scoring) are included as pluggable objectives.

Each layer has one home, and callers import its names from there:

* :mod:`.kernels` -- covariance functions (``KernelSpec``, ``kernel_matrix``);
* :mod:`.gp` -- one exact GP layer (``GPDataset``, ``fit``, ``predict``,
  ``TrainedGP``, ``log_marginal_likelihood``);
* :mod:`.dgp` -- the fidelity ladder and the deep GP stack (``FidelityLevel``,
  ``MFDeepGP``, ``train`` on one ``GPDataset`` per level, ``propagate``);
* :mod:`.space` -- the design box (``DesignSpace``);
* :mod:`.acquisition` -- the top-fidelity UCB and its maximizer (``solve_ucb``);
* :mod:`.campaign` -- the ledger and the BO loop (``run``, ``resume``,
  ``train_model``, ``select_fidelity``, ``recommend``);
* :mod:`.objectives` -- the benchmark objectives and the reactor proxy;
* :mod:`.config`, :mod:`.logio` and :mod:`.cli` -- the command-line front end.
"""

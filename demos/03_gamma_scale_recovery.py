"""Gamma cross-entropy minimization through an unnormalized model.

The gamma objective hides its integral inside a logarithm, which breaks
the plain unbiased-gradient trick.  Attaching a free scale c to the
density and descending the power objective of c * p restores it: the
augmented gradient stays unbiased, and the scale it learns estimates the
inlier mass.  Here the data are 10% contaminated, so c should approach
0.9 while the location stays near the clean truth.
"""

import numpy as np

from dpdfit import (
    ContaminationSpec,
    CurrentModel,
    Normal1D,
    NormalParams,
    StepDecay,
    contaminated_sample,
    mle_normal,
    sgd_run,
    stochastic_grad_gamma,
)

model = Normal1D()
truth = model.from_natural(NormalParams(mu=0.0, sigma=1.0))
spec = ContaminationSpec(
    model=model, truth=truth, outlier_mean=10.0, outlier_sd=1.0, xi=0.1, n=1000
)
data = contaminated_sample(spec, np.random.default_rng(0))
gamma = 0.5


def grad(psi, rng):
    # psi = (theta, log c); the estimator returns the log-c gradient
    return stochastic_grad_gamma(model, psi, data.points, gamma, 10, CurrentModel(), rng).g


start = np.concatenate([mle_normal(data), [0.0]])  # c starts at 1
result = sgd_run(grad, start, StepDecay(1.0, 0.7, 25), 500, np.random.default_rng(1))

print("iteration   scale c")
for t in range(0, len(result.trace), 100):
    print(f"{t:>9}   {np.exp(result.trace[t, -1]):.4f}")
final = result.trace[-1]
p = model.to_natural(final[:-1])
print(f"\nfinal fit: mu = {p.mu:+.3f}, sigma = {p.sigma:.3f}, "
      f"c = {np.exp(final[-1]):.3f} (inlier mass 1 - xi = 0.9)")

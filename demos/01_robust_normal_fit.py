"""Robust location-scale estimation under contamination.

Draws n = 1000 points from 0.9 * N(0, 1) + 0.1 * N(10, 1), then fits a
normal model by maximum likelihood and by stochastic minimization of the
density-power objective at several robustness levels.  The MLE chases
the outlier cloud; the power estimators ignore it, more strongly as the
power grows.  The normal family admits an exact integral term, so the
exact objective is printed along the run.
"""

import numpy as np

from dpdfit import (
    ClosedForm,
    ContaminationSpec,
    CurrentModel,
    Normal1D,
    NormalParams,
    StepDecay,
    contaminated_sample,
    empirical_dpce,
    mle_normal,
    select_tau,
    sgd_run,
    stochastic_grad_dpd,
)

model = Normal1D()
truth = model.from_natural(NormalParams(mu=0.0, sigma=1.0))
spec = ContaminationSpec(
    model=model, truth=truth, outlier_mean=10.0, outlier_sd=1.0, xi=0.1, n=1000
)
data = contaminated_sample(spec, np.random.default_rng(0))
print(f"dataset: n = {data.n}, outliers = {int(data.is_outlier.sum())}")

theta_mle = mle_normal(data)
p = model.to_natural(theta_mle)
print(f"MLE fit:          mu = {p.mu:+.3f}  sigma = {p.sigma:.3f}"
      "   <- dragged toward the outliers")

schedule = StepDecay(eta0=1.0, rate=0.7, period=25)
for beta in (0.1, 0.5, 1.0):
    def grad(theta, rng, beta=beta):
        return stochastic_grad_dpd(
            model, theta, data.points, beta, 10, CurrentModel(), rng
        ).g

    result = sgd_run(grad, theta_mle, schedule, 500, np.random.default_rng(1))
    p = model.to_natural(result.trace[-1])
    first, last = (
        empirical_dpce(model, theta, data.points, beta, ClosedForm()).value
        for theta in (result.trace[0], result.trace[-1])
    )
    print(f"power beta = {beta:3.1f}: mu = {p.mu:+.3f}  sigma = {p.sigma:.3f}"
          f"   objective {first:+.4f} -> {last:+.4f}")

# Nonconvex descent guarantees hold for a randomly chosen iterate with
# P(tau = k) ~ 2*eta_k - L*eta_k^2 rather than for the last one.  Those
# weights favor large steps, so under geometric decay the draw lands
# early; the last iterate (reported above) is what the experiments use.
etas = [schedule.at(t) for t in range(1, 501)]
tau = select_tau(etas, 1.0, np.random.default_rng(2))
p = model.to_natural(result.trace[tau])
print(f"\nrandomized stopping index tau = {tau}: "
      f"mu = {p.mu:+.3f}  sigma = {p.sigma:.3f}")

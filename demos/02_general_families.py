"""Robust fits for families with intractable integral terms.

The inverse normal, Gompertz, and two-component mixture densities have
no closed-form power integral, which is exactly where the stochastic
gradient earns its keep: the integral-term gradient is estimated by
sampling the current model, so no quadrature appears anywhere in the
loop.  Each family is contaminated with an N(10, 1) cloud and fit at
beta = 0.5, starting from the (outlier-sensitive) MLE.
"""

import numpy as np

from dpdfit import (
    ContaminationSpec,
    CurrentModel,
    Gompertz,
    GompertzParams,
    InverseNormal,
    InverseNormalParams,
    MixtureParams,
    NormalMixture2,
    StepDecay,
    contaminated_sample,
    mle_gompertz,
    mle_inverse_normal,
    mle_mixture,
    sgd_run,
    stochastic_grad_dpd,
)

SETTINGS = [
    # model, true natural parameters, contamination, steps, eta0, MLE
    (InverseNormal(), InverseNormalParams(mu=1.0, lam=3.0), 0.1, 1000, 1.0,
     mle_inverse_normal),
    (Gompertz(), GompertzParams(omega=1.0, lam=0.1), 0.01, 1000, 0.5,
     mle_gompertz),
    (NormalMixture2(), MixtureParams(-5, 1, 0, 1, 0.6), 0.01, 1000, 1.0,
     lambda ds: mle_mixture(ds, rng=np.random.default_rng(2))),
]

for model, natural, xi, steps, eta0, init in SETTINGS:
    truth = model.from_natural(natural)
    spec = ContaminationSpec(
        model=model, truth=truth, outlier_mean=10.0, outlier_sd=1.0, xi=xi,
        n=1000,
    )
    data = contaminated_sample(spec, np.random.default_rng(0))
    theta0 = init(data)

    def grad(theta, rng):
        return stochastic_grad_dpd(
            model, theta, data.points, 0.5, 10, CurrentModel(), rng
        ).g

    result = sgd_run(grad, theta0, StepDecay(eta0, 0.7, 25), steps,
                     np.random.default_rng(1))
    print(f"== {model.name} (xi = {xi})")
    print(f"   truth: {natural}")
    print(f"   MLE:   {model.to_natural(theta0)}")
    print(f"   DPD:   {model.to_natural(result.trace[-1])}")

"""Stochastic gradients vs quadrature gradients, matched by budget.

The d-variate unit-covariance normal makes the comparison sharp: its
integral term is exactly computable, so the quadrature baseline's only
job is to approximate something a ten-draw Monte Carlo estimate handles
for free.  Each method runs T = 300 steps from the MLE on 500 points
with five planted outliers; the table reports the squared error of the
final estimate and the cumulative number of density evaluations
T * (n + draws-or-nodes), the budget axis on which the methods compete.
"""

import numpy as np

from dpdfit import (
    ContaminationSpec,
    CurrentModel,
    IsoNormal,
    Lattice,
    StepDecay,
    contaminated_sample,
    gd_run,
    lattice_grad_dpd,
    mle_isonormal,
    sgd_run,
    stochastic_grad_dpd,
)

T, N, BETA = 300, 500, 0.5
schedule = StepDecay(eta0=1.0, rate=0.7, period=20)
omega = float(np.mean([schedule.at(t) for t in range(1, T + 1)]))

print(f"{'d':>2} {'method':<10} {'size':>6} {'error':>10} {'complexity':>11}")
for d in (2, 3):
    model = IsoNormal(d)
    truth = np.full(d, 0.5)
    spec = ContaminationSpec(
        model=model, truth=truth, outlier_mean=truth + 100.0, outlier_sd=0.1,
        xi=0.01, n=N, fixed_count=True,
    )
    data = contaminated_sample(spec, np.random.default_rng(0))
    theta0 = mle_isonormal(data)

    for m in (3, 10):
        def grad(theta, rng, m=m):
            return stochastic_grad_dpd(
                model, theta, data.points, BETA, m, CurrentModel(), rng
            ).g

        res = sgd_run(grad, theta0, schedule, T, np.random.default_rng(1))
        err = ((res.trace[-1] - truth) ** 2).sum()
        steps = len(res.trace) - 1
        print(f"{d:>2} {'sgd':<10} {m:>6} {err:>10.4f} {steps * (N + m):>11}")

    for nodes in (3, 10):
        backend = Lattice(extent=2.0, nodes=nodes)

        def grad(theta, backend=backend):
            return lattice_grad_dpd(model, theta, data.points, BETA, backend)

        total = backend.total_points(model)
        res = gd_run(grad, theta0, omega, T)
        err = ((res.trace[-1] - truth) ** 2).sum()
        steps = len(res.trace) - 1
        print(f"{d:>2} {'gd-ni':<10} {total:>6} {err:>10.4f} {steps * (N + total):>11}")

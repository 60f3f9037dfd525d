"""Robust parametric density estimation via density power divergences.

The estimators minimize the empirical density-power cross entropy (or
its gamma relative) by stochastic gradient descent with an unbiased
importance-sampled gradient, which keeps the intractable integral term
out of the inner loop.  A numerical-integration gradient-descent
baseline, maximum-likelihood initializers, contaminated data generators,
and a command-line experiment harness round out the toolkit.
"""

from .datagen import ContaminationSpec, Dataset, contaminated_sample
from .divergence import (
    Lattice,
    empirical_dpce,
    empirical_gce,
    empirical_power_term,
    lattice_r,
)
from .gradients import (
    CurrentModel,
    FixedNormal,
    GradEstimate,
    lattice_grad_dpd,
    stochastic_grad_dpd,
    stochastic_grad_gamma,
)
from .mle import (
    em_mixture,
    mle_gompertz,
    mle_inverse_normal,
    mle_isonormal,
    mle_mixture,
    mle_normal,
)
from .models import (
    VARIANCE_FLOOR,
    Gompertz,
    GompertzParams,
    InverseNormal,
    InverseNormalParams,
    IsoNormal,
    IsoNormalParams,
    MixtureParams,
    Model,
    Normal1D,
    NormalMixture2,
    NormalParams,
    get_model,
)
from .optim import (
    RunResult,
    StepDecay,
    gd_run,
    select_tau,
    sgd_run,
)

__version__ = "0.1.0"

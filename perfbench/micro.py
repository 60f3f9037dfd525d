"""Kernel micro-measurements at fixed sizes, outside the workloads' timing.

Each figure is the median over ``BATCHES`` batches of the time per call,
where a batch repeats the call until it lasts at least ``MIN_BATCH_S``.
Inputs are drawn from the workload seed, so a seed gives the same inputs.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

MIN_BATCH_S = 0.01
BATCHES = 5
BETA = 0.5


def _per_call(fn, batches=BATCHES):
    calls = 1
    while True:
        start = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - start >= MIN_BATCH_S:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples)


def _families():
    """(registry name, model, true parameters) of every ``get_model`` family."""
    from dpdfit import models as m

    truths = {
        "normal": m.NormalParams(mu=0.0, sigma=1.0),
        "inverse-normal": m.InverseNormalParams(mu=1.0, lam=3.0),
        "gompertz": m.GompertzParams(omega=1.0, lam=0.1),
        "mixture": m.MixtureParams(mu1=-5.0, sigma1=1.0, mu2=0.0, sigma2=1.0, alpha=0.6),
        "isonormal2": m.IsoNormalParams(mean=np.full(2, 0.5)),
        "isonormal3": m.IsoNormalParams(mean=np.full(3, 0.5)),
    }
    for name, params in truths.items():
        model = m.get_model(name)
        yield name, model, model.from_natural(params)


def measure(seed, work_dir):
    """Every micro-measurement, by metric name; units as in ``BENCHMARK.json``."""
    from dpdfit.datagen import ContaminationSpec, Dataset, contaminated_sample
    from dpdfit.divergence import Lattice, lattice_points
    from dpdfit.gradients import data_term, lattice_grad_dpd
    from dpdfit.optim import StepDecay, sgd_run

    rng = np.random.default_rng([seed, 7])
    families = {name: (model, theta) for name, model, theta in _families()}
    out = {}
    for name, (model, theta) in families.items():
        for n, tag in ((1000, "n1e3"), (100_000, "n1e5")):
            x = model.sample(theta, rng, n)
            for kernel in ("log_pdf", "score"):
                fn = getattr(model, kernel)
                sec = _per_call(lambda: fn(theta, x))
                out[f"models.{name}.{kernel}.ns_per_point.{tag}"] = sec / n * 1e9
            if n == 1000:
                sec = _per_call(lambda: data_term(model, theta, x, BETA))
                out[f"gradients.data_term.{name}.n1e3.us"] = sec * 1e6

    model, theta = families["isonormal3"]
    x = model.sample(theta, rng, 500)
    lattice = Lattice(extent=2.0, nodes=50)
    sec = _per_call(lambda: lattice_grad_dpd(model, theta, x, BETA, lattice))
    out["gradients.lattice_grad_dpd.d3m50.ms"] = sec * 1e3
    sec = _per_call(lambda: lattice_points(model, lattice))
    out["divergence.lattice_points.d3m50.ms"] = sec * 1e3

    steps, zero = 1000, np.zeros(2)
    schedule = StepDecay(eta0=1.0, rate=0.7, period=25)
    sec = _per_call(lambda: sgd_run(lambda th, r: zero, zero, schedule, steps, rng))
    out["optim.sgd_run.step_overhead_us"] = sec / steps * 1e6

    model, theta = families["normal"]
    spec = ContaminationSpec(model=model, truth=theta, outlier_mean=10.0,
                             outlier_sd=1.0, xi=0.1, n=100_000)
    ds = contaminated_sample(spec, rng)
    path = os.path.join(work_dir, "micro-data.csv")
    out["datagen.to_csv.n1e5.s"] = _per_call(lambda: ds.to_csv(path), 3)
    out["datagen.from_csv.n1e5.s"] = _per_call(lambda: Dataset.from_csv(path), 3)
    os.remove(path)
    return out


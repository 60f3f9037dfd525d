"""Plain first-order descent loops with trace capture.

``sgd_run`` applies ``theta <- theta - eta_t * g(theta)`` with a
decaying step size and a stochastic gradient source; ``gd_run`` is the
constant-rate variant for deterministic sources.  Both record one trace
row per iteration (plus the initial state) and stop with a divergence
flag instead of propagating numerical blow-ups.  They only descend:
quantities read from the iterates, such as an exact objective, are
computed by the caller from the recorded parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A run is flagged as diverged when any parameter magnitude passes
# PARAM_LIMIT, any gradient component passes GRAD_LIMIT, or anything
# goes non-finite.
PARAM_LIMIT = 1e8
GRAD_LIMIT = 1e12


@dataclass(frozen=True)
class StepDecay:
    """Step-decay schedule ``eta_t = eta0 * rate**floor(t / period)``."""

    eta0: float
    rate: float
    period: int

    def __post_init__(self):
        if not (np.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError(f"eta0 must be finite and > 0, got {self.eta0}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("decay rate must lie in (0, 1)")
        if self.period < 1:
            raise ValueError("decay period must be >= 1")

    def at(self, t):
        return self.eta0 * self.rate ** (t // self.period)


@dataclass(frozen=True)
class Constant:
    """Constant learning rate, for deterministic gradient sources."""

    value: float

    def at(self, t):
        return self.value


@dataclass
class TraceRecord:
    t: int
    eta: float
    params: np.ndarray
    complexity: int


@dataclass
class RunResult:
    trace: list
    final_params: np.ndarray
    diverged: bool


def _descent(grad_fn, theta0, schedule, n_steps, cost_per_iter):
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite initial parameters")
    trace = [TraceRecord(0, 0.0, theta.copy(), 0)]
    diverged = False
    for t in range(1, n_steps + 1):
        eta = schedule.at(t)
        g = np.asarray(grad_fn(theta), dtype=float)
        if not np.all(np.isfinite(g)) or np.abs(g).max() > GRAD_LIMIT:
            diverged = True
            break
        candidate = theta - eta * g
        if not np.all(np.isfinite(candidate)) or np.abs(candidate).max() > PARAM_LIMIT:
            diverged = True
            break
        theta = candidate
        trace.append(TraceRecord(t, eta, theta.copy(), t * cost_per_iter))
    return RunResult(trace=trace, final_params=theta, diverged=diverged)


def sgd_run(grad_source, theta0, schedule, n_steps, rng, cost_per_iter=0):
    """Stochastic descent: ``grad_source(theta, rng)`` is drawn afresh
    each iteration.  Returns the trace with one record after every
    update (plus one for the initial state)."""
    if n_steps < 0:
        raise ValueError("number of steps must be >= 0")
    return _descent(lambda th: grad_source(th, rng), theta0, schedule, n_steps,
                    cost_per_iter)


def gd_run(grad_source, theta0, omega, n_steps, cost_per_iter=0):
    """Constant-rate descent for a deterministic ``grad_source(theta)``."""
    if omega < 0:
        raise ValueError("learning rate must be >= 0")
    return _descent(grad_source, theta0, Constant(omega), n_steps, cost_per_iter)


def select_tau(etas, lipschitz, rng):
    """Draw a 1-based stopping index with P(tau=k) ~ 2*eta_k - L*eta_k^2.

    Requires every step size below ``2 / lipschitz``; the weights are
    then strictly positive.
    """
    etas = np.asarray(etas, dtype=float)
    if lipschitz <= 0:
        raise ValueError("Lipschitz constant must be positive")
    if np.any(etas >= 2.0 / lipschitz):
        raise ValueError("every step size must be below 2 / lipschitz")
    weights = 2.0 * etas - lipschitz * etas**2
    probs = weights / weights.sum()
    return int(rng.choice(len(etas), p=probs)) + 1

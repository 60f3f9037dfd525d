"""Plain first-order descent loops with trace capture.

``sgd_run`` applies ``theta <- theta - eta_t * g(theta)`` with a
decaying step size and a stochastic gradient source; ``gd_run`` is the
constant-rate variant for deterministic sources.  Both return every
iterate, the start included, and stop with a divergence flag instead
of propagating numerical blow-ups.  They only descend: quantities read
from the iterates, such as an exact objective, a step size or a count
of density evaluations, are computed by the caller.
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


@dataclass
class RunResult:
    """``trace[t]`` is theta after ``t`` updates, row 0 the start; a
    diverged run ends at its last accepted iterate."""

    trace: np.ndarray
    diverged: bool


def _descent(grad_fn, theta0, eta_at, n_steps):
    theta = np.array(theta0, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite initial parameters")
    trace = [theta.copy()]
    diverged = False
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=float)
        if not np.all(np.isfinite(g)) or np.abs(g).max() > GRAD_LIMIT:
            diverged = True
            break
        candidate = theta - eta_at(t) * g
        if not np.all(np.isfinite(candidate)) or np.abs(candidate).max() > PARAM_LIMIT:
            diverged = True
            break
        theta = candidate
        trace.append(theta.copy())
    return RunResult(trace=np.array(trace), diverged=diverged)


def sgd_run(grad_source, theta0, schedule, n_steps, rng):
    """Stochastic descent: ``grad_source(theta, rng)`` is drawn afresh
    each iteration, and step ``t`` moves by ``schedule.at(t)``."""
    if n_steps < 0:
        raise ValueError("number of steps must be >= 0")
    return _descent(lambda th: grad_source(th, rng), theta0, schedule.at, n_steps)


def gd_run(grad_source, theta0, omega, n_steps):
    """Descent at the one rate ``omega`` for a deterministic ``grad_source(theta)``."""
    if omega < 0:
        raise ValueError("learning rate must be >= 0")
    return _descent(grad_source, theta0, lambda t: omega, n_steps)


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

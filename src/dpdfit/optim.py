"""Plain first-order descent loops with trace capture.

``sgd_run`` applies ``theta <- theta - eta_t * g(theta)`` with a
decaying step size and a stochastic gradient source; ``gd_run`` is the
constant-rate variant for deterministic sources.  Both return every
iterate, the start included, and stop with a stated reason instead of
propagating numerical blow-ups.  They only descend: quantities read
from the iterates, such as an exact objective, a step size or a count
of density evaluations, are computed by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A run is flagged as diverged when any parameter magnitude passes
# PARAM_LIMIT, any gradient component passes GRAD_LIMIT, or anything
# goes non-finite; a start that is NaN, +-inf or past PARAM_LIMIT is an input error.
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
    """``trace[t]`` is theta after ``t`` updates, row 0 the start.  A
    diverged run ends at its last accepted iterate, and ``reason`` names
    the step and the check that stopped it; None for a run that took every step."""

    trace: np.ndarray
    reason: str | None

    @property
    def diverged(self):
        return self.reason is not None


def _stop_reason(t, what, values, limit_name, limit):
    """Why step ``t`` stops, or None: the first entry of ``values`` that is NaN,
    +-inf or past ``limit``, read as Python floats."""
    for i, v in enumerate(values.ravel().tolist()):  # ravel: a 0-d theta is one entry
        if not abs(v) <= limit:  # also True for NaN
            if np.isnan(v):
                state = "is NaN"
            elif np.isinf(v):
                state = f"is {v:+}"
            else:
                state = f"= {v:.6g} is past {limit_name} = {limit:g}"
            return f"diverged at step {t}: {what}[{i}] {state}"
    return None


def checked_start(theta0):
    """``theta0`` as a new float array; ValueError if an entry is NaN or past ``PARAM_LIMIT``."""
    theta = np.array(theta0, dtype=float)
    if _stop_reason(0, "theta", theta, "PARAM_LIMIT", PARAM_LIMIT):
        raise ValueError(f"initial parameters {theta.tolist()} lie past the descent's "
                         f"bound |theta| <= {PARAM_LIMIT:g}")
    return theta


def _descent(grad_fn, theta0, eta_at, n_steps):
    theta = checked_start(theta0)
    trace = [theta.copy()]
    reason = None
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=float)
        if reason := _stop_reason(t, "gradient", g, "GRAD_LIMIT", GRAD_LIMIT):
            break
        candidate = theta - eta_at(t) * g
        if reason := _stop_reason(t, "candidate theta", candidate, "PARAM_LIMIT", PARAM_LIMIT):
            break
        theta = candidate  # a new array: the trace keeps it as it is
        trace.append(theta)
    return RunResult(trace=np.array(trace), reason=reason)


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

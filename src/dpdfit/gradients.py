"""Gradient estimators for the density-power objectives.

Three routes to the gradient of the empirical objective:

* ``stochastic_grad_dpd`` -- the unbiased Monte Carlo estimator: the
  data term is computed exactly, the integral-term gradient is estimated
  by importance sampling from a proposal distribution.
* ``lattice_grad_dpd`` -- deterministic, with the integral-term gradient
  from the same regular grid as :func:`dpdfit.divergence.lattice_r`.
* ``stochastic_grad_gamma`` -- the augmented estimator for gamma
  cross-entropy minimization with an unnormalized model ``c * p``; the
  scale coordinate is chain-ruled to ``log c`` so that plain additive
  updates keep the scale positive.

Every route evaluates the model through its fused
``log_pdf_and_score`` kernel, once per set of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _data_points, lattice_points

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class CurrentModel:
    """Draw proposal samples from the model at the current parameters."""


@dataclass(frozen=True)
class FixedNormal:
    """Fixed (isotropic) normal proposal; real-support models only."""

    mean: float | np.ndarray
    sd: float

    def __post_init__(self):
        if not (np.isfinite(self.sd) and self.sd > 0):
            raise ValueError(f"fixed normal proposal needs a finite sd > 0, got {self.sd}")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("fixed normal proposal needs a finite mean")


@dataclass
class GradEstimate:
    """A gradient estimate plus its per-draw diagnostics.

    ``draw_terms`` holds the integrand ``w(y) p(y)**beta t(y)`` of every
    proposal draw (one row per draw) and ``draw_weights`` the scalar
    factors ``w(y) p(y)**beta``, so callers can study the Monte Carlo
    distribution without re-running the model.
    """

    g: np.ndarray
    draw_terms: np.ndarray
    draw_weights: np.ndarray


def _weighted_rows(weights, score):
    """Rows ``weights[i] * score[i]``; ``score`` is a kernel's own output.

    Only an exactly zero weight (zero density, or underflow) gives a zero
    row: its score, which may be undefined there, is zeroed in place
    first.  A NaN weight propagates, so that the descent loop flags the
    step instead of losing the point.
    """
    dead = weights == 0
    if dead.any():  # in place: a masked copy of every row costs more at large n
        score[dead] = 0.0
    return weights[:, None] * score


def _weighted_score_sum(model, theta, x, power):
    """Weights ``w_i = p(x_i)**power`` and the sum ``sum_i w_i t(x_i)``."""
    lp, score = model.log_pdf_and_score(theta, x)
    w = np.exp(power * lp)
    return w, _weighted_rows(w, score).sum(axis=0)


def data_term(model, theta, data, beta):
    """Exact data-side gradient term ``-(1/n) sum_i p(x_i)**beta t(x_i)``.

    Points where the density vanishes contribute zero and their score is
    never evaluated (it may be undefined outside the support).
    """
    x = _data_points(data)
    return -_weighted_score_sum(model, theta, x, beta)[1] / x.shape[0]


def _draw_proposal(model, theta, proposal, m, rng):
    """Sample the proposal; returns draws and their log-density, or None
    for the current-model proposal (whose importance weight is one)."""
    if isinstance(proposal, CurrentModel):
        return model.sample(theta, rng, m), None
    if isinstance(proposal, FixedNormal):
        if model.support != "real":
            raise ValueError(
                f"fixed normal proposal does not cover the support of {model.name}"
            )
        mean = np.asarray(proposal.mean, dtype=float)
        y = mean + proposal.sd * rng.standard_normal((m, *model.point_shape))
        resid = ((y - mean) ** 2).reshape(m, -1).sum(axis=-1)
        log_q = -0.5 * model.dim_x * (_LOG_2PI + 2.0 * np.log(proposal.sd)) - resid / (
            2.0 * proposal.sd**2
        )
        return y, log_q
    raise ValueError(f"unknown proposal {proposal!r}")


def _proposal_terms(model, theta, y, log_q, power):
    """Per-draw integrand ``w(y) p(y)**power t(y)`` (see :func:`_weighted_rows`)
    and the factors ``w(y) p(y)**power``."""
    lp, score = model.log_pdf_and_score(theta, y)
    if log_q is None:
        log_w = power * lp
    else:
        log_w = (1.0 + power) * lp - log_q
    weights = np.exp(log_w)
    return _weighted_rows(weights, score), weights


def stochastic_grad_dpd(model, theta, data, beta, m, proposal, rng):
    """Unbiased stochastic gradient of the empirical DPD objective.

    Draws ``m`` proposal samples; the expectation over the draws equals
    the exact gradient for any ``m >= 1``.
    """
    if m < 1:
        raise ValueError("minibatch size m must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    g = data_term(model, theta, data, beta)
    y, log_q = _draw_proposal(model, theta, proposal, m, rng)
    terms, weights = _proposal_terms(model, theta, y, log_q, beta)
    return GradEstimate(g=g + terms.mean(axis=0), draw_terms=terms, draw_weights=weights)


def lattice_grad_dpd(model, theta, data, beta, backend):
    """Deterministic gradient with the integral term on a regular grid."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    g = data_term(model, theta, data, beta)
    pts, w = lattice_points(model, backend)
    return g + w * _weighted_score_sum(model, theta, pts, 1.0 + beta)[1]


def stochastic_grad_gamma(model, theta, c, data, gamma, m, proposal, rng):
    """Stochastic gradient for the scaled model ``c * p_theta``.

    Returns a vector of length ``dim_param + 1``; the last entry is the
    gradient with respect to ``log c`` (the raw scale gradient times
    ``c``), matching optimizers that update the scale additively in log
    space.
    """
    if c <= 0:
        raise ValueError("scale c must be positive")
    if m < 1:
        raise ValueError("minibatch size m must be >= 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = _data_points(data)
    n = x.shape[0]
    # the data term of data_term, with the scale's powers applied
    w, g_data = _weighted_score_sum(model, theta, x, gamma)
    y, log_q = _draw_proposal(model, theta, proposal, m, rng)
    terms, weights = _proposal_terms(model, theta, y, log_q, gamma)

    # In float64 a power of an extreme scale overflows to inf (and inf * 0
    # gives NaN), which the descent flags; Python's float ** would raise.
    c = np.float64(c)
    with np.errstate(over="ignore", invalid="ignore"):
        g_theta = -(c**gamma) * g_data / n + c ** (1.0 + gamma) * terms.mean(axis=0)
        g_c = -(c ** (gamma - 1.0)) * (float(w.sum()) / n) + c**gamma * float(weights.mean())
        g = np.concatenate([g_theta, [g_c * c]])  # chain rule: d/d(log c) = c * d/dc
    return GradEstimate(g=g, draw_terms=terms, draw_weights=weights)

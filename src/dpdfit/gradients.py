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
``log_pdf_and_score`` kernel, in blocks of at most ``BLOCK`` points.  The
stochastic routes make no kernel call for the proposal draws alone: the
draws ride in the call of the data's last block, so at ``n <= BLOCK`` a
step is one kernel call.  Every sum of weighted score rows over points,
``sum_i w_i t(x_i)``, adds each column row after row from +0.0, the order
(and so the bytes) of ``sum(axis=0)``: in one ``einsum`` on a block shorter
than ``FUSED_ROWS``, by ``models._column_sums`` of its weighted columns on a longer one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import BLOCK, _data_points, lattice_points
from .models import _LOG_2PI, MAGNITUDE_MAX, _column_sums, _positive_exp

FUSED_ROWS = 4096  # from here a column loop beats one fused einsum at 2-3 columns (measured)


@dataclass(frozen=True)
class CurrentModel:
    """Draw proposal samples from the model at the current parameters; their
    log-density is None, since the importance weight is one."""

    def draw(self, model, theta, m, rng):
        return model.sample(theta, rng, m), None


@dataclass(frozen=True)
class FixedNormal:
    """Fixed (isotropic) normal proposal; real-support models only."""

    mean: float | np.ndarray
    sd: float

    def __post_init__(self):
        if not 0 < self.sd <= MAGNITUDE_MAX:  # also False for NaN
            raise ValueError(f"fixed normal proposal needs a finite sd > 0, at most "
                             f"{MAGNITUDE_MAX:g}, got {self.sd}")
        if not np.all(np.abs(self.mean) <= MAGNITUDE_MAX):
            raise ValueError(f"fixed normal proposal needs a finite mean in [-{MAGNITUDE_MAX:g}, "
                             f"{MAGNITUDE_MAX:g}], got {np.ravel(self.mean).tolist()}")

    def draw(self, model, theta, m, rng):
        """``m`` draws and their log-density."""
        if model.support != "real":
            raise ValueError(f"fixed normal proposal does not cover the support of {model.name}")
        mean = np.asarray(self.mean, dtype=float)
        y = mean + self.sd * rng.standard_normal((m, *model.point_shape))
        resid = ((y - mean) ** 2).reshape(m, -1).sum(axis=-1)
        log_q = -0.5 * model.dim_x * (_LOG_2PI + 2.0 * np.log(self.sd)) - resid / (
            2.0 * self.sd**2)
        return y, log_q


@dataclass
class GradEstimate:
    """A gradient estimate plus its per-draw diagnostics.

    ``draw_terms`` holds the integrand ``w(y) p(y)**beta t(y)`` of every
    proposal draw (one row per draw) and ``draw_weights`` the scalar
    factors ``w(y) p(y)**beta``, so callers can study the Monte Carlo
    distribution without re-running the model.  ``data_weights`` holds
    the weights ``p(x_i)**beta`` of the data points at the step's theta:
    their mean is the data term of the exact objective.
    """

    g: np.ndarray
    draw_terms: np.ndarray
    draw_weights: np.ndarray
    data_weights: np.ndarray


def _weighted_rows(weights, score):
    """Rows ``weights[i] * score[i]``, in place: ``score`` is a kernel's own output.

    Only an exactly zero weight (zero density, or underflow) gives a zero
    row: its score, which may be undefined there, is zeroed in place
    first.  A NaN weight propagates, so that the descent loop flags the
    step instead of losing the point.
    """
    if not weights.all():  # in place: a masked copy of every row costs more at large n
        score[weights == 0] = 0.0
    return np.multiply(weights[:, None], score, out=score)


def _weighted_sum(w, rows, total):
    """``total + sum_i w[i] * rows[i]`` in place, in the order of one sum over
    all blocks' rows, dead rows as in :func:`_weighted_rows`.  A long block
    weights its columns in long runs: numpy walks a ``(k, d)`` broadcast row by row."""
    if not w.all():
        rows[w == 0] = 0.0
    if rows.shape[0] < FUSED_ROWS:
        if total is not None:  # the running sum rides in the first row, at unit weight
            rows[0] = w[0] * rows[0] + total
            w = np.concatenate([[1.0], w[1:]])
        return np.einsum("i,ij->j", w, rows)
    for j in range(rows.shape[1]):
        np.multiply(w, rows[:, j], out=rows[:, j])
    if total is not None:  # no copy of a long block's weights
        rows[0] += total
    return _column_sums(rows)


def _weighted_score_sum(model, theta, x, power, draws=None):
    """Weights ``w_i = p(x_i)**power``, the sum ``sum_i w_i t(x_i)`` and the
    ``(lp, score)`` of ``draws``, which join the kernel call of the last block
    (empty without them).  The kernel sees one cache-sized block of ``BLOCK``
    points at a time, and :func:`_weighted_sum` carries the running sum from
    block to block: the bytes of one sum over all points."""
    n = x.shape[0]
    w, total = np.empty(n), None
    for start in range(0, n, BLOCK):
        pts = x[start:start + BLOCK]
        k = pts.shape[0]
        if draws is not None and start + k == n:
            pts = np.concatenate([pts, draws])
        lp, score = model.log_pdf_and_score(theta, pts)
        lp_k = np.multiply(power, lp[:k], out=lp[:k])  # the draws' lp[k:] stay as they are
        w_k = np.exp(lp_k, out=w[start:start + k])
        total = _weighted_sum(w_k, score[:k], total)
    return w, total, (lp[k:], score[k:])


def data_term(model, theta, data, beta):
    """Exact data-side gradient term ``-(1/n) sum_i p(x_i)**beta t(x_i)``.

    Points where the density vanishes contribute zero and their score is
    never evaluated (it may be undefined outside the support).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = _data_points(data)
    return -_weighted_score_sum(model, theta, x, beta)[1] / x.shape[0]


def _draw_proposal(model, theta, proposal, m, rng):
    """The draws of ``proposal.draw``: the step's one call into the proposal."""
    return proposal.draw(model, theta, m, rng)


def _proposal_terms(lp, score, log_q, power):
    """Per-draw integrand ``w(y) p(y)**power t(y)`` (see :func:`_weighted_rows`)
    and the factors ``w(y) p(y)**power``, from the draws' kernel output."""
    if log_q is None:
        log_w = power * lp
    else:
        log_w = (1.0 + power) * lp - log_q
    weights = np.exp(log_w)
    return _weighted_rows(weights, score), weights


def _stochastic_step(model, theta, data, power, m, proposal, rng):
    """``(w, total)`` of :func:`_weighted_score_sum` on the data and the
    ``(terms, weights)`` of ``m`` proposal draws, in one kernel call for the
    draws and the data's last block.  The draws come first; the data term
    uses no randomness, so the stream is that of drawing them on their own."""
    if m < 1:
        raise ValueError("minibatch size m must be >= 1")
    x = _data_points(data)
    y, log_q = _draw_proposal(model, theta, proposal, m, rng)
    w, total, (lp, score) = _weighted_score_sum(model, theta, x, power, y)
    return w, total, _proposal_terms(lp, score, log_q, power)


def stochastic_grad_dpd(model, theta, data, beta, m, proposal, rng):
    """Unbiased stochastic gradient of the empirical DPD objective.

    Draws ``m`` proposal samples; the expectation over the draws equals
    the exact gradient for any ``m >= 1``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    w, total, (terms, weights) = _stochastic_step(model, theta, data, beta, m, proposal, rng)
    g = -total / w.shape[0] + _column_sums(terms) / m
    return GradEstimate(g=g, draw_terms=terms, draw_weights=weights, data_weights=w)


def lattice_grad_dpd(model, theta, data, beta, lattice):
    """Deterministic gradient with the integral term on a regular grid."""
    g = data_term(model, theta, data, beta)
    pts, w = lattice_points(model, lattice)
    return g + w * _weighted_score_sum(model, theta, pts, 1.0 + beta)[1]


def stochastic_grad_gamma(model, psi, data, gamma, m, proposal, rng):
    """Stochastic gradient for the scaled model ``c * p_theta`` at
    ``psi = (theta, log c)``, the argument list of :func:`stochastic_grad_dpd`.

    The estimate's ``g`` has length ``dim_param + 1``; its last entry is
    the gradient with respect to ``log c`` (the raw scale gradient times
    ``c``), matching optimizers that update the scale additively in log
    space.  When ``exp(log c)`` leaves (0, inf) every entry is NaN, which
    the descent flags: at ``c = 0`` and ``gamma = 1`` the formula would
    give a finite zero that freezes the run.  The ``data_weights`` are
    those of the unscaled model, ``p_theta(x_i)**gamma``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    theta, c = psi[:-1], _positive_exp(psi[-1])
    # the data term of data_term, with the scale's powers applied
    w, g_data, (terms, weights) = _stochastic_step(model, theta, data, gamma, m, proposal, rng)
    n = w.shape[0]

    # In float64 a power of an extreme scale overflows to inf (and inf * 0
    # gives NaN), which the descent flags; Python's float ** would raise.
    with np.errstate(over="ignore", invalid="ignore"):
        g_theta = -(c**gamma) * g_data / n + c ** (1.0 + gamma) * (_column_sums(terms) / m)
        g_c = -(c ** (gamma - 1.0)) * (float(w.sum()) / n) + c**gamma * (float(weights.sum()) / m)
        g = np.concatenate([g_theta, [g_c * c]])  # chain rule: d/d(log c) = c * d/dc
    return GradEstimate(g=g, draw_terms=terms, draw_weights=weights, data_weights=w)

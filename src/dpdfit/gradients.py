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
``log_pdf_and_score`` kernel, in blocks of at most ``BLOCK`` points, but
the term of an ``isonormal<d>`` lattice of ``FUSED_ROWS`` nodes or more: it
is built from the grid's axes, block by block, to the bytes of the kernel
on the nodes.  The stochastic routes make no kernel call for the proposal
draws alone: they join the data's last block in the buffer of a
:class:`PreparedSample`, so at ``n <= BLOCK`` a step is one kernel call.
Every sum of weighted score rows over points,
``sum_i w_i t(x_i)``, keeps one rule: the row of an exactly zero weight adds
+0.0 whatever its score, a NaN weight gives NaN, and each column is added row
after row from +0.0, the order (and so the bytes) of ``sum(axis=0)``.  A pass
that is one block shorter than ``FUSED_ROWS`` does this in one ``einsum``; any
other block weights its columns in place, adds the total carried from the
blocks before it to its first row and sums with ``models._column_sums``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divergence import BLOCK, _data_points, lattice_points
from .models import _LOG_2PI, MAGNITUDE_MAX, IsoNormal, _column_sums, _positive_exp

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


def _zero_dead_rows(w, rows):
    """``rows``, the row of each exactly zero weight (zero density, or underflow)
    zeroed in place, as its score may be undefined there.  A NaN weight keeps
    its row, so that the descent loop flags the step instead of losing the point."""
    if not w.all():  # in place: a masked copy of every row costs more at large n
        rows[w == 0] = 0.0
    return rows


def _weighted_sum(w, rows, total):
    """``total + sum_i w[i] * rows[i]`` in place, by the rule of the module docstring.
    The column path weights a column at a time: numpy walks a ``(k, d)`` broadcast row by row."""
    _zero_dead_rows(w, rows)
    if total is None and rows.shape[0] < FUSED_ROWS:
        return np.einsum("i,ij->j", w, rows)
    for j in range(rows.shape[1]):
        np.multiply(w, rows[:, j], out=rows[:, j])
    return _carried_sums(rows, total)


def _carried_sums(rows, total):
    """Column sums of weighted ``rows`` with ``total``, the sum of the blocks before
    them (None for none), added to their first row: one sum over every block."""
    if total is not None:
        rows[0] += total
    return _column_sums(rows)


class PreparedSample:
    """A descent's data, read once, and ``last``: its last block's rows, room for ``m`` draws."""

    def __init__(self, data, m=0):
        self.points = x = _data_points(data)
        k = x.shape[0] - (x.shape[0] - 1) // BLOCK * BLOCK  # rows of the last block
        self.last = np.concatenate([x[-k:], np.empty((m, *x.shape[1:]))]) if m else x[-k:]


def _weighted_score_sum(model, theta, data, power, draws=None):
    """Weights ``w_i = p(x_i)**power`` of ``data`` (an array or a :class:`PreparedSample`),
    the sum ``sum_i w_i t(x_i)`` and the ``(lp, score)`` of ``draws``, which join the
    kernel call of the last block (empty without them).  The kernel sees one cache-sized
    block of ``BLOCK`` points at a time, and :func:`_weighted_sum` carries the running
    sum from block to block: the bytes of one sum over all points."""
    m = 0 if draws is None else len(draws)
    sample = data if isinstance(data, PreparedSample) else PreparedSample(data, m)
    n = sample.points.shape[0]
    w, total = np.empty(n), None
    for start in range(0, n, BLOCK):
        pts = sample.points[start:start + BLOCK]
        k = pts.shape[0]
        if m and start + k == n:  # the same rows, in the buffer with room for the draws
            pts = sample.last[:k + m]
            if pts.shape[0] < k + m:  # else one draw would broadcast into no room
                raise ValueError(f"the sample has room for {pts.shape[0] - k} draws, not {m}")
            pts[k:] = draws
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
    w, total, _ = _weighted_score_sum(model, theta, data, beta)
    return -total / w.shape[0]


def _draw_proposal(model, theta, proposal, m, rng):
    """The draws of ``proposal.draw``: the step's one call into the proposal."""
    return proposal.draw(model, theta, m, rng)


def _proposal_terms(lp, score, log_q, power):
    """Per-draw integrand ``w(y) p(y)**power t(y)``, dead rows zeroed, and the
    factors ``w(y) p(y)**power``, from the draws' kernel output."""
    weights = np.exp(power * lp if log_q is None else (1.0 + power) * lp - log_q)
    return np.multiply(weights[:, None], _zero_dead_rows(weights, score), out=score), weights


def _stochastic_step(model, theta, data, power, m, proposal, rng):
    """``(w, total)`` of :func:`_weighted_score_sum` on the data and the
    ``(terms, weights)`` of ``m`` proposal draws, in one kernel call for the
    draws and the data's last block.  The draws come first; the data term
    uses no randomness, so the stream is that of drawing them on their own."""
    if m < 1:
        raise ValueError("minibatch size m must be >= 1")
    y, log_q = _draw_proposal(model, theta, proposal, m, rng)
    w, total, (lp, score) = _weighted_score_sum(model, theta, data, power, y)
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


@lru_cache(maxsize=1)
def _grid_plan(extent, m, d, block):
    """The blocks of an ``isonormal<d>`` lattice at ``block`` points: its axis (that
    of ``divergence._nodes``), the axis ``lead`` that a block takes a range of
    ``span`` indices of, at one index of each axis before it, and ``trail``: each
    whole trailing axis's value at every node of the trailing grid, in node order.
    The trailing axes are the most, at least one, whose grid fits in ``block``
    points.  Read-only, built once per lattice."""
    tail = max([1] + [k for k in range(2, d) if m**k <= block])
    axis = np.linspace(-extent, extent, m)
    trail = np.stack([g.reshape(-1) for g in np.meshgrid(*[axis] * tail, indexing="ij")])
    axis.flags.writeable = trail.flags.writeable = False
    return axis, d - 1 - tail, max(1, block // m**tail), trail


def _grid_score_sum(model, theta, lattice, power):
    """``sum_i w_i t(y_i)``, ``w_i = p(y_i)**power``, of :func:`_weighted_score_sum`
    over the nodes ``y_i`` of ``lattice`` for an ``isonormal<d>`` model, from the
    grid's axis alone: every residual ``y_ij - theta_j`` is a value of ``axis -
    theta_j``.  A block of :func:`_grid_plan` broadcasts slices of the axes' squares
    into its ``lp`` and writes each weighted score column as ``w * (axis - theta_j)``.
    The nodes are never built."""
    m, d, theta = lattice.nodes, model.dim_x, np.asarray(theta, dtype=float)
    axis, lead, span, trail = _grid_plan(lattice.extent, m, d, BLOCK)
    head = axis - theta[:lead + 1, None]  # row j: axis - theta_j, up to the lead axis
    trail = trail - theta[lead + 1:, None]  # the residuals of the trailing axes
    head_sq, trail_sq = head**2, trail**2
    width = trail.shape[1]
    w_all = np.empty(min(span, m) * width)
    rows = np.empty((w_all.size, d))
    total = None
    for fixed in itertools.product(range(m), repeat=lead):
        for start in range(0, m, span):
            # (k, 1) columns that broadcast against the trailing rows
            cuts = [np.s_[j, i:i + 1, None] for j, i in enumerate(fixed)]
            cuts.append(np.s_[lead, start:start + span, None])
            w = w_all[:(min(start + span, m) - start) * width]
            mesh, block = w.reshape(-1, width), rows[:w.size]  # (lead index, trailing node)
            model._lp_of_squares([*(head_sq[c] for c in cuts), *trail_sq], out=mesh)
            np.exp(np.multiply(w, power, out=w), out=w)
            columns = block.reshape(mesh.shape + (d,))
            for j, r in enumerate([*(head[c] for c in cuts), *trail]):
                np.multiply(mesh, r, out=columns[..., j])
            total = _carried_sums(_zero_dead_rows(w, block), total)
    return total


def lattice_grad_dpd(model, theta, data, beta, lattice):
    """Deterministic gradient with the integral term on a regular grid.  An
    ``isonormal<d>`` lattice of ``FUSED_ROWS`` nodes or more is summed from its
    axes (:func:`_grid_score_sum`); a shorter pass over the nodes is one kernel
    call and one fused einsum, which the axes' extra calls do not beat (measured)."""
    g = data_term(model, theta, data, beta)  # checks theta
    if isinstance(model, IsoNormal) and lattice.total_points(model) >= FUSED_ROWS:
        return g + lattice.weight(model) * _grid_score_sum(model, theta, lattice, 1.0 + beta)
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

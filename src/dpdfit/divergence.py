"""Density-power and gamma cross-entropy objectives.

The robust objective is a float: an empirical average over the data plus
an integral of the (1+beta)-th power of the model density.  The integral
term is exact for the families that define ``closed_form_r`` (the normal
ones); given a :class:`Lattice`, it is a regular-grid quadrature, which
every family supports.  All powering goes through
``exp(beta * log_pdf)`` so that points of zero density contribute zero
instead of underflowing to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Points per kernel call in a pass over the data (_mean_pow, gradients), same bytes at any
# value: its temporaries stay in cache; 65536 was slower in the d3 table (measured, 2 MB L2).
BLOCK = 32768


@dataclass(frozen=True)
class Lattice:
    """Regular-grid quadrature over [-extent, extent] (or [0, extent]).

    ``nodes`` counts grid points per axis; the d-variate grid is the
    cartesian product, so a d-dimensional lattice holds ``nodes**d``
    points.  Node weight equals the grid spacing (to the d-th power).
    """

    extent: float
    nodes: int

    def __post_init__(self):
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"lattice extent must be finite and > 0, got {self.extent}")
        if self.nodes < 2:
            raise ValueError("lattice needs at least 2 nodes per axis")

    def total_points(self, model):
        return self.nodes ** model.dim_x

    def weight(self, model):
        """Weight of every node, the grid spacing to the ``dim_x``-th power;
        OverflowError when that leaves the double range."""
        span = self.extent if model.support == "positive" else 2.0 * self.extent
        return (span / (self.nodes - 1)) ** model.dim_x


def _data_points(data, need=1):
    """The points of a Dataset or an array as floats, at least ``need`` of them."""
    x = np.asarray(getattr(data, "points", data), dtype=float)
    if x.shape[0] < need:
        raise ValueError(f"need {need} or more observations, got {x.shape[0]}")
    return x


def _mean_pow(model, theta, data, power, name, mean_pow):
    """Data mean of ``p(x_i)**power``, ``power > 0``, unless the caller holds it as ``mean_pow``."""
    if power <= 0:
        raise ValueError(f"{name} must be positive")
    if mean_pow is None:  # one n-long array of weights, filled block by block
        x = _data_points(data)
        w = np.empty(x.shape[0])
        for start in range(0, w.size, BLOCK):
            np.exp(power * model.log_pdf(theta, x[start:start + BLOCK]), out=w[start:start + BLOCK])
        mean_pow = float(w.mean())
    return mean_pow


def empirical_power_term(model, theta, data, beta, mean_pow=None):
    """Data-side term ``-(beta * n)^{-1} sum_i p(x_i)**beta``.  A caller that
    holds the mean of ``p(x_i)**beta`` already passes it as ``mean_pow``, and
    the data are not evaluated."""
    return -_mean_pow(model, theta, data, beta, "beta", mean_pow) / beta


def lattice_points(model, lattice):
    """Quadrature nodes and the (scalar) weight shared by all of them; the
    nodes of a grid are built once and are read-only."""
    return _nodes(lattice.extent, lattice.nodes, model.dim_x, model.support), lattice.weight(model)


@lru_cache(maxsize=1)
def _nodes(extent, m, dim_x, support):
    lo = 0.0 if support == "positive" else -extent
    grids = np.meshgrid(*([np.linspace(lo, extent, m)] * dim_x), indexing="ij", copy=False)
    pts = np.stack(grids, axis=-1).reshape((-1, dim_x) if dim_x > 1 else -1)
    pts.flags.writeable = False
    return pts


def lattice_r(model, theta, beta, lattice):
    """Integral term by quadrature on the ``lattice`` grid (``beta >= 0``)."""
    pts, w = lattice_points(model, lattice)
    lp = model.log_pdf(theta, pts)
    return float(w * np.exp((1.0 + beta) * lp).sum() / (1.0 + beta))


def integral_r(model, theta, beta, lattice=None):
    """Integral term: the family's closed form, or quadrature on ``lattice``."""
    if lattice is not None:
        return lattice_r(model, theta, beta, lattice)
    if model.closed_form_r is None:
        raise ValueError(f"no closed-form integral term for {model.name}")
    return model.closed_form_r(theta, beta)


def empirical_dpce(model, theta, data, beta, lattice=None, mean_pow=None):
    """Empirical density-power cross entropy: the data term of
    :func:`empirical_power_term` (given ``mean_pow``, from it) plus :func:`integral_r`."""
    return (empirical_power_term(model, theta, data, beta, mean_pow)
            + integral_r(model, theta, beta, lattice))


def empirical_gce(model, theta, data, gamma, lattice=None, *, mean_pow=None):
    """Empirical gamma cross entropy, the same for ``c * p`` at every ``c > 0``
    (inf where ``p`` vanishes at every point).  A caller that holds the mean of
    ``p(x_i)**gamma`` already passes it as ``mean_pow``, and the data are not evaluated."""
    mean_pow = _mean_pow(model, theta, data, gamma, "gamma", mean_pow)
    if mean_pow <= 0:  # -log(0) / gamma, which np.log would give with a warning
        return np.inf
    # integral of p^(1+gamma) = (1+gamma) r
    r = integral_r(model, theta, gamma, lattice)
    return float(-np.log(mean_pow) / gamma + (np.log1p(gamma) + np.log(r)) / (1.0 + gamma))

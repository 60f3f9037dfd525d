"""Parametric density families used by the robust estimators.

Every family exposes the same small surface: log-density, score (the
gradient of the log-density with respect to the *unconstrained*
optimization coordinates), sampling, and the maps between unconstrained
coordinates and the named natural parameters.  A family writes its
log-density once, for points inside its support, as ``_log_pdf``, which
also returns the values ``_score`` reuses; ``Model`` checks ``theta``
and ``x`` and applies the support mask for every entry point.  Families
with positivity constraints are parameterized so that every point of
R^s maps to a valid density: variances take the form ``c**2 +
VARIANCE_FLOOR``, mixing weights go through a sigmoid, and purely
positive parameters (inverse normal, Gompertz) live in log space, through
the one ``_LogScale`` map.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

# Lower bound on every normal variance; keeps the unconstrained space
# equal to all of R^s while being numerically negligible.
VARIANCE_FLOOR = 1e-6
# Largest |value| of a location or spread the user gives (truth, init,
# outlier cloud, proposal, data); from ~1e77 on, a fitted variance squared
# overflows
MAGNITUDE_MAX = 1e50

_LOG_2PI = float(np.log(2.0 * np.pi))
_FLOAT_MIN = float(np.finfo(float).min)
_LOG_MAX = float(np.log(np.finfo(float).max))  # exp overflows above it


def _positive_exp(t):
    """``np.exp`` of a log-space coordinate, NaN where that leaves (0, inf); an
    ``np.float64``, since a Python float's ``**`` raises OverflowError."""
    e = np.exp(t) if t <= _LOG_MAX else np.float64(np.nan)  # a NaN t fails the test too
    return e if e > 0.0 else np.float64(np.nan)


def _normal_log_pdf(r2, var):
    """Normal log-density from the squared residual and the variance, in a fresh array."""
    lp = np.divide(r2, 2.0 * var)
    return np.subtract(-0.5 * (_LOG_2PI + np.log(var)), lp, out=lp)


def _sigma_coordinate(sigma):
    """The coordinate ``c`` of a standard deviation, ``sigma**2 = c**2 +
    VARIANCE_FLOOR``; ``c**2`` hides the sign, so it is checked here."""
    if not 0 < sigma <= MAGNITUDE_MAX:  # also False for NaN
        raise ValueError(f"sigma must be finite and > 0, at most {MAGNITUDE_MAX:g}, "
                         f"got {sigma}")
    var = sigma**2
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var} below floor {VARIANCE_FLOOR}")
    return np.sqrt(var - VARIANCE_FLOOR)


def _normal_var_score(r2, var):
    """Derivative of the normal log-density in its variance, written over ``r2``."""
    return np.add(-0.5 / var, np.divide(r2, 2.0 * var**2, out=r2), out=r2)


def _column_sums(rows):
    """Each column's sum, added row after row from +0.0: the bytes of
    ``rows.sum(axis=0)`` without its per-row overhead.  einsum adds in that
    order only while the columns are the contiguous axis, so ``rows`` is a
    C-ordered block of two or more columns, as every family's score is."""
    return np.einsum("ij->j", rows)


def _log_add_exp(a, b):
    """``log(exp(a) + exp(b))`` as ``max + log1p(exp(min - max))``.

    ``np.logaddexp`` computes the same formula but rounds differently in
    the last bit on a few percent of points, which changes the preset
    outputs at some seeds; this form is also about twice as fast from
    ~100 points on.
    """
    hi = np.maximum(a, b)
    # Shifting by a finite value keeps two zero terms (-inf, -inf) at -inf
    # instead of -inf - -inf = NaN; a finite max is its own shift.
    return hi + np.log1p(np.exp(np.minimum(a, b) - np.maximum(hi, _FLOAT_MIN)))


NormalParams = namedtuple("NormalParams", "mu sigma")
IsoNormalParams = namedtuple("IsoNormalParams", "mean")
InverseNormalParams = namedtuple("InverseNormalParams", "mu lam")
GompertzParams = namedtuple("GompertzParams", "omega lam")
MixtureParams = namedtuple("MixtureParams", "mu1 sigma1 mu2 sigma2 alpha")


class Model:
    """Common interface of all density families.

    ``theta`` is always a flat float array in the unconstrained space,
    ``x`` an array of observations of shape ``(n, *point_shape)``.
    ``params_cls`` is the namedtuple of the natural parameters, whose
    ``_fields`` a scalar family takes as its ``natural_names``, and
    ``default_truth`` their values when a synthetic run names none.
    A family whose integral term ``int p**(1+beta) / (1+beta)`` has a
    closed form defines it as ``closed_form_r(theta, beta)``.
    """

    name: str = ""
    dim_param: int = 0
    dim_x: int = 1
    support: str = "real"  # "real" or "positive"
    natural_names: tuple = ()
    params_cls: type = None
    default_truth: tuple = ()
    closed_form_r = None

    @property
    def point_shape(self):
        """Shape of one observation: ``()`` for scalar families, ``(d,)``
        for the d-variate one."""
        return () if self.dim_x == 1 else (self.dim_x,)

    def log_pdf(self, theta, x):
        """Log-density at every point of ``x``; ``-inf`` outside the support."""
        return self._evaluate(theta, x, with_score=False)[0]

    def log_pdf_and_score(self, theta, x):
        """Log-density and score at every point of ``x`` in one pass.

        Returns ``(lp, score)`` with shapes ``(n,)`` and ``(n, dim_param)``.
        Points outside the support get ``lp = -inf`` and a zero score
        row; the score is never evaluated there.
        """
        return self._evaluate(theta, x, with_score=True)

    def score(self, theta, x):
        """Gradient of the log-density in the unconstrained coordinates;
        every point of ``x`` must lie in the support."""
        return self._evaluate(theta, x, with_score=True, strict=True)[1]

    def sample(self, theta, rng, size):
        raise NotImplementedError

    def to_natural(self, theta):
        raise NotImplementedError

    def from_natural(self, params):
        raise NotImplementedError

    def from_natural_values(self, values):
        """Unconstrained coordinates from a flat sequence of natural
        parameters; the inverse of :meth:`natural_values`."""
        return self.from_natural(self.params_cls(*values))

    def natural_values(self, theta):
        """Natural parameters of ``theta`` as a flat float array."""
        return np.hstack(self.to_natural(theta)).astype(float)

    # -- helpers -------------------------------------------------------

    def _log_pdf(self, theta, x):
        """``(lp, parts)`` at points inside the support; ``_score`` reuses ``parts``."""
        raise NotImplementedError

    def _score(self, theta, x, parts):
        """The C-ordered ``(n, dim_param)`` score; it may write over the arrays in ``parts``."""
        raise NotImplementedError

    def _in_support(self, x):
        """Mask of the points inside the support; None when it is all of R^d."""
        return None

    def _evaluate(self, theta, x, with_score, strict=False):
        """``(lp, score)`` of checked ``theta`` and ``x``, the score None
        unless ``with_score``.  The formulas see only the points inside the
        support; outside it ``lp`` is ``-inf`` and the score row zero, and
        ``strict`` raises instead."""
        theta, x = self._check_theta(theta), self._check_x(x)
        inside = self._in_support(x)
        masked = inside is not None and not inside.all()
        if masked and strict:
            raise ValueError(f"{self.name} score requires x inside the support")
        xs = x[inside] if masked else x
        lp, parts = self._log_pdf(theta, xs)
        score = self._score(theta, xs, parts) if with_score else None
        if masked:  # back to all of x: lp = -inf, a zero score row outside
            lp_in, lp = lp, np.full(x.shape[0], -np.inf)
            lp[inside] = lp_in
            if with_score:
                score_in, score = score, np.zeros((x.shape[0], self.dim_param))
                score[inside] = score_in
        return lp, score

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim_param,):
            raise ValueError(f"{self.name}: expected {self.dim_param} parameters, "
                             f"got shape {theta.shape}")
        if not all(map(math.isfinite, theta.tolist())):  # a quarter of np.isfinite's cost
            raise ValueError(f"{self.name}: non-finite parameter entries")
        return theta

    def _check_x(self, x):
        """``x`` as an ``(n, *point_shape)`` float array; a lone point, a
        scalar or a ``(d,)`` vector, becomes ``n = 1``."""
        x = np.asarray(x, dtype=float)
        shape = self.point_shape
        if x.ndim == len(shape):
            x = x[np.newaxis]
        if x.shape[1:] != shape:
            want = "".join(f", {k}" for k in shape)
            raise ValueError(f"{self.name}: expected points of shape (n{want}), got {x.shape}")
        return x

    def __repr__(self):
        return f"{type(self).__name__}()"


class Normal1D(Model):
    """Univariate normal with ``sigma**2 = theta[1]**2 + VARIANCE_FLOOR``."""

    name = "normal"
    dim_param = 2
    params_cls = NormalParams
    natural_names = NormalParams._fields
    default_truth = (0.0, 1.0)

    def _moments(self, theta):
        return theta[0], theta[1] ** 2 + VARIANCE_FLOOR

    def _log_pdf(self, theta, x):
        mu, var = self._moments(theta)
        r = x - mu
        r2 = r * r  # the bytes of r**2
        return _normal_log_pdf(r2, var), (var, r, r2)

    def _score(self, theta, x, parts):
        var, r, r2 = parts
        out = np.empty((x.shape[0], 2))
        np.divide(r, var, out=out[:, 0])
        np.multiply(_normal_var_score(r2, var), 2.0 * theta[1], out=out[:, 1])
        return out

    def sample(self, theta, rng, size):
        mu, var = self._moments(self._check_theta(theta))
        return mu + np.sqrt(var) * rng.standard_normal(size)

    def closed_form_r(self, theta, beta):
        """``(2 pi sigma^2)^{-beta/2} (1+beta)^{-3/2}``."""
        sigma = self.to_natural(theta).sigma
        return float(
            (2.0 * np.pi * sigma**2) ** (-beta / 2.0) * (1.0 + beta) ** (-1.5)
        )

    def to_natural(self, theta):
        mu, var = self._moments(self._check_theta(theta))
        return NormalParams(mu=float(mu), sigma=float(np.sqrt(var)))

    def from_natural(self, params):
        return np.array([params.mu, _sigma_coordinate(params.sigma)])


class IsoNormal(Model):
    """d-variate normal with unknown mean and identity covariance."""

    name = "isonormal"
    params_cls = IsoNormalParams

    def __init__(self, d):
        # At d = 1 points would be (n,) arrays, which the (n, d) code
        # below reads as one point of dimension n.
        if d < 2:
            raise ValueError(f"isonormal needs dimension >= 2, got {d}; use normal for d = 1")
        self.d = int(d)
        self.dim_param = self.d
        self.dim_x = self.d
        self.name = f"isonormal{d}"
        self.natural_names = tuple(f"mu_{i + 1}" for i in range(self.d))
        self.default_truth = (0.5,) * self.d

    def _log_pdf(self, theta, x):
        # x - theta a column at a time: numpy walks the broadcast row by row
        r = np.empty(x.shape)
        for j in range(self.d):
            np.subtract(x[:, j], theta[j], out=r[:, j])
        if self.d < 8:  # in-place column adds: far faster, same bytes
            r2 = r[:, 0] ** 2
            for j in range(1, self.d):
                r2 += r[:, j] ** 2
        else:  # numpy sums 8 or more terms pairwise; keep that rounding
            r2 = (r**2).sum(axis=-1)
        return -0.5 * self.d * _LOG_2PI - 0.5 * r2, r

    def _score(self, theta, x, r):
        return r

    def sample(self, theta, rng, size):
        theta = self._check_theta(theta)
        return theta + rng.standard_normal((size, self.d))

    def closed_form_r(self, theta, beta):
        """``(2 pi)^{-d beta / 2} (1+beta)^{-(d+2)/2}``, d unit-variance factors."""
        d = self.d
        return float(
            (2.0 * np.pi) ** (-d * beta / 2.0) * (1.0 + beta) ** (-(d + 2) / 2.0)
        )

    def to_natural(self, theta):
        return IsoNormalParams(mean=self._check_theta(theta).copy())

    def from_natural(self, params):
        mean = np.asarray(params.mean, dtype=float)
        if mean.shape != (self.d,):
            raise ValueError(f"mean must have shape ({self.d},)")
        return mean.copy()

    def from_natural_values(self, values):
        return self.from_natural(IsoNormalParams(mean=values))

    def __repr__(self):
        return f"IsoNormal({self.d})"


class _LogScale:
    """The map of a family with two positive natural parameters, optimized
    as their logs.  A mixin, not a ``Model`` subclass, so that
    ``Model.__subclasses__()`` still lists each family itself."""

    @staticmethod
    def _params(theta):
        """``exp`` of the two log-space coordinates, or NaN for both when either
        leaves (0, inf).  NaN reaches the gradient without a warning, and the
        descent flags the step; an inf or a 0 would warn or raise on the way."""
        a, b = _positive_exp(theta[0]), _positive_exp(theta[1])
        return (np.nan, np.nan) if np.isnan(a) or np.isnan(b) else (a, b)

    def to_natural(self, theta):
        return self.params_cls(*map(float, self._params(self._check_theta(theta))))

    def from_natural(self, params):
        if any(v <= 0 for v in params):  # per value: min() would pass (nan, -1)
            raise ValueError(f"{self.name} parameters must be positive, got {params}")
        return np.log(params)


class InverseNormal(_LogScale, Model):
    """Inverse normal (inverse Gaussian), optimized as (log mu, log lam)."""

    name = "inverse-normal"
    dim_param = 2
    support = "positive"
    params_cls = InverseNormalParams
    natural_names = InverseNormalParams._fields
    default_truth = (1.0, 3.0)

    def _in_support(self, x):
        return ~(x <= 0)  # a NaN point stays in, so its NaN reaches the caller

    def _log_pdf(self, theta, x):
        mu, lam = self._params(theta)
        r = x - mu
        r2 = r**2
        denom = 2.0 * mu**2 * x
        lp = 0.5 * (np.log(lam) - _LOG_2PI - 3.0 * np.log(x)) - lam * r2 / denom
        return lp, (mu, lam, r, r2, denom)

    def _score(self, theta, x, parts):
        mu, lam, r, r2, denom = parts
        out = np.empty((x.shape[0], 2))  # d/dmu * mu and d/dlam * lam
        np.multiply(lam * r / mu**3, mu, out=out[:, 0])
        np.multiply(0.5 / lam - r2 / denom, lam, out=out[:, 1])
        return out

    def sample(self, theta, rng, size):
        # Generator.wald draws via the Michael-Schucany-Haas transform.
        mu, lam = self._params(self._check_theta(theta))
        return rng.wald(mu, lam, size)


class Gompertz(_LogScale, Model):
    """Gompertz distribution on [0, inf), optimized as (log omega, log lam)."""

    name = "gompertz"
    dim_param = 2
    support = "positive"
    params_cls = GompertzParams
    natural_names = GompertzParams._fields
    default_truth = (1.0, 0.1)

    def _in_support(self, x):
        return ~(x < 0)  # a NaN point stays in, so its NaN reaches the caller

    def _log_pdf(self, theta, x):
        omega, lam = self._params(theta)
        # Far in the tail exp(omega * x) overflows: lp is then -inf, and
        # consumers drop the point, as they drop any zero-density point.
        with np.errstate(over="ignore", invalid="ignore"):
            ox = omega * x
            em1 = np.expm1(ox)
            lp = np.log(lam) + ox - lam / omega * em1
        return lp, (omega, lam, ox, em1)

    def _score(self, theta, x, parts):
        omega, lam, ox, em1 = parts
        out = np.empty((x.shape[0], 2))
        with np.errstate(over="ignore", invalid="ignore"):  # d/domega * omega, d/dlam * lam
            np.multiply(x - lam * (-em1 / omega**2 + x * np.exp(ox) / omega), omega, out=out[:, 0])
            np.multiply(1.0 / lam - em1 / omega, lam, out=out[:, 1])
        return out

    def sample(self, theta, rng, size):
        # Inverse CDF: x = log(1 - (omega/lam) * log(1 - u)) / omega.
        omega, lam = self._params(self._check_theta(theta))
        u = rng.random(size)
        return np.log1p(-omega / lam * np.log1p(-u)) / omega


class NormalMixture2(Model):
    """Two-component normal mixture.

    Unconstrained coordinates ``theta = (a, mu1, c1, mu2, c2)`` with
    mixing weight ``alpha = sigmoid(a)`` and component variances
    ``c_i**2 + VARIANCE_FLOOR``.
    """

    name = "mixture"
    dim_param = 5
    params_cls = MixtureParams
    natural_names = MixtureParams._fields
    default_truth = (-5.0, 1.0, 0.0, 1.0, 0.6)

    def _params(self, theta):
        alpha = 1.0 / (1.0 + np.exp(-theta[0]))
        v1 = theta[2] ** 2 + VARIANCE_FLOOR
        v2 = theta[4] ** 2 + VARIANCE_FLOOR
        return alpha, theta[1], v1, theta[3], v2

    def _log_pdf(self, theta, x):
        alpha, mu1, v1, mu2, v2 = self._params(theta)
        z1, z2 = x - mu1, x - mu2
        q1, q2 = z1**2, z2**2
        # the components' log-densities, each with its weight
        a1 = _normal_log_pdf(q1, v1) + np.log(alpha)
        a2 = _normal_log_pdf(q2, v2) + np.log1p(-alpha)
        lp = _log_add_exp(a1, a2)
        return lp, (lp, alpha, v1, v2, z1, z2, q1, q2, a1, a2)

    def _score(self, theta, x, parts):
        lp, alpha, v1, v2, z1, z2, q1, q2, a1, a2 = parts
        out = np.empty((x.shape[0], 5))
        r1 = np.exp(a1 - lp)  # responsibility of component 1
        r2 = np.exp(a2 - lp)
        np.subtract(r1, alpha, out=out[:, 0])  # = alpha*(1-alpha)*(phi1-phi2)/p
        np.divide(r1 * z1, v1, out=out[:, 1])
        np.multiply(r1 * _normal_var_score(q1, v1), 2.0 * theta[2], out=out[:, 2])
        np.divide(r2 * z2, v2, out=out[:, 3])
        np.multiply(r2 * _normal_var_score(q2, v2), 2.0 * theta[4], out=out[:, 4])
        return out

    def sample(self, theta, rng, size):
        alpha, mu1, v1, mu2, v2 = self._params(self._check_theta(theta))
        first = rng.random(size) < alpha
        z = rng.standard_normal(size)
        return np.where(first, mu1 + np.sqrt(v1) * z, mu2 + np.sqrt(v2) * z)

    def to_natural(self, theta):
        alpha, mu1, v1, mu2, v2 = self._params(self._check_theta(theta))
        return MixtureParams(
            mu1=float(mu1),
            sigma1=float(np.sqrt(v1)),
            mu2=float(mu2),
            sigma2=float(np.sqrt(v2)),
            alpha=float(alpha),
        )

    def from_natural(self, params):
        if not 0.0 < params.alpha < 1.0:
            raise ValueError("mixing weight must lie strictly inside (0, 1)")
        return np.array(
            [
                np.log(params.alpha) - np.log1p(-params.alpha),
                params.mu1,
                _sigma_coordinate(params.sigma1),
                params.mu2,
                _sigma_coordinate(params.sigma2),
            ]
        )


_FAMILIES = {
    "normal": Normal1D,
    "inverse-normal": InverseNormal,
    "gompertz": Gompertz,
    "mixture": NormalMixture2,
}


def get_model(name):
    """Look up a model by its registry name.

    Accepts the names in ``_FAMILIES`` and ``isonormal<d>`` for d >= 2
    (for example ``isonormal3``).
    """
    name = name.strip().lower()
    if name in _FAMILIES:
        return _FAMILIES[name]()
    suffix = name[len("isonormal"):]
    if name.startswith("isonormal") and suffix.isdigit():
        return IsoNormal(int(suffix))
    raise ValueError(f"unknown model {name!r}")

"""Parametric density families used by the robust estimators.

Every family exposes the same small surface: log-density, score (the
gradient of the log-density with respect to the *unconstrained*
optimization coordinates), sampling, and the maps between unconstrained
coordinates and the named natural parameters.  Each family implements
log-density and score together in one kernel, ``_log_pdf_and_score``,
which the gradient estimators call through ``log_pdf_and_score``;
``score`` is derived from the same kernel.  Families with positivity
constraints are parameterized so that every point of R^s maps to a valid
density: variances take the form ``c**2 + VARIANCE_FLOOR``, mixing
weights go through a sigmoid, and purely positive parameters (inverse
normal, Gompertz) live in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Lower bound on every normal variance; keeps the unconstrained space
# equal to all of R^s while being numerically negligible.
VARIANCE_FLOOR = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))
_FLOAT_MIN = float(np.finfo(float).min)
_LOG_MAX = float(np.log(np.finfo(float).max))  # exp overflows above it


def _normal_log_pdf(r2, var):
    """Normal log-density from the squared residual and the variance."""
    return -0.5 * (_LOG_2PI + np.log(var)) - r2 / (2.0 * var)


def _sigma_coordinate(sigma):
    """The coordinate ``c`` of a standard deviation, ``sigma**2 = c**2 +
    VARIANCE_FLOOR``; ``c**2`` hides the sign, so it is checked here."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    var = sigma**2
    if var < VARIANCE_FLOOR:
        raise ValueError(f"variance {var} below floor {VARIANCE_FLOOR}")
    return np.sqrt(var - VARIANCE_FLOOR)


def _exp_params(theta):
    """``exp`` of the two log-space coordinates, or NaN for both when either
    leaves (0, inf).  NaN reaches the gradient without a warning, and the
    descent flags the step; an inf or a 0 would warn or raise on the way."""
    t0, t1 = theta[0], theta[1]
    if t0 <= _LOG_MAX and t1 <= _LOG_MAX:
        a, b = np.exp(t0), np.exp(t1)
        if 0.0 < a < np.inf and 0.0 < b < np.inf:
            return a, b
    return np.nan, np.nan


def _columns(*cols):
    """Equal-length 1-D arrays as the columns of one C-ordered array;
    ``np.stack(cols, axis=-1)``, at a third of its overhead."""
    out = np.empty((cols[0].shape[0], len(cols)))
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


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


@dataclass(frozen=True)
class NormalParams:
    mu: float
    sigma: float


@dataclass(frozen=True)
class IsoNormalParams:
    mean: np.ndarray


@dataclass(frozen=True)
class InverseNormalParams:
    mu: float
    lam: float


@dataclass(frozen=True)
class GompertzParams:
    omega: float
    lam: float


@dataclass(frozen=True)
class MixtureParams:
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    alpha: float


class Model:
    """Common interface of all density families.

    ``theta`` is always a flat float array in the unconstrained space,
    ``x`` an array of observations of shape ``(n, *point_shape)``.
    ``params_cls`` is the dataclass of the natural parameters and
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
        raise NotImplementedError

    def log_pdf_and_score(self, theta, x):
        """Log-density and score at every point of ``x`` in one pass.

        Returns ``(lp, score)`` with shapes ``(n,)`` and ``(n, dim_param)``.
        Points outside the support get ``lp = -inf`` and a zero score
        row; the score is never evaluated there.
        """
        theta, x = self._check_theta(theta), self._check_x(x)
        inside = self._in_support(x)
        if inside is None or inside.all():
            return self._log_pdf_and_score(theta, x)
        lp = np.full(x.shape[0], -np.inf)
        score = np.zeros((x.shape[0], self.dim_param))
        lp[inside], score[inside] = self._log_pdf_and_score(theta, x[inside])
        return lp, score

    def score(self, theta, x):
        """Gradient of the log-density in the unconstrained coordinates;
        every point of ``x`` must lie in the support."""
        theta, x = self._check_theta(theta), self._check_x(x)
        inside = self._in_support(x)
        if inside is not None and not inside.all():
            raise ValueError(f"{self.name} score requires x inside the support")
        return self._log_pdf_and_score(theta, x)[1]

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
        p = self.to_natural(theta)
        out = []
        for f in p.__dataclass_fields__:
            v = getattr(p, f)
            if np.ndim(v) == 0:
                out.append(float(v))
            else:
                out.extend(float(u) for u in np.asarray(v))
        return np.array(out)

    # -- helpers -------------------------------------------------------

    def _log_pdf_and_score(self, theta, x):
        """The family's kernel: checked ``theta``, points inside the support."""
        raise NotImplementedError

    def _in_support(self, x):
        """Mask of the points inside the support; None when it is all of R^d."""
        return None

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim_param,):
            raise ValueError(
                f"{self.name}: expected {self.dim_param} parameters, "
                f"got shape {theta.shape}"
            )
        if not np.isfinite(theta).all():
            raise ValueError(f"{self.name}: non-finite parameter entries")
        return theta

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim_x == 1:
            return np.atleast_1d(x)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[-1] != self.dim_x:
            raise ValueError(f"{self.name}: expected points of dimension {self.dim_x}")
        return x

    def __repr__(self):
        return f"{type(self).__name__}()"


class Normal1D(Model):
    """Univariate normal with ``sigma**2 = theta[1]**2 + VARIANCE_FLOOR``."""

    name = "normal"
    dim_param = 2
    natural_names = ("mu", "sigma")
    params_cls = NormalParams
    default_truth = (0.0, 1.0)

    def _moments(self, theta):
        return theta[0], theta[1] ** 2 + VARIANCE_FLOOR

    def log_pdf(self, theta, x):
        mu, var = self._moments(self._check_theta(theta))
        return _normal_log_pdf((self._check_x(x) - mu) ** 2, var)

    def _log_pdf_and_score(self, theta, x):
        mu, var = self._moments(theta)
        r = x - mu
        r2 = r**2
        d_var = -0.5 / var + r2 / (2.0 * var**2)
        return _normal_log_pdf(r2, var), _columns(r / var, d_var * (2.0 * theta[1]))

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

    def log_pdf(self, theta, x):
        theta = self._check_theta(theta)
        x = self._check_x(x)
        return -0.5 * self.d * _LOG_2PI - 0.5 * ((x - theta) ** 2).sum(axis=-1)

    def _log_pdf_and_score(self, theta, x):
        r = x - theta
        return -0.5 * self.d * _LOG_2PI - 0.5 * (r**2).sum(axis=-1), r

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


class InverseNormal(Model):
    """Inverse normal (inverse Gaussian), optimized as (log mu, log lam)."""

    name = "inverse-normal"
    dim_param = 2
    support = "positive"
    natural_names = ("mu", "lam")
    params_cls = InverseNormalParams
    default_truth = (1.0, 3.0)

    _params = staticmethod(_exp_params)

    def _in_support(self, x):
        return ~(x <= 0)  # a NaN point stays in, so its NaN reaches the caller

    def log_pdf(self, theta, x):
        mu, lam = self._params(self._check_theta(theta))
        x = self._check_x(x)
        out = np.full(x.shape, -np.inf)
        ok = self._in_support(x)
        xo = x[ok]
        out[ok] = 0.5 * (np.log(lam) - _LOG_2PI - 3.0 * np.log(xo)) - lam * (
            xo - mu
        ) ** 2 / (2.0 * mu**2 * xo)
        return out

    def _log_pdf_and_score(self, theta, x):
        mu, lam = self._params(theta)
        r = x - mu
        r2 = r**2
        denom = 2.0 * mu**2 * x
        lp = 0.5 * (np.log(lam) - _LOG_2PI - 3.0 * np.log(x)) - lam * r2 / denom
        d_mu = lam * r / mu**3
        d_lam = 0.5 / lam - r2 / denom
        return lp, _columns(d_mu * mu, d_lam * lam)

    def sample(self, theta, rng, size):
        # Generator.wald draws via the Michael-Schucany-Haas transform.
        mu, lam = self._params(self._check_theta(theta))
        return rng.wald(mu, lam, size)

    def to_natural(self, theta):
        mu, lam = self._params(self._check_theta(theta))
        return InverseNormalParams(mu=float(mu), lam=float(lam))

    def from_natural(self, params):
        if params.mu <= 0 or params.lam <= 0:
            raise ValueError("inverse normal parameters must be positive")
        return np.log([params.mu, params.lam])


class Gompertz(Model):
    """Gompertz distribution on [0, inf), optimized as (log omega, log lam)."""

    name = "gompertz"
    dim_param = 2
    support = "positive"
    natural_names = ("omega", "lam")
    params_cls = GompertzParams
    default_truth = (1.0, 0.1)

    _params = staticmethod(_exp_params)

    def _in_support(self, x):
        return ~(x < 0)  # a NaN point stays in, so its NaN reaches the caller

    def log_pdf(self, theta, x):
        omega, lam = self._params(self._check_theta(theta))
        x = self._check_x(x)
        out = np.full(x.shape, -np.inf)
        ok = self._in_support(x)
        xo = x[ok]
        with np.errstate(over="ignore"):
            out[ok] = np.log(lam) + omega * xo - lam / omega * np.expm1(omega * xo)
        return out

    def _log_pdf_and_score(self, theta, x):
        omega, lam = self._params(theta)
        # Far in the tail exp(omega * x) overflows: lp is then -inf, and
        # consumers drop the point, as they drop any zero-density point.
        with np.errstate(over="ignore", invalid="ignore"):
            ox = omega * x
            em1 = np.expm1(ox)
            lp = np.log(lam) + ox - lam / omega * em1
            d_omega = x - lam * (-em1 / omega**2 + x * np.exp(ox) / omega)
            d_lam = 1.0 / lam - em1 / omega
        return lp, _columns(d_omega * omega, d_lam * lam)

    def sample(self, theta, rng, size):
        # Inverse CDF: x = log(1 - (omega/lam) * log(1 - u)) / omega.
        omega, lam = self._params(self._check_theta(theta))
        u = rng.random(size)
        return np.log1p(-omega / lam * np.log1p(-u)) / omega

    def to_natural(self, theta):
        omega, lam = self._params(self._check_theta(theta))
        return GompertzParams(omega=float(omega), lam=float(lam))

    def from_natural(self, params):
        if params.omega <= 0 or params.lam <= 0:
            raise ValueError("Gompertz parameters must be positive")
        return np.log([params.omega, params.lam])


class NormalMixture2(Model):
    """Two-component normal mixture.

    Unconstrained coordinates ``theta = (a, mu1, c1, mu2, c2)`` with
    mixing weight ``alpha = sigmoid(a)`` and component variances
    ``c_i**2 + VARIANCE_FLOOR``.
    """

    name = "mixture"
    dim_param = 5
    natural_names = ("mu1", "sigma1", "mu2", "sigma2", "alpha")
    params_cls = MixtureParams
    default_truth = (-5.0, 1.0, 0.0, 1.0, 0.6)

    def _params(self, theta):
        alpha = 1.0 / (1.0 + np.exp(-theta[0]))
        v1 = theta[2] ** 2 + VARIANCE_FLOOR
        v2 = theta[4] ** 2 + VARIANCE_FLOOR
        return alpha, theta[1], v1, theta[3], v2

    def log_pdf(self, theta, x):
        alpha, mu1, v1, mu2, v2 = self._params(self._check_theta(theta))
        x = self._check_x(x)
        return _log_add_exp(_normal_log_pdf((x - mu1) ** 2, v1) + np.log(alpha),
                            _normal_log_pdf((x - mu2) ** 2, v2) + np.log1p(-alpha))

    def _log_pdf_and_score(self, theta, x):
        alpha, mu1, v1, mu2, v2 = self._params(theta)
        z1, z2 = x - mu1, x - mu2
        q1, q2 = z1**2, z2**2
        a1 = _normal_log_pdf(q1, v1) + np.log(alpha)
        a2 = _normal_log_pdf(q2, v2) + np.log1p(-alpha)
        lp = _log_add_exp(a1, a2)
        r1 = np.exp(a1 - lp)  # responsibility of component 1
        r2 = np.exp(a2 - lp)
        d_a = r1 - alpha  # = alpha*(1-alpha)*(phi1-phi2)/p
        d_v1 = r1 * (-0.5 / v1 + q1 / (2.0 * v1**2))
        d_v2 = r2 * (-0.5 / v2 + q2 / (2.0 * v2**2))
        score = _columns(d_a, r1 * z1 / v1, d_v1 * (2.0 * theta[2]), r2 * z2 / v2,
                         d_v2 * (2.0 * theta[4]))
        return lp, score

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
    "invnormal": InverseNormal,
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

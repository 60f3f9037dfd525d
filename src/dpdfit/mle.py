"""Maximum-likelihood initializers for every model family.

The descent runs start from the MLE of the (possibly contaminated)
sample: closed forms for the normal and inverse normal families, a
safeguarded Newton root for the Gompertz shape, and restarted EM for the
two-component mixture.  All return parameters in the unconstrained
coordinates of the corresponding model.
"""

from __future__ import annotations

import numpy as np

from .divergence import _data_points
from .models import (
    VARIANCE_FLOOR,
    Gompertz,
    InverseNormal,
    MixtureParams,
    Normal1D,
    NormalMixture2,
    _column_sums,
)


def mle_normal(data):
    """Sample mean and (1/n) variance, mapped to unconstrained coords."""
    x = _data_points(data, 2)
    mu = float(x.mean())
    var = float(x.var())
    if var <= 0:
        raise ValueError("zero-variance sample")
    return Normal1D().from_natural_values((mu, float(np.sqrt(var))))


def mle_isonormal(data):
    """Componentwise sample mean of a d-variate sample."""
    x = _data_points(data)
    if x.ndim != 2:
        raise ValueError(f"need an (n, d) sample, got shape {x.shape}")
    return x.mean(axis=0)


def mle_inverse_normal(data):
    """Closed-form MLE: mu = mean, lam = 1 / mean(1/x - 1/mu)."""
    x = _data_points(data, 2)
    if np.any(x <= 0):
        raise ValueError("inverse normal requires strictly positive data")
    mu = float(x.mean())
    denom = float((1.0 / x).mean() - 1.0 / mu)
    if denom <= 0:
        raise ValueError("degenerate sample: shape denominator is not positive")
    return InverseNormal().from_natural_values((mu, 1.0 / denom))


def newton_bisection(f_df, lo, hi):
    """Root of a scalar function bracketed in [lo, hi].

    Takes Newton steps from ``f_df(x) -> (f, df)`` and falls back to
    bisection whenever the step leaves the bracket or stalls, so a root
    is found for any bracketed sign change.
    """
    flo, _ = f_df(lo)
    fhi, _ = f_df(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("no sign change inside the bracket")
    x = 0.5 * (lo + hi)
    dx_old = abs(hi - lo)
    dx = dx_old
    f, df = f_df(x)
    for _ in range(100):
        newton_ok = (
            df != 0.0
            and np.isfinite(df)
            and lo < x - f / df < hi
            and abs(2.0 * f) <= abs(dx_old * df)
        )
        dx_old = dx
        if newton_ok:
            dx = f / df
            x = x - dx
        else:
            dx = 0.5 * (hi - lo)
            x = lo + dx
        if abs(dx) < 1e-10:
            return x
        f, df = f_df(x)
        if np.sign(f) == np.sign(flo):
            lo = x
        else:
            hi = x
    return x


def _gompertz_profile(x):
    """Profile score in omega (lam concentrated out) and its derivative."""
    n = x.shape[0]
    sum_x = x.sum()
    x_max = x.max()

    def f_df(omega):
        u = omega * x
        if u.max() > 700.0:  # exp overflow; the ratio tends to -x_max
            return sum_x - n * x_max, np.nan
        e = np.exp(u)
        em1 = np.expm1(u)
        s1 = -em1.sum()  # sum(1 - e^{omega x})
        s2 = (-em1 / omega + x * e).sum()
        f = sum_x + n * s2 / s1
        ds1 = -(x * e).sum()
        ds2 = (x * e / -omega + em1 / omega**2 + x**2 * e).sum()
        df = n * (ds2 * s1 - s2 * ds1) / s1**2
        return f, df

    return f_df


def mle_gompertz(data, bracket=(1e-4, 20.0)):
    """Newton-bisection root for the shape in ``bracket`` (its lower end, the
    exponential limit, when the score is negative throughout), then the closed-form rate."""
    x = _data_points(data, 2)
    if np.any(x < 0):
        raise ValueError("Gompertz requires nonnegative data")
    if not np.any(x > 0):
        raise ValueError("all-zero sample")
    lo, hi = bracket
    profile = _gompertz_profile(x)
    signs = np.sign([profile(lo)[0], profile(hi)[0]])
    if signs[0] == signs[1] > 0:
        raise ValueError(f"Gompertz MLE: the profile score of omega has one sign on "
                         f"({lo:g}, {hi:g}), so the likelihood peaks outside that "
                         f"bracket; give a start with --init")
    omega = lo if signs[0] == signs[1] < 0 else newton_bisection(profile, lo, hi)
    lam = omega / np.expm1(omega * x).mean()
    return Gompertz().from_natural_values((float(omega), float(lam)))


def em_mixture(x, init):
    """EM for the two-component normal mixture.

    Returns the fitted :class:`MixtureParams` and the log-likelihood
    after every iteration.  Raises if a component collapses (its share
    of the points below 1e-6).
    """
    x = np.asarray(x, dtype=float)
    mu = np.array([init.mu1, init.mu2])
    var = np.array([init.sigma1**2, init.sigma2**2])
    alpha = float(init.alpha)
    logliks = []
    prev = -np.inf
    for _ in range(300):
        # E step on log densities, normalized per point, a column per component
        log_norm, log_mix = np.log(2 * np.pi * var), np.log([alpha, 1.0 - alpha])
        lp0, lp1 = (-0.5 * (log_norm[j] + (x - mu[j]) ** 2 / var[j]) + log_mix[j] for j in (0, 1))
        m = np.maximum(lp0, lp1)
        p0, p1 = np.exp(lp0 - m), np.exp(lp1 - m)
        tot = p0 + p1
        loglik = float((np.log(tot) + m).sum())
        resp = np.stack([p0 / tot, p1 / tot], axis=-1)
        logliks.append(loglik)
        # M step with the variance floor
        weights = _column_sums(resp)
        if weights.min() < 1e-6 * x.shape[0]:
            raise ValueError("component collapsed during EM")
        mu = np.einsum("ij,i->j", resp, x) / weights
        var = np.einsum("ij,ij->j", resp, (x[:, None] - mu) ** 2) / weights
        var = np.maximum(var, VARIANCE_FLOOR)
        alpha = float(weights[0] / x.shape[0])
        if loglik - prev < 1e-9 * max(1.0, abs(loglik)):
            break
        prev = loglik
    sd = np.sqrt(var)
    return MixtureParams(float(mu[0]), float(sd[0]), float(mu[1]), float(sd[1]), alpha), logliks


def mle_mixture(data, rng):
    """Best-of-5 restarted EM, initialized by quantile splits (4 drawn from ``rng``)."""
    x = _data_points(data, 10)
    best = None
    best_ll = -np.inf
    for k in range(5):
        q = 0.5 if k == 0 else float(rng.uniform(0.25, 0.75))
        cut = np.quantile(x, q)
        lower, upper = x[x <= cut], x[x > cut]
        if lower.size < 2 or upper.size < 2:
            continue
        init = MixtureParams(
            mu1=float(lower.mean()),
            sigma1=float(max(lower.std(), 1e-2)),
            mu2=float(upper.mean()),
            sigma2=float(max(upper.std(), 1e-2)),
            alpha=float(np.clip(lower.size / x.size, 0.05, 0.95)),
        )
        try:
            params, logliks = em_mixture(x, init)
        except ValueError:
            continue
        if logliks[-1] > best_ll:
            best, best_ll = params, logliks[-1]
    if best is None:
        raise ValueError("every EM restart collapsed")
    return NormalMixture2().from_natural(best)

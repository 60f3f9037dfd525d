import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdfit import mle
from dpdfit.mle import (
    em_mixture,
    mle_gompertz,
    mle_inverse_normal,
    mle_isonormal,
    mle_mixture,
    mle_normal,
    newton_bisection,
)
from dpdfit.models import (
    VARIANCE_FLOOR,
    Gompertz,
    GompertzParams,
    InverseNormal,
    MixtureParams,
    Normal1D,
    NormalMixture2,
    _column_sums,
)


class TestMleNormal:
    def test_two_point_sample(self):
        p = Normal1D().to_natural(mle_normal(np.array([-1.0, 1.0])))
        assert p.mu == pytest.approx(0.0) and p.sigma == pytest.approx(1.0)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_normal(np.full(5, 3.0))

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_normal(np.array([1.0]))

    def test_large_sample_consistency(self):
        x = np.random.default_rng(0).standard_normal(10_000)
        p = Normal1D().to_natural(mle_normal(x))
        assert abs(p.mu) < 0.05


class TestMleInverseNormal:
    def test_hand_computed_values(self):
        p = InverseNormal().to_natural(mle_inverse_normal(np.array([1.0, 2.0, 4.0])))
        assert p.mu == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert p.lam == pytest.approx(84.0 / 13.0, rel=1e-12)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_inverse_normal(np.full(3, 2.0))

    def test_nonpositive_data_rejected(self):
        with pytest.raises(ValueError):
            mle_inverse_normal(np.array([1.0, -2.0, 3.0]))

    def test_shape_estimate_maximizes_likelihood(self):
        m = InverseNormal()
        rng = np.random.default_rng(1)
        x = rng.wald(1.0, 3.0, 500)
        theta = mle_inverse_normal(x)
        p = m.to_natural(theta)
        best = m.log_pdf(theta, x).sum()
        for bump in (0.99, 1.01):
            other = m.from_natural(type(p)(mu=p.mu, lam=p.lam * bump))
            assert m.log_pdf(other, x).sum() < best


class TestMleGompertz:
    def test_average_score_vanishes(self):
        m = Gompertz()
        truth = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(truth, np.random.default_rng(2), 3000)
        theta = mle_gompertz(x)
        avg = (m.score(theta, x) / np.exp(theta)).mean(axis=0)  # score in (omega, lam)
        assert np.abs(avg).max() < 1e-6

    def test_large_sample_consistency(self):
        m = Gompertz()
        truth = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(truth, np.random.default_rng(3), 10_000)
        p = m.to_natural(mle_gompertz(x))
        assert 0.9 <= p.omega <= 1.1
        assert p.lam > 0

    def test_no_sign_change_in_bracket(self):
        """A likelihood still rising at the bracket's upper end raises."""
        m = Gompertz()
        truth = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(truth, np.random.default_rng(4), 500)
        with pytest.raises(ValueError, match="peaks outside that bracket"):
            mle_gompertz(x, bracket=(1e-4, 0.5))

    def test_peak_below_bracket_starts_at_its_lower_end(self):
        """A likelihood falling across the bracket gives its lower end, with
        the rate that maximizes the likelihood at that shape."""
        m = Gompertz()
        truth = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(truth, np.random.default_rng(4), 500)
        p = m.to_natural(mle_gompertz(x, bracket=(10.0, 20.0)))
        assert p.omega == pytest.approx(10.0, rel=1e-12)
        assert p.lam == pytest.approx(10.0 / np.expm1(10.0 * x).mean(), rel=1e-12)

    def test_overflow_at_bracket_end_starts_at_its_lower_end(self):
        """At the default bracket's upper end ``omega * x`` passes 700 for the
        point at 50; the profile takes the overflow's limit there, the
        likelihood falls across the bracket, and the start is its lower end."""
        x = np.array([0.1, 0.5, 1.0, 2.0, 50.0])
        p = Gompertz().to_natural(mle_gompertz(x))
        assert p.omega == pytest.approx(1e-4, rel=1e-12)
        assert p.lam == pytest.approx(1e-4 / np.expm1(1e-4 * x).mean(), rel=1e-12)

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            mle_gompertz(np.array([0.5, -0.1, 1.0]))

    def test_all_zero_sample_rejected(self):
        with pytest.raises(ValueError, match="all-zero sample"):
            mle_gompertz(np.zeros(5))


class TestNewtonBisection:
    def test_finds_root_of_cubic(self):
        root = newton_bisection(lambda x: (x**3 - 2.0, 3.0 * x**2), 0.0, 4.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-9)

    def test_bisection_rescues_bad_newton_steps(self):
        # derivative reported as tiny forces the bisection branch
        root = newton_bisection(lambda x: (np.tanh(x - 1.0), 1e-30), 0.0, 5.0)
        assert root == pytest.approx(1.0, abs=1e-8)

    def test_requires_bracketing(self):
        with pytest.raises(ValueError):
            newton_bisection(lambda x: (x + 10.0, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (-1.0, 2.0)], ids=["lo", "hi"])
    def test_exact_root_at_an_end_is_returned_without_a_step(self, lo, hi):
        calls = []

        def f_df(x):
            calls.append(x)
            return x - 2.0, 1.0
        assert newton_bisection(f_df, lo, hi) == 2.0
        assert calls == [lo, hi]

    def test_last_iterate_is_returned_after_100_steps(self):
        """A zero derivative forces bisection, and 100 halvings of a bracket
        of 2**200 leave steps far above 1e-10: the loop ends, and the last
        point it evaluated is returned, the root or not."""
        calls = []

        def f_df(x):
            calls.append(x)
            return x - 1.0, 0.0
        assert newton_bisection(f_df, 0.0, 2.0**200) == calls[-1] == 2.0**100
        assert len(calls) == 2 + 1 + 100  # both ends, the midpoint, one per step


class TestMleMixture:
    def test_recovers_separated_components(self):
        m = NormalMixture2()
        truth = m.from_natural(MixtureParams(-5, 1, 0, 1, 0.6))
        x = m.sample(truth, np.random.default_rng(5), 10_000)
        p = m.to_natural(mle_mixture(x, rng=np.random.default_rng(6)))
        means = sorted([p.mu1, p.mu2])
        assert means[0] == pytest.approx(-5.0, abs=0.2)
        assert means[1] == pytest.approx(0.0, abs=0.2)
        assert 0.0 < p.alpha < 1.0

    def test_loglik_monotone_over_iterations(self):
        m = NormalMixture2()
        truth = m.from_natural(MixtureParams(-2, 0.8, 1, 1.2, 0.4))
        x = m.sample(truth, np.random.default_rng(7), 2000)
        init = MixtureParams(mu1=-1.0, sigma1=1.0, mu2=0.5, sigma2=1.0, alpha=0.5)
        _, logliks = em_mixture(x, init)
        diffs = np.diff(logliks)
        assert np.all(diffs > -1e-9)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_mixture(np.arange(5.0), rng=np.random.default_rng(0))

    def test_collapse_raises(self):
        init = MixtureParams(mu1=0.0, sigma1=1e-3, mu2=1.0, sigma2=1e-3,
                             alpha=1e-7)
        with pytest.raises(ValueError):
            em_mixture(np.zeros(100), init)

    def test_tiny_share_on_two_tight_clusters_does_not_collapse(self):
        """A start with alpha = 1e-7 on two clusters of 50 points each
        recovers both: the first E step hands the 1e-9 cluster to the
        first component, and both variances settle on the floor."""
        x = np.concatenate([np.zeros(50) + 1e-9, np.ones(50)])
        init = MixtureParams(mu1=0.0, sigma1=1e-3, mu2=1.0, sigma2=1e-3,
                             alpha=1e-7)
        got, _ = em_mixture(x, init)
        assert got.alpha == 0.5
        assert got.mu1 == pytest.approx(1e-9, rel=1e-12) and got.mu2 == 1.0
        assert got.sigma1 == got.sigma2 == np.sqrt(VARIANCE_FLOOR)

    def test_collapsed_restart_is_skipped(self, monkeypatch):
        """A restart whose EM collapses drops out, and the best of the
        others is kept."""
        m = NormalMixture2()
        x = m.sample(m.from_natural(MixtureParams(-5, 1, 0, 1, 0.6)),
                     np.random.default_rng(5), 1000)
        starts, runs = [], []

        def first_collapses(x, init):
            starts.append(init)
            if len(starts) == 1:
                raise ValueError("component collapsed during EM")
            runs.append(em_mixture(x, init))
            return runs[-1]
        monkeypatch.setattr(mle, "em_mixture", first_collapses)
        got = mle_mixture(x, rng=np.random.default_rng(6))
        assert len(starts) == 5 and len(runs) == 4
        best = max(runs, key=lambda run: run[1][-1])[0]
        assert got.tobytes() == m.from_natural(best).tobytes()

    def test_every_restart_collapsing_raises(self):
        """Nine zeros and a one: every quantile split leaves one side empty
        and is skipped, so no restart is left."""
        with pytest.raises(ValueError, match="every EM restart collapsed"):
            mle_mixture(np.r_[np.zeros(9), 1.0], rng=np.random.default_rng(0))


def _broadcast_em(x, init):
    """Oracle of :func:`em_mixture`: its E and M steps on ``(n, 2)`` broadcasts,
    as the one-line formulas state them."""
    x = np.asarray(x, dtype=float)
    mu = np.array([init.mu1, init.mu2])
    var = np.array([init.sigma1**2, init.sigma2**2])
    alpha = float(init.alpha)
    logliks = []
    prev = -np.inf
    for _ in range(300):
        lp = -0.5 * (np.log(2 * np.pi * var) + (x[:, None] - mu) ** 2 / var)
        lp = lp + np.log([alpha, 1.0 - alpha])
        m = lp.max(axis=1, keepdims=True)
        p = np.exp(lp - m)
        tot = p.sum(axis=1, keepdims=True)
        loglik = float((np.log(tot) + m).sum())
        resp = p / tot
        logliks.append(loglik)
        weights = _column_sums(resp)
        if weights.min() < 1e-6 * x.shape[0]:
            raise ValueError("component collapsed during EM")
        mu = _column_sums(resp * x[:, None]) / weights
        var = _column_sums(resp * (x[:, None] - mu) ** 2) / weights
        var = np.maximum(var, VARIANCE_FLOOR)
        alpha = float(weights[0] / x.shape[0])
        if not 1e-6 < alpha < 1.0 - 1e-6:
            raise ValueError("component collapsed during EM")
        if loglik - prev < 1e-9 * max(1.0, abs(loglik)):
            break
        prev = loglik
    return MixtureParams(float(mu[0]), float(np.sqrt(var[0])), float(mu[1]),
                         float(np.sqrt(var[1])), alpha), logliks


def _em_outcome(em, x, init):
    try:
        params, logliks = em(x, init)
    except ValueError as err:
        return str(err)
    return np.array([*params, *logliks]).tobytes()


class TestEmColumns:
    """The column-wise EM gives the bytes of the broadcast form: the same
    parameters, every log-likelihood, and the same error where a component
    collapses."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(10, 2000), seed=st.integers(0, 2**32 - 1),
           start=st.tuples(st.floats(-30, 30), st.floats(1e-3, 10), st.floats(-30, 30),
                           st.floats(1e-3, 10), st.floats(1e-3, 0.999)))
    @example(n=100, seed=0, start=(0.0, 1e-3, 1.0, 1e-3, 1e-3))
    @example(n=1000, seed=1, start=(-1.0, 1.0, 1.0, 1.0, 0.5))
    def test_same_bytes_as_the_broadcast_form(self, n, seed, start):
        rng = np.random.default_rng(seed)
        mu, sd = rng.uniform(-5, 5, 2), rng.uniform(0.1, 3.0, 2)
        first = rng.random(n) < rng.uniform(0.05, 0.95)
        x = np.where(first, rng.normal(mu[0], sd[0], n), rng.normal(mu[1], sd[1], n))
        init = MixtureParams(*start)
        assert _em_outcome(em_mixture, x, init) == _em_outcome(_broadcast_em, x, init)

    def test_the_property_sees_both_outcomes(self):
        """Both outcomes occur among starts like the property's."""
        x = np.random.default_rng(2).normal(0.0, 1.0, 500)
        outcomes = [_em_outcome(em_mixture, x, MixtureParams(0.0, 1.0, mu2, 0.1, 0.5))
                    for mu2 in (0.5, 30.0)]
        assert isinstance(outcomes[0], bytes) and outcomes[1] == "component collapsed during EM"


class TestMleIsoNormal:
    def test_column_means(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(mle_isonormal(x), [2.0, 3.0])

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            mle_isonormal(np.array([1.0, 2.0]))

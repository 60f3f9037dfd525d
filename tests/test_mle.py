import numpy as np
import pytest

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
    Gompertz,
    GompertzParams,
    InverseNormal,
    MixtureParams,
    Normal1D,
    NormalMixture2,
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
        m = Gompertz()
        truth = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(truth, np.random.default_rng(4), 500)
        with pytest.raises(ValueError):
            mle_gompertz(x, bracket=(10.0, 20.0))

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            mle_gompertz(np.array([0.5, -0.1, 1.0]))


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
            mle_mixture(np.arange(5.0))

    def test_collapse_raises(self):
        x = np.concatenate([np.zeros(50) + 1e-9, np.ones(50)])
        init = MixtureParams(mu1=0.0, sigma1=1e-3, mu2=1.0, sigma2=1e-3,
                             alpha=1e-7)
        with pytest.raises(ValueError):
            em_mixture(np.zeros(100), init)


class TestMleIsoNormal:
    def test_column_means(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(mle_isonormal(x), [2.0, 3.0])

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            mle_isonormal(np.array([1.0, 2.0]))

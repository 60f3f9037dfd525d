import numpy as np
import pytest

from dpdfit.divergence import Lattice, empirical_power_term, lattice_r
from dpdfit.gradients import (
    CurrentModel,
    FixedNormal,
    _proposal_terms,
    data_term,
    lattice_grad_dpd,
    stochastic_grad_dpd,
    stochastic_grad_gamma,
)
from dpdfit.models import (
    Gompertz,
    GompertzParams,
    IsoNormal,
    Normal1D,
)
from dpdfit.optim import StepDecay, sgd_run


def fd_grad(fn, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def exact_dpd_grad(model, theta, x, beta):
    """Oracle: finite differences of the exactly computable objective."""
    return fd_grad(
        lambda t: empirical_power_term(model, t, x, beta)
        + model.closed_form_r(t, beta),
        theta,
    )


def batched_estimate(model, theta, x, beta, total_draws, rng):
    """Mean and componentwise standard error of the stochastic gradient
    averaged over many draws.  Averaging K batch-m estimates equals one
    batch of K*m draws, so a single big call gives the same statistic."""
    est = stochastic_grad_dpd(
        model, theta, x, beta, total_draws, CurrentModel(), rng, keep_draws=True
    )
    se = est.draw_terms.std(axis=0, ddof=1) / np.sqrt(total_draws)
    return est.g, se


class TestStochasticGradDpd:
    def test_unbiased_against_exact_gradient(self):
        """Mean of 1e5 batch-m estimates within 4 SE of the exact gradient."""
        m = Normal1D()
        rng = np.random.default_rng(0)
        reps = 10**5
        for _ in range(20):
            theta = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.5, 1.5)])
            beta = float(rng.choice([0.1, 0.5, 1.0]))
            batch = int(rng.choice([1, 3, 10]))
            x = m.sample(theta, rng, 200) + rng.uniform(-0.5, 0.5)
            exact = exact_dpd_grad(m, theta, x, beta)
            mean, se = batched_estimate(m, theta, x, beta, reps * batch, rng)
            np.testing.assert_array_less(np.abs(mean - exact), 4.0 * se + 1e-9)

    def test_repeated_calls_agree_with_exact_gradient(self):
        """The actual call path, averaged over 2000 independent calls."""
        m = Normal1D()
        rng = np.random.default_rng(1)
        theta = np.array([0.3, 1.1])
        x = m.sample(theta, rng, 150)
        beta = 0.5
        exact = exact_dpd_grad(m, theta, x, beta)
        grads = np.array(
            [
                stochastic_grad_dpd(m, theta, x, beta, 3, CurrentModel(), rng).g
                for _ in range(2000)
            ]
        )
        se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
        np.testing.assert_array_less(np.abs(grads.mean(axis=0) - exact), 5.0 * se)

    def test_two_terms_cancel_on_model_data(self):
        """With data drawn from the model itself and huge n, m, the data
        term and the proposal term estimate the same expectation with
        opposite signs, so the gradient is small."""
        m = Normal1D()
        rng = np.random.default_rng(2)
        theta = np.array([0.0, 1.0])
        n = 10**6
        x = m.sample(theta, rng, n)
        beta = 0.5
        lp = m.log_pdf(theta, x)
        data_draws = np.exp(beta * lp)[:, None] * m.score(theta, x)
        se_data = data_draws.std(axis=0, ddof=1) / np.sqrt(n)
        est = stochastic_grad_dpd(
            m, theta, x, beta, n, CurrentModel(), rng, keep_draws=True
        )
        se_prop = est.draw_terms.std(axis=0, ddof=1) / np.sqrt(n)
        bound = 5.0 * np.sqrt(se_data**2 + se_prop**2)
        np.testing.assert_array_less(np.abs(est.g), bound)

    def test_minimum_batch_size(self):
        m = Normal1D()
        theta = np.array([0.0, 1.0])
        x = np.array([0.5, -0.2])
        est = stochastic_grad_dpd(m, theta, x, 0.5, 1, CurrentModel(),
                                  np.random.default_rng(3))
        assert np.all(np.isfinite(est.g))
        with pytest.raises(ValueError):
            stochastic_grad_dpd(m, theta, x, 0.5, 0, CurrentModel(),
                                np.random.default_rng(3))

    def test_variance_scales_inversely_with_batch(self):
        m = Normal1D()
        rng = np.random.default_rng(4)
        theta = np.array([0.2, 0.9])
        x = m.sample(theta, rng, 100)
        samples = {}
        for batch in (1, 100):
            samples[batch] = np.array(
                [
                    stochastic_grad_dpd(m, theta, x, 0.5, batch, CurrentModel(), rng).g
                    for _ in range(1500)
                ]
            )
        ratio = samples[1].var(axis=0) / samples[100].var(axis=0)
        assert np.all(ratio > 50.0) and np.all(ratio < 200.0)

    def test_importance_weighted_proposal_consistent(self):
        """Fixed-normal proposal and current-model proposal estimate the
        same gradient."""
        m = Normal1D()
        rng = np.random.default_rng(5)
        theta = np.array([0.4, 1.2])
        x = m.sample(theta, rng, 120)
        beta = 0.5
        total = 400_000
        cur = stochastic_grad_dpd(
            m, theta, x, beta, total, CurrentModel(), rng, keep_draws=True
        )
        fix = stochastic_grad_dpd(
            m, theta, x, beta, total, FixedNormal(mean=0.0, sd=2.0), rng,
            keep_draws=True,
        )
        se = np.sqrt(
            cur.draw_terms.var(axis=0) / total + fix.draw_terms.var(axis=0) / total
        )
        np.testing.assert_array_less(np.abs(cur.g - fix.g), 4.0 * se)

    def test_proposal_support_mismatch(self):
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        with pytest.raises(ValueError):
            stochastic_grad_dpd(g, th, np.array([1.0]), 0.5, 5,
                                FixedNormal(mean=0.0, sd=1.0),
                                np.random.default_rng(6))

    def test_zero_density_data_contributes_nothing(self):
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        clean = np.array([0.5, 1.5, 2.0])
        with_dead = np.concatenate([clean, [-3.0]])
        a = data_term(g, th, clean, 0.5)
        b = data_term(g, th, with_dead, 0.5)
        np.testing.assert_allclose(b, a * clean.size / with_dead.size, rtol=1e-12)


class TestProposalTerms:
    @pytest.mark.parametrize("mean,sd", [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan),
                                         (0.0, np.inf), (np.nan, 1.0),
                                         (np.array([0.0, np.inf]), 1.0)])
    def test_fixed_normal_rejects_invalid_parameters(self, mean, sd):
        with pytest.raises(ValueError):
            FixedNormal(mean=mean, sd=sd)

    def test_nan_weight_propagates_and_zero_weight_gives_zero_row(self):
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        y = np.array([0.5, -1.0, 1.5])  # the middle draw has zero density
        log_q = np.array([np.nan, 0.0, 0.0])
        terms, weights = _proposal_terms(g, th, y, log_q, 0.5)
        assert np.isnan(weights[0]) and np.isnan(terms[0]).all()
        assert weights[1] == 0.0 and (terms[1] == 0.0).all()
        np.testing.assert_array_equal(terms[2], weights[2] * g.score(th, y[2:])[0])

    def test_nan_weight_makes_the_descent_diverge(self):
        m = Normal1D()
        x = np.array([0.5, -0.2, 1.0])

        def grad(th, rng):
            y = m.sample(th, rng, 4)
            terms, _ = _proposal_terms(m, th, y, np.full(4, np.nan), 0.5)
            return data_term(m, th, x, 0.5) + terms.mean(axis=0)

        result = sgd_run(grad, np.array([0.0, 1.0]), StepDecay(1.0, 0.7, 25), 10,
                         np.random.default_rng(0))
        assert result.diverged and len(result.trace) == 1


class TestLatticeGradDpd:
    def test_matches_finite_difference_oracle(self):
        m = Normal1D()
        rng = np.random.default_rng(7)
        backend = Lattice(extent=8.0, nodes=4001)
        for _ in range(5):
            theta = np.array([rng.uniform(-1, 1), rng.uniform(0.6, 1.4)])
            x = rng.normal(size=80)
            exact = exact_dpd_grad(m, theta, x, 0.5)
            approx = lattice_grad_dpd(m, theta, x, 0.5, backend)
            np.testing.assert_allclose(approx, exact, atol=1e-3)

    def test_exact_gradient_of_its_own_objective(self):
        # even on a coarse grid, the lattice gradient must differentiate
        # the lattice objective exactly
        m = Normal1D()
        backend = Lattice(extent=3.0, nodes=7)
        theta = np.array([0.4, 1.1])
        x = np.random.default_rng(20).normal(size=40)
        fd = fd_grad(
            lambda t: empirical_power_term(m, t, x, 0.5)
            + lattice_r(m, t, 0.5, backend),
            theta,
        )
        np.testing.assert_allclose(lattice_grad_dpd(m, theta, x, 0.5, backend),
                                   fd, atol=1e-7)

    def test_symmetric_data_zero_location_gradient(self):
        m = Normal1D()
        theta = np.array([0.0, 1.0])
        g = lattice_grad_dpd(m, theta, np.array([-1.3, 1.3]), 0.5,
                             Lattice(extent=8.0, nodes=2001))
        assert abs(g[0]) < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_non_positive_beta_before_any_arithmetic(self, beta):
        # with beta = -1, p(x)**beta overflows for a point 100 units from
        # the mean, so a late check would come after a RuntimeWarning
        x = np.full((5, 2), 100.5)
        with pytest.raises(ValueError, match="beta must be positive"):
            lattice_grad_dpd(IsoNormal(2), np.full(2, 0.5), x, beta,
                             Lattice(extent=2.0, nodes=3))

    def test_multivariate_grid_shape(self):
        m = IsoNormal(2)
        backend = Lattice(extent=2.0, nodes=50)
        assert backend.total_points(m) == 2500
        x = np.random.default_rng(8).normal(0.5, 1.0, (200, 2))
        g = lattice_grad_dpd(m, np.full(2, 0.5), x, 0.5, backend)
        assert g.shape == (2,) and np.all(np.isfinite(g))


class TestStochasticGradGamma:
    def test_scale_gradient_root(self):
        """g_c vanishes exactly at c = A / B for the realized draws."""
        m = Normal1D()
        theta = np.array([0.1, 1.0])
        x = m.sample(np.array([0.0, 1.0]), np.random.default_rng(9), 300)
        gamma = 0.5

        def g_logc(c, seed=10):
            return stochastic_grad_gamma(
                m, theta, c, x, gamma, 50, CurrentModel(),
                np.random.default_rng(seed),
            ).g[-1]

        # recover A and B from two calls sharing the same draws:
        # g_c(c) = -c^(gamma-1) A + c^gamma B, returned as c * g_c(c)
        g1 = g_logc(1.0)  # = -A + B
        g2 = g_logc(2.0) / 2.0  # = -2^(gamma-1) A + 2^gamma B
        a = (g2 - 2**gamma * g1) / (2**gamma - 2 ** (gamma - 1.0))
        b = a + g1
        root = a / b
        assert abs(g_logc(root)) < 1e-12 * max(1.0, abs(g1))

    def test_unit_scale_matches_dpd_gradient(self):
        m = Normal1D()
        theta = np.array([0.3, 1.1])
        x = m.sample(theta, np.random.default_rng(11), 200)
        dpd = stochastic_grad_dpd(m, theta, x, 0.5, 20, CurrentModel(),
                                  np.random.default_rng(12)).g
        aug = stochastic_grad_gamma(m, theta, 1.0, x, 0.5, 20, CurrentModel(),
                                    np.random.default_rng(12)).g
        np.testing.assert_array_equal(aug[:-1], dpd)

    def test_unbiased_against_scaled_objective(self):
        """Mean gradient matches finite differences of the exactly
        computable scaled objective d(Q, c p) in (theta, log c)."""
        m = Normal1D()
        rng = np.random.default_rng(13)
        gamma = 0.5
        theta = np.array([0.2, 1.05])
        c = 0.8
        x = m.sample(np.array([0.0, 1.0]), rng, 250)

        def scaled_objective(psi):
            th, log_c = psi[:2], psi[2]
            cc = np.exp(log_c)
            first = cc**gamma * empirical_power_term(m, th, x, gamma)
            return first + cc ** (1 + gamma) * m.closed_form_r(th, gamma)

        exact = fd_grad(scaled_objective, np.concatenate([theta, [np.log(c)]]))
        total = 400_000
        est = stochastic_grad_gamma(
            m, theta, c, x, gamma, total, CurrentModel(), rng, keep_draws=True
        )
        se_theta = (
            c ** (1 + gamma)
            * est.draw_terms.std(axis=0, ddof=1)
            / np.sqrt(total)
        )
        se_c = c**gamma * est.draw_weights.std(ddof=1) / np.sqrt(total) * c
        se = np.concatenate([se_theta, [se_c]])
        np.testing.assert_array_less(np.abs(est.g - exact), 4.0 * se + 1e-9)

    def test_invalid_scale(self):
        m = Normal1D()
        with pytest.raises(ValueError):
            stochastic_grad_gamma(m, np.array([0.0, 1.0]), 0.0, np.array([0.1]),
                                  0.5, 5, CurrentModel(), np.random.default_rng(14))

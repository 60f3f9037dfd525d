import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from dpdfit import divergence
from dpdfit.divergence import (
    Lattice,
    empirical_dpce,
    empirical_gce,
    empirical_power_term,
    integral_r,
    lattice_points,
    lattice_r,
)
from dpdfit.gradients import CurrentModel, stochastic_grad_dpd
from dpdfit.mle import mle_isonormal, mle_normal
from dpdfit.models import (
    MAGNITUDE_MAX,
    Gompertz,
    GompertzParams,
    IsoNormal,
    MixtureParams,
    Normal1D,
    NormalMixture2,
    NormalParams,
    get_model,
)
from dpdfit.optim import StepDecay, sgd_run


def quad_r(model, theta, beta, lo, hi):
    """Adaptive-quadrature oracle for the integral term."""
    val, _ = integrate.quad(
        lambda z: np.exp((1.0 + beta) * model.log_pdf(theta, z)[0]), lo, hi,
        limit=200,
    )
    return val / (1.0 + beta)


class TestEmpiricalPowerTerm:
    def test_single_point_at_mode(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        value = empirical_power_term(m, th, np.array([0.0]), 1.0)
        assert value == pytest.approx(-((2 * np.pi) ** -0.5), abs=1e-12)

    def test_averaging_invariance(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.3, sigma=1.1))
        one = empirical_power_term(m, th, np.array([0.7]), 0.5)
        many = empirical_power_term(m, th, np.full(17, 0.7), 0.5)
        assert many == pytest.approx(one, abs=1e-15)

    def test_matches_naive_powering(self):
        m = Normal1D()
        rng = np.random.default_rng(0)
        for _ in range(10):
            th = np.array([rng.uniform(-2, 2), rng.uniform(0.4, 2.0)])
            x = rng.normal(size=50)
            beta = rng.uniform(0.1, 1.0)
            naive = -np.mean(np.exp(m.log_pdf(th, x)) ** beta) / beta
            value = empirical_power_term(m, th, x, beta)
            assert value == pytest.approx(naive, rel=1e-12)

    @pytest.mark.parametrize("name", ["normal", "inverse-normal", "gompertz", "mixture",
                                      "isonormal2"])
    def test_blocked_data_mean_is_one_pass_at_every_block(self, monkeypatch, name):
        """The data mean fills one weight array block by block, then averages
        it: the bytes of ``exp(beta * log_pdf)`` over all points, averaged."""
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(4), 1000)
        want = -float(np.exp(0.5 * model.log_pdf(theta, x)).mean()) / 0.5
        for block in (1, 7, 64, divergence.BLOCK):
            monkeypatch.setattr(divergence, "BLOCK", block)
            assert repr(empirical_power_term(model, theta, x, 0.5)) == repr(want)

    def test_empty_dataset_rejected(self):
        m = Normal1D()
        with pytest.raises(ValueError):
            empirical_power_term(m, np.array([0.0, 1.0]), np.array([]), 0.5)


class TestClosedFormR:
    def test_standard_normal_beta_one(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        assert m.closed_form_r(th, 1.0) == pytest.approx(0.141047395886939, abs=1e-10)

    def test_standard_normal_beta_half(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        assert m.closed_form_r(th, 0.5) == pytest.approx(0.34381, abs=5e-6)

    def test_against_quadrature_oracle(self):
        m = Normal1D()
        rng = np.random.default_rng(1)
        for _ in range(8):
            th = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 2.0)])
            beta = rng.uniform(0.1, 1.0)
            ref = quad_r(m, th, beta, -40, 40)
            assert m.closed_form_r(th, beta) == pytest.approx(ref, abs=1e-6)

    def test_isonormal_against_univariate_product(self):
        # the d-variate unit-covariance integral is the d-th power of the
        # univariate sigma=1 integral
        m1 = Normal1D()
        th1 = m1.from_natural(NormalParams(mu=0.0, sigma=1.0))
        for d in (2, 3, 4):
            m = IsoNormal(d)
            for beta in (0.1, 0.5, 1.0):
                one_dim_integral = (1.0 + beta) * m1.closed_form_r(th1, beta)
                expected = one_dim_integral**d / (1.0 + beta)
                assert m.closed_form_r(np.zeros(d), beta) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_small_beta_limit_is_one(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.4, sigma=1.3))
        assert m.closed_form_r(th, 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_unsupported_family(self):
        g = Gompertz()
        assert g.closed_form_r is None
        with pytest.raises(ValueError, match="no closed-form integral term for gompertz"):
            integral_r(g, np.zeros(2), 0.5)
        with pytest.raises(ValueError, match="no closed-form integral term for gompertz"):
            empirical_dpce(g, np.zeros(2), np.array([1.0]), 0.5)


class TestLatticeR:
    def test_node_formula(self):
        pts, w = lattice_points(Normal1D(), Lattice(extent=2.0, nodes=3))
        np.testing.assert_allclose(pts, [-2.0, 0.0, 2.0])
        assert w == pytest.approx(2.0)

    def test_positive_support_nodes(self):
        pts, w = lattice_points(Gompertz(), Lattice(extent=6.0, nodes=4))
        np.testing.assert_allclose(pts, [0.0, 2.0, 4.0, 6.0])
        assert w == pytest.approx(2.0)

    @pytest.mark.parametrize("model", [Gompertz(), Normal1D(), IsoNormal(3)], ids=repr)
    def test_matches_explicit_formulas(self, model):
        extent, m = 2.3, 7
        lo = 0.0 if model.support == "positive" else -extent
        axis = np.linspace(lo, extent, m)
        if model.dim_x == 1:
            expected = axis
        else:
            grids = np.meshgrid(*([axis] * model.dim_x), indexing="ij")
            expected = np.stack(grids, axis=-1).reshape(-1, model.dim_x)
        pts, w = lattice_points(model, Lattice(extent=extent, nodes=m))
        assert pts.shape == expected.shape
        np.testing.assert_array_equal(pts, expected)
        assert w == ((extent - lo) / (m - 1)) ** model.dim_x

    @pytest.mark.parametrize("model", [Gompertz(), Normal1D(), IsoNormal(3)], ids=repr)
    def test_nodes_are_built_once_and_read_only(self, model):
        pts, w = lattice_points(model, Lattice(extent=2.3, nodes=7))
        again, w_again = lattice_points(model, Lattice(extent=2.3, nodes=7))
        assert again is pts and w_again == w
        with pytest.raises(ValueError, match="read-only"):
            pts[0] = 1.0

    @pytest.mark.parametrize("name", ["normal", "inverse-normal", "gompertz", "mixture",
                                      "isonormal2", "isonormal3"])
    def test_nodes_are_c_ordered(self, name):
        """Their score rows are summed in order only as a C-ordered block."""
        pts, _ = lattice_points(get_model(name), Lattice(extent=2.3, nodes=7))
        assert pts.flags.c_contiguous

    def test_multivariate_grid(self):
        m = IsoNormal(2)
        pts, w = lattice_points(m, Lattice(extent=2.0, nodes=3))
        assert pts.shape == (9, 2)
        assert w == pytest.approx(4.0)
        assert Lattice(extent=2.0, nodes=3).total_points(m) == 9

    def test_matches_closed_form_on_fine_grid(self):
        m = Normal1D()
        rng = np.random.default_rng(2)
        backend = Lattice(extent=8.0, nodes=4001)
        for _ in range(10):
            th = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 1.3)])
            for beta in (0.1, 0.5, 1.0):
                err = abs(lattice_r(m, th, beta, backend) - m.closed_form_r(th, beta))
                assert err < 1e-4

    def test_gompertz_normalization_at_beta_zero(self):
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        value = lattice_r(g, th, 0.0, Lattice(extent=60.0, nodes=100_000))
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_error_decreases_with_node_count(self):
        # narrow densities keep the coarse-grid error visible; once the
        # quadrature saturates machine precision, ties are allowed
        m = Normal1D()
        rng = np.random.default_rng(3)
        for _ in range(10):
            th = np.array([rng.uniform(-1, 1), rng.uniform(0.02, 0.1)])
            for beta in (0.1, 0.5, 1.0):
                exact = m.closed_form_r(th, beta)
                errs = [
                    abs(lattice_r(m, th, beta, Lattice(8.0, n)) - exact)
                    for n in (100, 1000, 10_000)
                ]
                assert errs[0] > errs[1]
                assert errs[2] <= errs[1] + 1e-13

    def test_bad_backend_parameters(self):
        for extent in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                Lattice(extent=extent, nodes=10)
        with pytest.raises(ValueError):
            Lattice(extent=1.0, nodes=1)


class TestEmpiricalDpce:
    def test_decomposition_is_exact(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.1, sigma=0.9))
        x = np.random.default_rng(4).normal(size=100)
        value = empirical_dpce(m, th, x, 0.5)
        assert type(value) is float
        assert value == empirical_power_term(m, th, x, 0.5) + integral_r(m, th, 0.5)

    def test_matches_independent_reimplementation(self):
        m = Normal1D()
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu, sigma = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            th = m.from_natural(NormalParams(mu=mu, sigma=sigma))
            x = rng.normal(size=60)
            beta = rng.uniform(0.1, 1.0)
            pdf = np.exp(-((x - mu) ** 2) / (2 * sigma**2)) / np.sqrt(
                2 * np.pi * sigma**2
            )
            expected = -np.mean(pdf**beta) / beta + (2 * np.pi * sigma**2) ** (
                -beta / 2
            ) * (1 + beta) ** (-1.5)
            value = empirical_dpce(m, th, x, beta)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        rng = np.random.default_rng(6)
        x = rng.normal(size=200)
        a = empirical_dpce(m, th, x, 0.5)
        b = empirical_dpce(m, th, rng.permutation(x), 0.5)
        assert b == pytest.approx(a, abs=1e-12)

    def test_finite_for_moderate_beta(self):
        m = Normal1D()
        rng = np.random.default_rng(7)
        x = rng.normal(size=1000)
        th = np.array([x.mean(), x.std()])
        for beta in (0.1, 0.5, 1.0):
            assert np.isfinite(empirical_dpce(m, th, x, beta))

    def test_objective_prefers_truth_on_clean_data(self):
        """Statistical sanity: at n = 1e5 the empirical objective at the
        true parameters beats a 0.5-distant perturbation nearly always."""
        m = Normal1D()
        th_star = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng([8, seed])
            x = m.sample(th_star, rng, 100_000)
            delta = rng.standard_normal(2)
            delta *= 0.5 / np.linalg.norm(delta)
            at_truth = empirical_dpce(m, th_star, x, 0.5)
            perturbed = empirical_dpce(m, th_star + delta, x, 0.5)
            wins += int(at_truth < perturbed)
        assert wins >= 48


class TestEmpiricalGce:
    def test_hand_computed_value(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        value = empirical_gce(m, th, np.array([0.0]), 1.0)
        phi0 = (2 * np.pi) ** -0.5
        expected = -np.log(phi0) + 0.5 * np.log(phi0 * 2**-0.5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.28618247146235, abs=1e-10)

    def test_matches_algebraic_formula(self):
        m = Normal1D()
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu, sigma = rng.uniform(-1, 1), rng.uniform(0.6, 1.8)
            th = m.from_natural(NormalParams(mu=mu, sigma=sigma))
            x = rng.normal(size=80)
            gamma = rng.uniform(0.1, 1.0)
            pdf = np.exp(m.log_pdf(th, x))
            expected = -np.log(np.mean(pdf**gamma)) / gamma + np.log(
                (2 * np.pi * sigma**2) ** (-gamma / 2)
                * (1 + gamma) ** (-1.5)
                * (1 + gamma)
            ) / (1 + gamma)
            value = empirical_gce(m, th, x, gamma)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        """The cross entropy of the unnormalized model ``c * p``, written out,
        is the library's value at every ``c``."""
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.2, sigma=1.1))
        x = np.random.default_rng(10).normal(size=100)
        gamma = 0.5
        base = empirical_gce(m, th, x, gamma)
        p, r = np.exp(m.log_pdf(th, x)), m.closed_form_r(th, gamma)
        for c in (0.1, 0.9, 7.3):
            scaled = (-np.log(np.mean((c * p) ** gamma)) / gamma
                      + np.log(c ** (1 + gamma) * (1 + gamma) * r) / (1 + gamma))
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_vanishing_density_is_infinite(self):
        """The data term is ``-log(0) / gamma``: a value to monitor, not an
        error, and no warning either (the suite turns warnings into errors)."""
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        value = empirical_gce(g, th, np.array([-3.0, -2.0]), 0.5,
                              Lattice(extent=60.0, nodes=1000))
        assert value == np.inf and type(value) is float

    def test_lattice_backend_for_general_family(self):
        mix = NormalMixture2()
        th = mix.from_natural(MixtureParams(-5, 1, 0, 1, 0.6))
        x = mix.sample(th, np.random.default_rng(11), 500)
        value = empirical_gce(mix, th, x, 0.5, Lattice(extent=20.0, nodes=4001))
        assert np.isfinite(value)


def _minimiser(model, objective, start):
    """Natural parameter values of the Nelder-Mead minimiser of ``objective`` from ``start``."""
    res = optimize.minimize(objective, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000})
    return model.natural_values(res.x)


class TestRobustness:
    """Why the DPD is minimised at all (Basu et al. 1998): an outlier's
    influence is bounded and falls to 0 far from the model.  With k <= n / 10
    of n standard-normal points moved to z, each outlier's weight
    ``p(z)**beta`` underflows to 0 from z = 1e3 on (beta >= 0.01, spreads near
    1), so the minimiser, found from the inliers' MLE, is the same at every
    such z up to ``MAGNITUDE_MAX``.  It is the z = inf limit: the minimiser of
    the inliers' objective with its data term scaled by (n - k) / n, which
    the test computes without ``divergence``."""

    N = 1000

    def limit(self, model, inliers, beta, start):
        """The z = inf minimiser, from the inliers alone."""
        def objective(theta):
            w = np.exp(beta * model.log_pdf(theta, inliers))
            return -w.sum() / (beta * self.N) + model.closed_form_r(theta, beta)
        return _minimiser(model, objective, start)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              phases=[Phase.explicit, Phase.generate])
    @given(name=st.sampled_from(["normal", "isonormal2", "isonormal3"]),
           beta=st.floats(0.01, 1.0), k=st.integers(1, N // 10), seed=st.integers(0, 2**32 - 1))
    @example(name="normal", beta=0.5, k=100, seed=0)
    def test_minimiser_is_the_same_at_every_far_outlier(self, name, beta, k, seed):
        model = get_model(name)
        x = np.random.default_rng(seed).standard_normal((self.N, *model.point_shape))
        inliers = x[k:].copy()
        start = mle_normal(inliers) if model.dim_x == 1 else mle_isonormal(inliers)
        want = self.limit(model, inliers, beta, start)
        for z in (1e3, 1e6, 1e20, MAGNITUDE_MAX):
            x[:k] = z
            got = _minimiser(model, lambda t: empirical_dpce(model, t, x, beta), start)
            # the objective resolves its minimiser to about 1e-7 (closer, its change
            # is below its rounding); averaging the data weights over the nonzero
            # ones only (w[w > 0].mean()) moves it by 0.037 at beta = 0.5, k = 100
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5, err_msg=f"z = {z:g}")

    def test_sgd_run_ends_near_the_limit(self):
        """The package's own descent, ``sgd_run`` on ``stochastic_grad_dpd``
        with m = 10 and the paper's schedule, from the truth, ends within 0.1
        of the z = inf minimiser (0.011 to 0.043 over these seeds).  From
        this sample's MLE, at mu = 1e5 and sigma = 3e5, it would not move."""
        model, beta = Normal1D(), 0.5
        x = np.random.default_rng(0).standard_normal(self.N)
        want = self.limit(model, x[100:].copy(), beta, mle_normal(x[100:]))
        x[:100] = 1e6
        for seed in range(5):
            result = sgd_run(lambda th, rng: stochastic_grad_dpd(
                model, th, x, beta, 10, CurrentModel(), rng).g, np.array([0.0, 1.0]),
                StepDecay(1.0, 0.7, 25), 500, np.random.default_rng(seed))
            assert np.abs(model.natural_values(result.trace[-1]) - want).max() < 0.1

    def test_small_beta_does_not_reject_a_near_cluster(self):
        """Not a property: at beta = 0.1, 10 % of the points at z = 10 move
        the minimiser by more than 1 (1.60 here).  The descent's start, the
        MLE, finds it; a local minimum near the inliers lies higher.  At
        beta = 0.5 the same sample moves it by 0.03."""
        model = Normal1D()
        clean = np.random.default_rng(0).standard_normal(self.N)
        x = clean.copy()
        x[:100] = 10.0
        shifts = {}
        for beta in (0.1, 0.5):
            base = _minimiser(model, lambda t: empirical_dpce(model, t, clean, beta),
                              mle_normal(clean))
            fits = [model.from_natural_values(_minimiser(
                model, lambda t: empirical_dpce(model, t, x, beta), start))
                for start in (mle_normal(x), mle_normal(clean))]
            objective = [empirical_dpce(model, t, x, beta) for t in fits]
            assert objective[0] <= objective[1] + 1e-12
            shifts[beta] = np.abs(model.natural_values(fits[0]) - base).max()
        assert shifts[0.1] > 1.0 and shifts[0.5] < 0.05

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpdfit.divergence import BLOCK, Lattice, lattice_r
from dpdfit.models import (
    _LOG_2PI,
    VARIANCE_FLOOR,
    Gompertz,
    GompertzParams,
    InverseNormal,
    InverseNormalParams,
    IsoNormal,
    IsoNormalParams,
    MixtureParams,
    Model,
    Normal1D,
    NormalMixture2,
    NormalParams,
    get_model,
)


def fd_grad(fn, theta, h=1e-6):
    """Central-difference gradient of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


ALL_MODELS = [Normal1D(), IsoNormal(3), InverseNormal(), Gompertz(), NormalMixture2()]


def gompertz_cdf(p):
    """CDF of the Gompertz distribution with natural parameters ``p``,
    from its closed form ``1 - exp(-(lam / omega) (exp(omega q) - 1))``."""
    return lambda q: np.where(q < 0, 0.0, -np.expm1(p.lam / p.omega * -np.expm1(p.omega * q)))


def mixture_cdf(p):
    """CDF of the two-component normal mixture with natural parameters ``p``."""
    return lambda q: (p.alpha * stats.norm.cdf(q, p.mu1, p.sigma1)
                      + (1 - p.alpha) * stats.norm.cdf(q, p.mu2, p.sigma2))


# Every family get_model knows, the d-variate one at the preset dimensions.
FAMILIES = ["normal", "inverse-normal", "gompertz", "mixture", "isonormal2", "isonormal3"]

# Derandomized so that a run of the suite is reproducible.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Parameter boxes with all constrained pieces well inside their valid
# ranges (keeps finite differences accurate); isonormal means lie in [-2, 2].
THETA_BOX = {
    "normal": [(-3, 3), (0.3, 2.0)],
    "inverse-normal": [(-1, 1), (-1, 1.5)],
    "gompertz": [(-1, 1), (-2, 0)],
    "mixture": [(-1.5, 1.5), (-6, -3), (0.5, 1.5), (-1, 1), (0.5, 1.5)],
}


def theta_box(model):
    return THETA_BOX.get(model.name, [(-2, 2)] * model.dim_param)


def random_theta(model, rng):
    """A generic parameter draw from the model's box."""
    return np.array([rng.uniform(lo, hi) for lo, hi in theta_box(model)])


def thetas(model):
    """The hypothesis strategy of random_theta."""
    return st.tuples(*(st.floats(lo, hi) for lo, hi in theta_box(model))).map(np.array)


def points(model):
    """One point inside the support, well away from its boundary."""
    if model.support == "positive":
        return st.floats(0.05, 5.0)
    if isinstance(model, IsoNormal):
        return st.tuples(*[st.floats(-4, 4)] * model.d)
    return st.floats(-8, 8)


class TestLogPdf:
    def test_standard_normal_mode(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        assert m.log_pdf(th, 0.0)[0] == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_gompertz_at_zero_equals_log_rate(self):
        m = Gompertz()
        th = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        assert m.log_pdf(th, 0.0)[0] == pytest.approx(np.log(0.1), abs=1e-12)

    def test_inverse_normal_value(self):
        m = InverseNormal()
        th = m.from_natural(InverseNormalParams(mu=1.0, lam=3.0))
        expected = 0.5 * np.log(3.0 / (2.0 * np.pi))
        assert m.log_pdf(th, 1.0)[0] == pytest.approx(expected, abs=1e-12)

    def test_inverse_normal_matches_scipy(self):
        m = InverseNormal()
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu, lam = rng.uniform(0.3, 3.0, 2)
            th = m.from_natural(InverseNormalParams(mu=mu, lam=lam))
            x = rng.uniform(0.05, 6.0, 7)
            ref = stats.invgauss.logpdf(x, mu / lam, scale=lam)
            np.testing.assert_allclose(m.log_pdf(th, x), ref, rtol=1e-10)

    def test_positive_support_returns_minus_inf_below_zero(self):
        ig = InverseNormal()
        th = ig.from_natural(InverseNormalParams(mu=1.0, lam=3.0))
        assert np.isneginf(ig.log_pdf(th, np.array([-1.0, 0.0]))).all()
        g = Gompertz()
        thg = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        lp = g.log_pdf(thg, np.array([-0.5, 0.0]))
        assert np.isneginf(lp[0]) and np.isfinite(lp[1])

    def test_non_finite_theta_rejected(self):
        m = Normal1D()
        with pytest.raises(ValueError):
            m.log_pdf(np.array([np.nan, 1.0]), 0.0)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_isonormal_squared_norm_rounds_as_the_axis_sum(self, d):
        """The d-variate log-density gives the bytes of the one-line formula
        with ``(r**2).sum(axis=-1)``, on both sides of its d = 8 switch."""
        m = IsoNormal(d)
        rng = np.random.default_rng(d)
        theta = rng.uniform(-2, 2, d)
        x = theta + rng.standard_normal((5000, d)) * rng.uniform(0.1, 30, (5000, d))
        r = x - theta
        expected = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * (r**2).sum(axis=-1)
        assert m.log_pdf(theta, x).tobytes() == expected.tobytes()

    def test_mixture_matches_direct_formula(self):
        m = NormalMixture2()
        th = m.from_natural(MixtureParams(-5, 1, 0, 1, 0.6))
        x = np.linspace(-9, 4, 50)
        direct = 0.6 * stats.norm.pdf(x, -5, 1) + 0.4 * stats.norm.pdf(x, 0, 1)
        np.testing.assert_allclose(np.exp(m.log_pdf(th, x)), direct, rtol=1e-10)


class TestScore:
    def test_normal_score_vanishes_at_mean(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        assert m.score(th, 0.0)[0, 0] == 0.0

    def test_inverse_normal_natural_score_value(self):
        m = InverseNormal()
        th = m.from_natural(InverseNormalParams(mu=1.0, lam=3.0))
        s = (m.score(th, np.array([1.0])) / np.exp(th))[0]  # score in (mu, lam)
        np.testing.assert_allclose(s, [0.0, 1.0 / 6.0], atol=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_score_matches_finite_differences(self, model):
        @PROPERTY
        @given(th=thetas(model), x=points(model))
        def check(th, x):
            score = model.score(th, x)[0]
            fd = fd_grad(lambda t: model.log_pdf(t, x)[0], th)
            np.testing.assert_allclose(score, fd, rtol=1e-4, atol=1e-6)

        check()

    def test_score_outside_support_raises(self):
        ig = InverseNormal()
        th = ig.from_natural(InverseNormalParams(mu=1.0, lam=3.0))
        with pytest.raises(ValueError):
            ig.score(th, np.array([-1.0]))
        g = Gompertz()
        thg = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        with pytest.raises(ValueError):
            g.score(thg, np.array([-0.1]))


class TestKernel:
    """``log_pdf``, ``score`` and ``log_pdf_and_score`` run each family's one
    log-density formula through ``Model``'s checks and support mask, and
    agree exactly wherever they overlap; the registry maps of every family
    invert each other."""

    @pytest.mark.parametrize("cls", Model.__subclasses__(), ids=lambda c: c.__name__)
    def test_family_writes_only_its_formulas(self, cls):
        """The checks and the support mask live in ``Model`` alone."""
        assert {"_log_pdf", "_score"} <= set(vars(cls))
        assert not {"log_pdf", "score", "log_pdf_and_score", "_evaluate"} & set(vars(cls))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_score_is_c_ordered(self, name):
        """The gradients sum score rows with ``_column_sums``, which adds them
        in order only on C-ordered blocks: so on F-ordered points and on the
        masked path (points outside a positive support) too."""
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(0), 50)
        cases = [x, np.asfortranarray(x)]
        if model.support == "positive":
            cases.append(np.where(np.arange(50) % 3 == 0, -1.0, x))
        for pts in cases:
            _, score = model.log_pdf_and_score(theta, pts)
            assert score.shape == (50, model.dim_param) and model.dim_param >= 2
            assert score.flags.c_contiguous

    @pytest.mark.parametrize("name", FAMILIES)
    def test_natural_values_roundtrip(self, name):
        model = get_model(name)
        assert len(model.default_truth) == len(model.natural_names)
        model.from_natural_values(model.default_truth)

        @PROPERTY
        @given(th=thetas(model))
        def check(th):
            values = model.natural_values(th)  # valid natural parameters
            back = model.natural_values(model.from_natural_values(values))
            np.testing.assert_allclose(back, values, rtol=1e-12, atol=1e-12)

        check()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_log_pdf_and_score(self, name):
        model = get_model(name)

        @PROPERTY
        @given(th=thetas(model), x=st.lists(points(model), min_size=1, max_size=20))
        def check(th, x):
            x = np.array(x)
            lp, score = model.log_pdf_and_score(th, x)
            assert lp.shape == (len(x),) and score.shape == (len(x), model.dim_param)
            np.testing.assert_array_equal(lp, model.log_pdf(th, x))
            np.testing.assert_array_equal(score, model.score(th, x))

        check()

    @pytest.mark.parametrize("name,outside", [
        ("inverse-normal", lambda x: x <= 0),
        ("gompertz", lambda x: x < 0),
    ])
    def test_outside_support_gives_minus_inf_and_zero_row(self, name, outside):
        model = get_model(name)

        @PROPERTY
        @given(th=thetas(model), x=st.lists(st.floats(-5, 5), min_size=1, max_size=20))
        def check(th, x):
            x = np.array(x)
            out = outside(x)
            lp, score = model.log_pdf_and_score(th, x)
            assert np.isneginf(lp[out]).all() and (score[out] == 0).all()
            np.testing.assert_array_equal(lp, model.log_pdf(th, x))
            np.testing.assert_array_equal(score[~out], model.score(th, x[~out]))
            if out.any():
                with pytest.raises(ValueError):
                    model.score(th, x)

        check()


def _normal_parts(r2, var):
    """The normal log-density and variance score as whole-array expressions."""
    return (-0.5 * (_LOG_2PI + np.log(var)) - r2 / (2.0 * var),
            -0.5 / var + r2 / (2.0 * var**2))


def _oracle_normal(th, x):
    var = th[1] ** 2 + VARIANCE_FLOOR
    lp, d_var = _normal_parts((x - th[0]) ** 2, var)
    return lp, [(x - th[0]) / var, d_var * (2.0 * th[1])]


def _oracle_inverse_normal(th, x):
    mu, lam = np.exp(th[0]), np.exp(th[1])
    r = x - mu
    r2, denom = r**2, 2.0 * mu**2 * x
    lp = 0.5 * (np.log(lam) - _LOG_2PI - 3.0 * np.log(x)) - lam * r2 / denom
    return lp, [lam * r / mu**3 * mu, (0.5 / lam - r2 / denom) * lam]


def _oracle_gompertz(th, x):
    omega, lam = np.exp(th[0]), np.exp(th[1])
    ox = omega * x
    em1 = np.expm1(ox)
    lp = np.log(lam) + ox - lam / omega * em1
    d_omega = x - lam * (-em1 / omega**2 + x * np.exp(ox) / omega)
    return lp, [d_omega * omega, (1.0 / lam - em1 / omega) * lam]


def _oracle_mixture(th, x):
    alpha = 1.0 / (1.0 + np.exp(-th[0]))
    v1, v2 = th[2] ** 2 + VARIANCE_FLOOR, th[4] ** 2 + VARIANCE_FLOOR
    z1, z2 = x - th[1], x - th[3]
    (lp1, s1), (lp2, s2) = _normal_parts(z1**2, v1), _normal_parts(z2**2, v2)
    a1, a2 = lp1 + np.log(alpha), lp2 + np.log1p(-alpha)
    hi = np.maximum(a1, a2)
    lp = hi + np.log1p(np.exp(np.minimum(a1, a2) - np.maximum(hi, np.finfo(float).min)))
    r1, r2 = np.exp(a1 - lp), np.exp(a2 - lp)
    return lp, [r1 - alpha, r1 * z1 / v1, r1 * s1 * (2.0 * th[2]), r2 * z2 / v2,
                r2 * s2 * (2.0 * th[4])]


def _oracle_isonormal(th, x):
    r = x - th
    r2 = r[:, 0] ** 2
    for j in range(1, x.shape[1]):
        r2 = r2 + r[:, j] ** 2
    return -0.5 * x.shape[1] * _LOG_2PI - 0.5 * r2, list(r.T)


# Each family's log-density and score columns, as separate whole-array
# expressions: what an in-place score must reproduce byte for byte.
ORACLE = {"normal": _oracle_normal, "inverse-normal": _oracle_inverse_normal,
          "gompertz": _oracle_gompertz, "mixture": _oracle_mixture,
          "isonormal2": _oracle_isonormal, "isonormal3": _oracle_isonormal}


class TestScoreBytes:
    """Every family fills its score in place; the bytes are those of its
    column formulas evaluated one whole array at a time and then stacked."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_in_place_score_matches_the_column_formulas(self, name, n):
        model = get_model(name)
        rng = np.random.default_rng(n)
        for theta in (model.from_natural_values(model.default_truth), random_theta(model, rng)):
            x = model.sample(theta, rng, n)
            flat = x.reshape(-1)  # some points far out, and some outside a positive support
            flat[rng.choice(flat.size, 40, replace=False)] = np.repeat([1e150, -1e150], 20)
            if model.support == "positive":
                flat[rng.choice(flat.size, 40, replace=False)] = -rng.random(40)
            lp, score = model.log_pdf_and_score(theta, x)
            assert score.shape == (n, model.dim_param) and score.flags.c_contiguous

            inside = np.ones(n, dtype=bool) if model.support == "real" else model._in_support(x)
            want_lp, want = np.full(n, -np.inf), np.zeros((n, model.dim_param))
            with np.errstate(all="ignore"):
                lp_in, cols = ORACLE[name](theta, x[inside])
            want_lp[inside], want[inside] = lp_in, np.stack(cols, axis=-1)
            assert lp.tobytes() == want_lp.tobytes()
            assert score.tobytes() == want.tobytes()


class TestCheckTheta:
    """Every entry point that takes ``theta`` checks it: a NaN or an infinity
    at any position, or a wrong shape, is a ValueError naming the family."""

    @staticmethod
    def entry_points(model):
        x = model.sample(model.from_natural_values(model.default_truth),
                         np.random.default_rng(0), 4)
        return [lambda th: model.log_pdf_and_score(th, x),
                lambda th: model.sample(th, np.random.default_rng(0), 4),
                model.to_natural]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_non_finite_entry_rejected_at_every_position(self, name, bad):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        for call in self.entry_points(model):
            for i in range(model.dim_param):
                th = theta.copy()
                th[i] = bad
                with pytest.raises(ValueError, match=f"{model.name}: non-finite parameter"):
                    call(th)
                with pytest.raises(ValueError, match=f"{model.name}: non-finite parameter"):
                    call(th.tolist())

    @pytest.mark.parametrize("name", FAMILIES)
    def test_wrong_shape_rejected(self, name):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        for call in self.entry_points(model):
            for th in (theta[:-1], np.append(theta, 0.0), theta[None, :], theta[0]):
                with pytest.raises(ValueError,
                                   match=f"expected {model.dim_param} parameters, got shape"):
                    call(th)


class TestPointShape:
    """``x`` is ``(n, *point_shape)``; a scalar or one ``(d,)`` point is
    promoted to ``n = 1``, and any other rank is a ValueError naming the
    family, the same for all three entry points."""

    ENTRY_POINTS = ["log_pdf", "score", "log_pdf_and_score"]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("name", FAMILIES)
    def test_wrong_rank_raises_naming_the_family(self, name, entry):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        shape = model.point_shape
        wrong = [np.ones((2, *shape, 1)), np.ones((2, 1, *shape))]
        if shape:
            wrong += [5.0, np.ones(model.dim_x + 1), np.ones((2, model.dim_x + 1))]
        for x in wrong:
            with pytest.raises(ValueError, match=f"^{name}: expected points of shape"):
                getattr(model, entry)(theta, x)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_one_point_is_promoted(self, name):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        point = np.ones(model.point_shape)
        lp, score = model.log_pdf_and_score(theta, point)
        assert lp.shape == (1,) and score.shape == (1, model.dim_param)
        np.testing.assert_array_equal(lp, model.log_pdf(theta, point[np.newaxis]))


class TestSampling:
    def test_degenerate_mixture_draws_from_first_component(self):
        m = NormalMixture2()
        th = np.array([40.0, -5.0, 1.0, 0.0, 1.0])  # sigmoid(40) ~ 1
        x = m.sample(th, np.random.default_rng(0), 2000)
        assert np.all(np.abs(x + 5.0) < 6.0)

    def test_gompertz_empirical_cdf(self):
        m = Gompertz()
        th = m.from_natural(GompertzParams(omega=1.0, lam=0.1))
        x = m.sample(th, np.random.default_rng(1), 100_000)
        stat = stats.kstest(x, gompertz_cdf(m.to_natural(th))).statistic
        assert stat < 0.01

    def test_normal_sample_mean(self):
        m = Normal1D()
        th = m.from_natural(NormalParams(mu=0.0, sigma=1.0))
        x = m.sample(th, np.random.default_rng(2), 100_000)
        assert abs(x.mean()) < 0.02

    def test_inverse_normal_empirical_cdf(self):
        m = InverseNormal()
        th = m.from_natural(InverseNormalParams(mu=1.0, lam=3.0))
        x = m.sample(th, np.random.default_rng(3), 100_000)
        stat = stats.kstest(x, lambda q: stats.invgauss.cdf(q, 1 / 3, scale=3)).statistic
        assert stat < 0.01

    @pytest.mark.parametrize(
        "model,theta,cdf",
        [
            (
                Normal1D(),
                Normal1D().from_natural(NormalParams(mu=0.5, sigma=1.2)),
                lambda q: stats.norm.cdf(q, 0.5, 1.2),
            ),
            (
                Gompertz(),
                Gompertz().from_natural(GompertzParams(omega=1.0, lam=0.1)),
                None,
            ),
            (
                InverseNormal(),
                InverseNormal().from_natural(InverseNormalParams(mu=1.0, lam=3.0)),
                lambda q: stats.invgauss.cdf(q, 1 / 3, scale=3),
            ),
            (
                NormalMixture2(),
                NormalMixture2().from_natural(MixtureParams(-5, 1, 0, 1, 0.6)),
                None,
            ),
        ],
        ids=["normal", "gompertz", "inverse-normal", "mixture"],
    )
    def test_histogram_matches_pdf(self, model, theta, cdf):
        """Chi-squared goodness of fit of 1e5 draws against the density."""
        if cdf is None:
            cdf = {"gompertz": gompertz_cdf, "mixture": mixture_cdf}[model.name](
                model.to_natural(theta))
        x = model.sample(theta, np.random.default_rng(4), 100_000)
        edges = np.quantile(x, np.linspace(0.0, 1.0, 41))
        edges[0], edges[-1] = -np.inf, np.inf
        counts = np.histogram(x, bins=edges)[0]
        probs = np.diff([0.0] + [cdf(e) for e in edges[1:-1]] + [1.0])
        p = stats.chisquare(counts, 100_000 * probs).pvalue
        assert p > 0.001

    def test_isonormal_sample_moments(self):
        m = IsoNormal(3)
        th = np.array([1.0, -1.0, 0.5])
        x = m.sample(th, np.random.default_rng(5), 100_000)
        np.testing.assert_allclose(x.mean(axis=0), th, atol=0.02)
        np.testing.assert_allclose(x.var(axis=0), 1.0, atol=0.02)


class TestReparameterization:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_roundtrip_is_identity(self, model):
        rng = np.random.default_rng(21)
        for _ in range(100):
            th = np.abs(random_theta(model, rng))  # canonical branch: c >= 0
            if isinstance(model, (Normal1D, NormalMixture2, IsoNormal)):
                th = random_theta(model, rng)
                if isinstance(model, Normal1D):
                    th[1] = abs(th[1])
                elif isinstance(model, NormalMixture2):
                    th[2], th[4] = abs(th[2]), abs(th[4])
            back = model.from_natural(model.to_natural(th))
            np.testing.assert_allclose(back, th, atol=1e-12, rtol=1e-12)

    def test_sigmoid_at_zero_gives_half(self):
        m = NormalMixture2()
        assert m.to_natural(np.array([0.0, -5, 1, 0, 1])).alpha == pytest.approx(0.5)

    def test_gompertz_zero_coords_give_unit_params(self):
        p = Gompertz().to_natural(np.zeros(2))
        assert p.omega == pytest.approx(1.0) and p.lam == pytest.approx(1.0)

    def test_degenerate_mixing_weight_rejected(self):
        m = NormalMixture2()
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                m.from_natural(MixtureParams(0, 1, 1, 1, alpha))

    def test_isonormal_mean_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"mean must have shape \(3,\)"):
            IsoNormal(3).from_natural(IsoNormalParams(mean=[0, 0]))

    def test_variance_below_floor_rejected(self):
        with pytest.raises(ValueError):
            Normal1D().from_natural(NormalParams(mu=0.0, sigma=1e-4))
        with pytest.raises(ValueError):
            NormalMixture2().from_natural(MixtureParams(0, 1e-4, 1, 1, 0.5))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, 1e200])
    def test_sigma_not_finite_and_positive_rejected(self, sigma):
        """``c**2`` would hide a negative sigma; nan would pass the floor test;
        a Python float past ~1e154 would square to an OverflowError."""
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            Normal1D().from_natural(NormalParams(mu=0.0, sigma=sigma))
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            NormalMixture2().from_natural(MixtureParams(0, 1, 1, sigma, 0.5))


class TestNormalization:
    """Every density integrates to one over a wide grid."""

    @pytest.mark.parametrize(
        "model", [Normal1D(), InverseNormal(), Gompertz(), NormalMixture2()],
        ids=lambda m: m.name,
    )
    def test_unit_mass(self, model):
        rng = np.random.default_rng(31)
        for _ in range(20):
            th = random_theta(model, rng)
            if model.support == "positive":
                if isinstance(model, InverseNormal):
                    # a closed tail bound: scipy's quantile fails inside the box
                    p = model.to_natural(th)
                    hi = 2.0 * p.mu + 70.0 * p.mu**2 / p.lam
                else:
                    u = 1 - 1e-13
                    p = model.to_natural(th)
                    hi = float(np.log1p(-p.omega / p.lam * np.log1p(-u)) / p.omega)
                grid = np.linspace(1e-9, hi, 200_001)
            else:
                grid = np.linspace(-40, 40, 200_001)
            mass = np.trapezoid(np.exp(model.log_pdf(th, grid)), grid)
            assert mass == pytest.approx(1.0, abs=1e-4)

    # For every theta of the box and beta <= 2: node spacing under half the
    # narrowest sd of p**(1+beta), and at least 8.5 sd of p past the mean.
    LATTICE = {"normal": Lattice(extent=20.0, nodes=801),
               "isonormal2": Lattice(extent=12.0, nodes=97)}

    @pytest.mark.parametrize("name", LATTICE)
    def test_closed_form_r_matches_lattice_r(self, name):
        model, lattice = get_model(name), self.LATTICE[name]

        @PROPERTY
        @given(th=thetas(model), beta=st.floats(0.0, 2.0, exclude_min=True))
        def check(th, beta):
            exact = model.closed_form_r(th, beta)
            assert lattice_r(model, th, beta, lattice) == pytest.approx(exact, rel=1e-6)

        check()

    def test_isonormal_unit_mass(self):
        m = IsoNormal(2)
        th = np.array([0.4, -0.3])
        axis = np.linspace(-8, 8, 401)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        mass = np.exp(m.log_pdf(th, pts)).sum() * (axis[1] - axis[0]) ** 2
        assert mass == pytest.approx(1.0, abs=1e-4)


class TestRegistry:
    def test_known_names(self):
        assert isinstance(get_model("normal"), Normal1D)
        assert isinstance(get_model("inverse-normal"), InverseNormal)
        assert isinstance(get_model("gompertz"), Gompertz)
        assert isinstance(get_model("mixture"), NormalMixture2)
        assert get_model("isonormal4").d == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_model("cauchy")

    def test_families_are_the_direct_model_subclasses(self):
        """The tracer finds the kernels through ``Model.__subclasses__()``,
        which lists direct subclasses only: a shared map between ``Model`` and
        a family belongs in a mixin, or the family drops out of the trace.
        The tracer also wraps only a ``sample`` the class itself defines."""
        classes = {type(get_model(name)) for name in FAMILIES}
        assert classes == set(Model.__subclasses__())
        for cls in classes:
            assert "sample" in cls.__dict__, cls.__name__

    @pytest.mark.parametrize("name", ["isonormal1", "isonormal0"])
    def test_isonormal_below_two_dimensions_rejected(self, name):
        """At d = 1 the (n, d) code would read n points as one point."""
        with pytest.raises(ValueError, match="use normal for d = 1"):
            get_model(name)

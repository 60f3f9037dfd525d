import functools
import operator
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from test_models import thetas

from dpdfit import gradients
from dpdfit.divergence import (
    Lattice,
    empirical_dpce,
    empirical_gce,
    empirical_power_term,
    lattice_points,
    lattice_r,
)
from dpdfit.gradients import (
    BLOCK,
    FUSED_ROWS,
    CurrentModel,
    FixedNormal,
    PreparedSample,
    _draw_proposal,
    _grid_score_sum,
    _proposal_terms,
    _weighted_score_sum,
    _weighted_sum,
    data_term,
    lattice_grad_dpd,
    stochastic_grad_dpd,
    stochastic_grad_gamma,
)
from dpdfit.models import (
    _LOG_2PI,
    Gompertz,
    GompertzParams,
    IsoNormal,
    Normal1D,
    _column_sums,
    get_model,
)
from dpdfit.optim import StepDecay, sgd_run

FAMILIES = ["normal", "inverse-normal", "gompertz", "mixture", "isonormal2", "isonormal3"]
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


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
        model, theta, x, beta, total_draws, CurrentModel(), rng
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
            m, theta, x, beta, n, CurrentModel(), rng
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
            m, theta, x, beta, total, CurrentModel(), rng
        )
        fix = stochastic_grad_dpd(
            m, theta, x, beta, total, FixedNormal(mean=0.0, sd=2.0), rng
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

    @pytest.mark.parametrize("name", ["normal", "inverse-normal", "gompertz"])
    def test_nan_data_point_gives_nan_gradient(self, name):
        """A NaN point is neither outside the support nor given weight zero."""
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        assert np.isnan(data_term(model, theta, np.array([0.5, np.nan, 1.5]), 0.5)).all()


class TestProposalTerms:
    @pytest.mark.parametrize("mean,sd", [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan),
                                         (0.0, np.inf), (np.nan, 1.0),
                                         (np.array([0.0, np.inf]), 1.0), (0.0, 1e200),
                                         (np.array([0.0, -1e308]), 1.0)])
    def test_fixed_normal_rejects_invalid_parameters(self, mean, sd):
        with pytest.raises(ValueError):
            FixedNormal(mean=mean, sd=sd)

    def test_nan_weight_propagates_and_zero_weight_gives_zero_row(self):
        g = Gompertz()
        th = g.from_natural(GompertzParams(omega=1.0, lam=0.1))
        y = np.array([0.5, -1.0, 1.5])  # the middle draw has zero density
        log_q = np.array([np.nan, 0.0, 0.0])
        terms, weights = _proposal_terms(*g.log_pdf_and_score(th, y), log_q, 0.5)
        assert np.isnan(weights[0]) and np.isnan(terms[0]).all()
        assert weights[1] == 0.0 and (terms[1] == 0.0).all()
        np.testing.assert_array_equal(terms[2], weights[2] * g.score(th, y[2:])[0])

    def test_nan_weight_makes_the_descent_diverge(self):
        m = Normal1D()
        x = np.array([0.5, -0.2, 1.0])

        def grad(th, rng):
            y = m.sample(th, rng, 4)
            terms, _ = _proposal_terms(*m.log_pdf_and_score(th, y), np.full(4, np.nan), 0.5)
            return data_term(m, th, x, 0.5) + terms.mean(axis=0)

        result = sgd_run(grad, np.array([0.0, 1.0]), StepDecay(1.0, 0.7, 25), 10,
                         np.random.default_rng(0))
        assert result.diverged and len(result.trace) == 1


class TestWeightedScoreSumBlocks:
    """Above ``BLOCK`` points the kernel runs block by block; weights and
    sum must be the bytes of one kernel call and one sum over all rows."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_same_bytes_as_one_sum(self, name, n):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(n), n)
        # the first and last row of every block: in turn a point outside the
        # support (positive families) and one so far out that its weight is 0
        edges = sorted({i for k in range(0, n, BLOCK) for i in (k - 1, k) if i >= 0} | {n - 1})
        outside = -1.0 if model.support == "positive" else 1e150
        x[edges[0::2]] = outside
        x[edges[1::2]] = 1e150
        lp, score = model.log_pdf_and_score(theta, x)
        w = np.exp(1.5 * lp)
        assert (w[edges] == 0).all()
        expected = _broadcast_weighting(w, score).sum(axis=0)
        got_w, got, _ = _weighted_score_sum(model, theta, x, 1.5)
        assert got_w.tobytes() == w.tobytes() and got.tobytes() == expected.tobytes()


def _broadcast_weighting(w, score):
    """Oracle of the weighted score rows: dead rows zeroed, then one broadcast
    product, independent of the in-place column loop of the gradients."""
    return w[:, None] * np.where((w == 0)[:, None], 0.0, score)


class TestColumnOps:
    """The proposal's weighted rows and the isonormal residual must give the
    bytes of the one-line broadcasts they replace."""

    @PROPERTY
    @given(k=st.integers(1, BLOCK + 50), d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    @example(k=1, d=2, seed=0)
    @example(k=BLOCK + 1, d=5, seed=1)
    def test_weighting_equals_the_broadcast(self, k, d, seed):
        rng = np.random.default_rng(seed)
        lp = rng.uniform(-800.0, 5.0, k)  # about one weight in 15 underflows to 0
        lp[rng.random(k) < 0.05] = np.nan  # a NaN weight keeps its row, as NaN
        w = np.exp(lp)
        score = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-300, 300, (k, d))
        dead = np.flatnonzero(w == 0)  # their scores are undefined: +-inf, NaN
        score[dead] = rng.choice([np.inf, -np.inf, np.nan], (dead.size, d))
        terms, weights = _proposal_terms(lp, score.copy(), None, 1.0)
        assert weights.tobytes() == w.tobytes()
        assert terms.tobytes() == _broadcast_weighting(w, score).tobytes()

    @PROPERTY
    @given(k=st.integers(1, 300), d=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_isonormal_residual_is_x_minus_theta(self, k, d, seed):
        """Both ``r2`` branches: left to right below 8 columns, pairwise from 8."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-5, 5, (k, d))
        theta = rng.standard_normal(d) * 10.0 ** rng.uniform(-5, 5, d)
        lp, r = IsoNormal(d)._log_pdf(theta, x)
        assert r.flags.c_contiguous and r.tobytes() == (x - theta).tobytes()
        r2 = functools.reduce(operator.add, list((x - theta).T ** 2)) if d < 8 else (
            ((x - theta) ** 2).sum(axis=-1))
        assert lp.tobytes() == (-0.5 * d * _LOG_2PI - 0.5 * r2).tobytes()


class TestBlockIsOnlyASpeedConstant:
    """The sum carried across blocks makes every gradient the same bytes at
    any ``BLOCK``."""

    SIZES = (5, 64, BLOCK)

    def same_at_every_block(self, monkeypatch, compute):
        outputs = []
        for block in self.SIZES:
            monkeypatch.setattr(gradients, "BLOCK", block)
            outputs.append(compute())
        assert all(np.isfinite(a).all() for a in outputs[0])  # NaN bytes would prove little
        for other in outputs[1:]:
            assert [a.tobytes() for a in other] == [a.tobytes() for a in outputs[0]]

    @pytest.mark.parametrize("nodes", [10, 50])
    def test_lattice_gradient(self, monkeypatch, nodes):
        model = IsoNormal(3)
        x = model.sample(np.full(3, 0.5), np.random.default_rng(nodes), 500)
        x[:5] = 100.5  # outliers, of weight 0
        lattice = Lattice(extent=2.0, nodes=nodes)
        self.same_at_every_block(monkeypatch, lambda: [
            lattice_grad_dpd(model, np.array([0.3, 0.6, 0.9]), x, 0.5, lattice)])

    @pytest.mark.parametrize("name", FAMILIES)
    def test_stochastic_gradients(self, monkeypatch, name):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(3), 1000)

        def compute():
            out = []
            for grad, params, power in ((stochastic_grad_dpd, theta, 0.5),
                                        (stochastic_grad_gamma, np.append(theta, 0.3), 0.7)):
                est = grad(model, params, x, power, 10, CurrentModel(), np.random.default_rng(9))
                out += [est.g, est.draw_terms, est.draw_weights, est.data_weights]
            return out

        self.same_at_every_block(monkeypatch, compute)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_data_weights_are_those_of_log_pdf(self, monkeypatch, name):
        """At every ``BLOCK`` a step's ``data_weights`` are the bytes of
        ``exp(power * log_pdf)`` over the data, which the exact objective's
        data term averages; for gamma at ``theta = psi[:-1]``, whatever ``c``."""
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(3), 1000)
        lp = model.log_pdf(theta, x)
        for block in self.SIZES:
            monkeypatch.setattr(gradients, "BLOCK", block)
            for grad, params, power in ((stochastic_grad_dpd, theta, 0.5),
                                        (stochastic_grad_gamma, np.append(theta, 0.3), 0.7)):
                est = grad(model, params, x, power, 10, CurrentModel(), np.random.default_rng(9))
                assert est.data_weights.tobytes() == np.exp(power * lp).tobytes()


def _left_fold(rows):
    """Each column summed from +0.0, one row after another, in Python."""
    return np.array([functools.reduce(operator.add, col, 0.0) for col in rows.T.tolist()])


class TestColumnSums:
    """``_column_sums`` adds every long block's weighted score rows; it must
    add in the order of a left fold, the order of ``sum(axis=0)`` that the
    golden digests were recorded with."""

    SPECIALS = [[-0.0], [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]]

    @staticmethod
    def rows(width, n):
        rng = np.random.default_rng(100 * width + n)
        return rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-40, 40, (n, width))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1000, BLOCK + 1])
    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_equals_left_fold(self, width, n):
        base = self.rows(width, n)
        cases = [base, np.full((n, width), -0.0)]  # a column of -0.0 sums to +0.0
        for special in self.SPECIALS:  # whole rows of -0.0, NaN or +-inf
            rows = base.copy()
            rows[np.linspace(0, n - 1, len(special)).astype(int)] = np.array(special)[:, None]
            cases.append(rows)
        for rows in cases:
            assert rows.flags.c_contiguous
            assert _column_sums(rows).tobytes() == _left_fold(rows).tobytes()

    def test_the_fold_tells_orders_apart(self):
        """numpy's 1-D sum is pairwise; on this column its bytes differ from
        the fold's, so the test above would catch a reordered sum."""
        col = self.rows(2, 1000)[:, 0].copy()
        assert col.sum().tobytes() != _left_fold(col[:, None]).tobytes(), (
            f"numpy {np.__version__} summed this column in the fold's order; "
            "pick a column on which pairwise and sequential sums differ")


def _weighted_case(k, d, seed, spread, nan):
    """``k`` weights and ``(k, d)`` scores as a kernel block gives them: zero
    weights (their scores +-inf or NaN), one NaN weight if ``nan``, whole
    columns of -0.0, and magnitudes within ``10**+-spread``.  At spread 0 the
    weights lie in [e^-5, e^5] and every term counts, so a sum in another
    order shows in the last bits; else they reach e^-800, subnormal or 0."""
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(-5.0 if spread == 0 else -800.0, 5.0, k))
    w[rng.random(k) < 0.05] = 0.0
    if nan:  # a NaN weight makes its columns' sums NaN
        w[rng.integers(k)] = np.nan
    score = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-spread, spread, (k, d))
    score[:, rng.random(d) < 0.3] = -0.0
    dead = np.flatnonzero(w == 0)
    score[dead] = rng.choice([np.inf, -np.inf, np.nan], (dead.size, d))
    return w, score


class TestWeightedSum:
    """``_weighted_sum`` on blocks of either side of ``FUSED_ROWS``, the sum
    carried from block to block, must give the bytes of one left fold over
    all weighted rows.  The bytes of the fused einsum were checked with numpy
    2.4.6 on x86-64, whose einsum loops round every product before adding it;
    a build whose einsum fuses multiply-add fails here."""

    @staticmethod
    def blocked(w, score, size):
        total, w_before = None, w.copy()
        for start in range(0, w.shape[0], size):
            rows = score[start:start + size].copy()
            total = _weighted_sum(w[start:start + size], rows, total)
        assert w.tobytes() == w_before.tobytes()  # the step's data weights stay as they are
        return total

    @PROPERTY
    @given(k=st.integers(1, 3 * FUSED_ROWS), d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           blocks=st.integers(1, 4), spread=st.sampled_from([0, 150]), nan=st.booleans())
    @example(k=FUSED_ROWS - 1, d=2, seed=0, blocks=1, spread=0, nan=False)
    @example(k=FUSED_ROWS, d=3, seed=1, blocks=1, spread=0, nan=False)
    @example(k=FUSED_ROWS + 3, d=2, seed=2, blocks=2, spread=0, nan=False)  # long, then short
    @example(k=2 * FUSED_ROWS - 2, d=5, seed=3, blocks=2, spread=0, nan=False)  # two short
    @example(k=1, d=2, seed=4, blocks=1, spread=150, nan=True)
    def test_equals_the_fold_of_the_broadcast(self, k, d, seed, blocks, spread, nan):
        w, score = _weighted_case(k, d, seed, spread, nan)
        want = _left_fold(_broadcast_weighting(w, score)).tobytes()
        assert self.blocked(w, score, -(-k // blocks)).tobytes() == want

    @pytest.mark.parametrize("size", [FUSED_ROWS - 1, FUSED_ROWS])
    def test_zero_weight_with_non_finite_score_and_minus_zero_columns(self, size):
        """A dead row adds +0.0, whatever its score; a column of -0.0 sums to
        +0.0, as a fold from +0.0 does, and a NaN weight gives NaN."""
        w = np.ones(size)
        score = np.full((size, 3), -0.0)
        w[[0, size - 1]] = 0.0
        score[0], score[size - 1] = [np.inf, -np.inf, np.nan], [np.nan, np.inf, -np.inf]
        for carried in (None, np.array([-0.0, -0.0, 1.5])):
            got = _weighted_sum(w, score.copy(), carried)
            want = np.array([0.0, 0.0, 0.0 if carried is None else 1.5])
            assert got.tobytes() == want.tobytes()
        w[1] = np.nan
        assert np.isnan(_weighted_sum(w, score.copy(), None)).all()

    def test_the_oracle_tells_blas_apart(self):
        """``w @ score`` adds in BLAS order; on this case its bytes differ from
        the fold's, so the property above would catch a reordered sum."""
        rng = np.random.default_rng(7)
        w, score = rng.uniform(0.0, 1.0, 1000), rng.standard_normal((1000, 3))
        assert (w @ score).tobytes() != _left_fold(_broadcast_weighting(w, score)).tobytes(), (
            f"numpy {np.__version__} added w @ score in the fold's order; "
            "pick a case on which BLAS and sequential sums differ")


def _two_call_step(model, theta, x, power, m, proposal, rng):
    """A stochastic step as two kernel calls: ``data_term``'s blocks on the
    data, then one call on the draws; returns the data weights and weighted
    score sum, and the draws' ``(terms, weights)``."""
    w, total, _ = _weighted_score_sum(model, theta, x, power)
    y, log_q = _draw_proposal(model, theta, proposal, m, rng)
    lp, score = model.log_pdf_and_score(theta, y)
    log_w = power * lp if log_q is None else (1.0 + power) * lp - log_q
    weights = np.exp(log_w)
    return w, total, _broadcast_weighting(weights, score), weights


def _two_call_dpd(model, theta, x, beta, m, proposal, rng):
    _, _, terms, weights = _two_call_step(model, theta, x, beta, m, proposal, rng)
    g = data_term(model, theta, x, beta) + terms.mean(axis=0)
    return g, terms, weights


def _two_call_gamma(model, psi, x, gamma, m, proposal, rng):
    c, n = np.exp(psi[-1]), x.shape[0]
    w, g_data, terms, weights = _two_call_step(model, psi[:-1], x, gamma, m, proposal, rng)
    g_theta = -(c**gamma) * g_data / n + c ** (1.0 + gamma) * terms.mean(axis=0)
    g_c = -(c ** (gamma - 1.0)) * (float(w.sum()) / n) + c**gamma * float(weights.mean())
    return np.concatenate([g_theta, [g_c * c]]), terms, weights


class TestOneKernelCallPerStep:
    """The proposal draws join the kernel call of the data's last block;
    every output must be the bytes of a separate call on the draws."""

    CASES = [(name, n, proposal) for name in FAMILIES
             for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5)
             for proposal in ("current", "fixed")
             if proposal == "current" or get_model(name).support == "real"]

    @pytest.mark.parametrize("name,n,proposal", CASES)
    def test_same_bytes_as_two_calls(self, monkeypatch, name, n, proposal):
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(n), n)
        last = (n - 1) // BLOCK * BLOCK  # first row of the last block
        if n > 1:  # a point outside the support (positive families), one of weight 0
            x[last] = -1.0 if model.support == "positive" else 1e150
            x[n - 1] = 1e150
        if proposal == "current":
            prop = CurrentModel()
        else:
            prop = FixedNormal(mean=np.full(model.point_shape, 0.5), sd=2.0)
        kernel = model.log_pdf_and_score
        calls = []

        def counted(th, pts):
            calls.append(np.shape(pts)[0])
            return kernel(th, pts)

        psi = np.append(theta, 0.3)
        for fused, two_call, params, power in (
                (stochastic_grad_dpd, _two_call_dpd, theta, 0.5),
                (stochastic_grad_gamma, _two_call_gamma, psi, 0.7)):
            want = two_call(model, params, x, power, 10, prop, np.random.default_rng(7))
            monkeypatch.setattr(model, "log_pdf_and_score", counted)
            calls.clear()
            got = fused(model, params, x, power, 10, prop, np.random.default_rng(7))
            monkeypatch.undo()
            assert calls == [BLOCK] * (last // BLOCK) + [n - last + 10]
            assert np.isfinite(got.g).all()  # equal bytes of NaN would prove little
            for a, b in zip((got.g, got.draw_terms, got.draw_weights), want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name,n,proposal", CASES)
    def test_prepared_sample_steps_are_the_bytes_of_two_calls(self, monkeypatch, name, n,
                                                              proposal):
        """Three consecutive steps on one :class:`PreparedSample`, as a descent takes
        them: each is the bytes of its two-call step, and the buffer's data rows stay
        those of the sample."""
        model = get_model(name)
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(n), n)
        last = (n - 1) // BLOCK * BLOCK
        if n > 1:
            x[last] = -1.0 if model.support == "positive" else 1e150
            x[n - 1] = 1e150
        if proposal == "current":
            prop = CurrentModel()
        else:
            prop = FixedNormal(mean=np.full(model.point_shape, 0.5), sd=2.0)
        kernel = model.log_pdf_and_score
        calls = []

        def counted(th, pts):
            calls.append(np.shape(pts)[0])
            return kernel(th, pts)

        psi = np.append(theta, 0.3)
        for fused, two_call, params, power in (
                (stochastic_grad_dpd, _two_call_dpd, theta, 0.5),
                (stochastic_grad_gamma, _two_call_gamma, psi, 0.7)):
            sample = PreparedSample(x, 10)
            want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
            for step in range(3):
                params = params + 0.01 * step  # each step at its own iterate
                want = two_call(model, params, x, power, 10, prop, want_rng)
                monkeypatch.setattr(model, "log_pdf_and_score", counted)
                calls.clear()
                got = fused(model, params, sample, power, 10, prop, got_rng)
                monkeypatch.undo()
                assert calls == [BLOCK] * (last // BLOCK) + [n - last + 10]
                assert np.isfinite(got.g).all()
                for a, b in zip((got.g, got.draw_terms, got.draw_weights), want):
                    assert a.tobytes() == b.tobytes()
                assert sample.last[:n - last].tobytes() == x[last:].tobytes()

    def test_a_prepared_sample_takes_at_most_its_m_draws_a_step(self):
        """A sample prepared for ``m`` draws serves a step of ``m`` or fewer with the
        bytes of a two-call step; a step of more raises ValueError, a lone draw on a
        sample prepared for none too, which numpy would broadcast into no room."""
        model = Normal1D()
        theta = np.array([0.1, 1.2])
        x = model.sample(theta, np.random.default_rng(5), 300)
        sample = PreparedSample(x, 10)
        for m in (4, 10, 1):
            want = _two_call_dpd(model, theta, x, 0.5, m, CurrentModel(), np.random.default_rng(m))
            got = stochastic_grad_dpd(model, theta, sample, 0.5, m, CurrentModel(),
                                      np.random.default_rng(m))
            assert [a.tobytes() for a in (got.g, got.draw_terms, got.draw_weights)] == [
                b.tobytes() for b in want]
        for prepared, room, m in ((sample, 10, 11), (PreparedSample(x), 0, 1),
                                  (PreparedSample(x, 1), 1, 2)):
            with pytest.raises(ValueError, match=f"room for {room} draws, not {m}$"):
                stochastic_grad_dpd(model, theta, prepared, 0.5, m, CurrentModel(),
                                    np.random.default_rng(3))
        # the data term and the lattice gradient read the rows alone, whatever the room
        lattice = Lattice(extent=4.0, nodes=9)
        assert data_term(model, theta, sample, 0.5).tobytes() == data_term(
            model, theta, x, 0.5).tobytes()
        assert lattice_grad_dpd(model, theta, sample, 0.5, lattice).tobytes() == (
            lattice_grad_dpd(model, theta, x, 0.5, lattice).tobytes())


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
        m, th, x = IsoNormal(2), np.full(2, 0.5), np.full((5, 2), 100.5)
        lattice, rng = Lattice(extent=2.0, nodes=3), np.random.default_rng(0)
        calls = [
            lambda: lattice_grad_dpd(m, th, x, beta, lattice),
            lambda: data_term(m, th, x, beta),
            lambda: stochastic_grad_dpd(m, th, x, beta, 4, CurrentModel(), rng),
            lambda: stochastic_grad_gamma(m, np.append(th, 0.0), x, beta, 4, CurrentModel(), rng),
            lambda: empirical_power_term(m, th, x, beta),
            lambda: empirical_dpce(m, th, x, beta, lattice),
            lambda: empirical_gce(m, th, x, beta, lattice),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="(beta|gamma) must be positive"):
                call()

    def test_multivariate_grid_shape(self):
        m = IsoNormal(2)
        backend = Lattice(extent=2.0, nodes=50)
        assert backend.total_points(m) == 2500
        x = np.random.default_rng(8).normal(0.5, 1.0, (200, 2))
        g = lattice_grad_dpd(m, np.full(2, 0.5), x, 0.5, backend)
        assert g.shape == (2,) and np.all(np.isfinite(g))


class TestGridScoreSum:
    """An ``isonormal<d>`` lattice gradient sums over the grid's axes; the sum of
    ``_weighted_score_sum`` over the ``lattice_points`` nodes is its reference, bit
    for bit, at every ``BLOCK``."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(grid=st.integers(2, 9).flatmap(lambda d: st.tuples(  # (d, nodes), at most 3,600 points
               st.just(d), st.integers(2, max(k for k in range(2, 61) if k**d <= 3600)))),
           extent=st.sampled_from([1.0, 4.0, 45.0]), power=st.sampled_from([1.1, 1.5, 2.0]),
           theta=st.lists(st.one_of(st.integers(0, 59), st.floats(-1.5, 1.5)),
                          min_size=9, max_size=9),
           rows=st.integers(1, 100))
    @example(grid=(8, 3), extent=4.0, power=1.5, theta=[0.1, 2, -0.7, 1, 0.0, 0, 1.2, -0.3, 0],
             rows=30)
    @example(grid=(3, 20), extent=45.0, power=1.1, theta=[0.0, 7, -0.2, 0, 0, 0, 0, 0, 0],
             rows=25)
    def test_same_bytes_as_the_nodes(self, grid, extent, power, theta, rows):
        """d from 8 on exercises the pairwise ``r2``; at extent 45 the outer
        weights underflow to 0, so dead rows have negative residuals.  An integer
        puts theta's coordinate on the grid (zero residuals), a float off it, at
        that fraction of the extent.  ``BLOCK`` takes 5, 64, one past a multiple
        of ``nodes`` and its default."""
        d, nodes = grid
        axis = np.linspace(-extent, extent, nodes)
        theta = np.array([axis[t % nodes] if isinstance(t, int) else t * extent
                          for t in theta[:d]])
        model, lattice = IsoNormal(d), Lattice(extent=extent, nodes=nodes)
        want = _weighted_score_sum(model, theta, lattice_points(model, lattice)[0], power)[1]
        assert np.isfinite(want).all()
        for block in (5, 64, rows * nodes + 1, BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gradients, "BLOCK", block)
                assert _grid_score_sum(model, theta, lattice, power).tobytes() == want.tobytes()

    def test_the_underflow_extent_has_dead_rows_of_negative_residual(self):
        """At extent 45 the property above sees weights of exactly 0 whose rows'
        residuals are negative, so that a fused ``0 * e`` would be -0.0."""
        model, lattice, theta = IsoNormal(3), Lattice(extent=45.0, nodes=30), np.zeros(3)
        pts = lattice_points(model, lattice)[0]
        w = _weighted_score_sum(model, theta, pts, 1.5)[0]
        dead = w == 0
        assert dead.any() and not dead.all() and ((pts[dead] - theta) < 0).any()

    @pytest.mark.parametrize("nodes", [16, 40])  # 16**3 == FUSED_ROWS
    def test_isonormal_gradient_builds_no_nodes(self, monkeypatch, nodes):
        """From ``FUSED_ROWS`` nodes on, the isonormal gradient takes its node
        weight from ``Lattice.weight`` and never calls ``lattice_points``; its
        bytes are those of the nodes path."""
        model, lattice = IsoNormal(3), Lattice(extent=3.0, nodes=nodes)
        theta = np.array([0.3, 0.6, 0.9])
        x = model.sample(theta, np.random.default_rng(2), 300)
        pts, weight = lattice_points(model, lattice)
        want = data_term(model, theta, x, 0.5) + weight * _weighted_score_sum(
            model, theta, pts, 1.5)[1]
        monkeypatch.setattr(gradients, "lattice_points", self.no_nodes)
        assert lattice_grad_dpd(model, theta, x, 0.5, lattice).tobytes() == want.tobytes()

    @pytest.mark.parametrize("model, lattice", [
        (IsoNormal(3), Lattice(extent=3.0, nodes=15)),  # 3,375 nodes, under FUSED_ROWS
        (Normal1D(), Lattice(extent=3.0, nodes=FUSED_ROWS + 1))])
    def test_short_and_scalar_lattices_keep_the_nodes_path(self, monkeypatch, model, lattice):
        theta = model.from_natural_values(model.default_truth)
        x = model.sample(theta, np.random.default_rng(2), 50)
        monkeypatch.setattr(gradients, "lattice_points", self.no_nodes)
        with pytest.raises(AssertionError, match="lattice_points called"):
            lattice_grad_dpd(model, theta, x, 0.5, lattice)

    @staticmethod
    def no_nodes(model, lattice):
        raise AssertionError("lattice_points called")


class TestStochasticGradGamma:
    def test_scale_gradient_root(self):
        """g_c vanishes exactly at c = A / B for the realized draws."""
        m = Normal1D()
        theta = np.array([0.1, 1.0])
        x = m.sample(np.array([0.0, 1.0]), np.random.default_rng(9), 300)
        gamma = 0.5

        def g_logc(c, seed=10):
            psi = np.append(theta, np.log(c))
            return stochastic_grad_gamma(
                m, psi, x, gamma, 50, CurrentModel(), np.random.default_rng(seed),
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
        aug = stochastic_grad_gamma(m, np.append(theta, 0.0), x, 0.5, 20, CurrentModel(),
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

        psi = np.append(theta, np.log(c))
        exact = fd_grad(scaled_objective, psi)
        total = 400_000
        est = stochastic_grad_gamma(m, psi, x, gamma, total, CurrentModel(), rng)
        se_theta = (
            c ** (1 + gamma)
            * est.draw_terms.std(axis=0, ddof=1)
            / np.sqrt(total)
        )
        se_c = c**gamma * est.draw_weights.std(ddof=1) / np.sqrt(total) * c
        se = np.concatenate([se_theta, [se_c]])
        np.testing.assert_array_less(np.abs(est.g - exact), 4.0 * se + 1e-9)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("log_c", [-800.0, 800.0])
    def test_scale_past_double_range_gives_nan(self, gamma, log_c):
        """``exp(log c)`` of 0 or inf gives an all-NaN gradient, without a
        warning; at c = 0 and gamma = 1 the formula alone gives a finite
        zero, which would freeze the descent silently."""
        m = Normal1D()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = stochastic_grad_gamma(m, np.array([0.0, 1.0, log_c]), np.array([0.1, 0.4]),
                                        gamma, 5, CurrentModel(), np.random.default_rng(14))
        assert est.g.shape == (3,) and np.isnan(est.g).all()


def _integral_terms(model, theta, power):
    """``int p**(1+power) t`` and ``int p**(1+power)`` of a scalar family, by
    the trapezoid rule on 200,001 nodes that hold all but about 1e-13 of its
    mass; on a positive support they are spaced geometrically, so that they
    resolve an inverse normal's peak near 0 and its long tail alike."""
    if model.support == "real":
        grid = np.linspace(-40.0, 40.0, 200_001)
    else:
        p = model.to_natural(theta)
        if isinstance(model, Gompertz):  # the inverse CDF at 1 - 1e-13
            hi = np.log1p(-p.omega / p.lam * np.log(1e-13)) / p.omega
        else:  # past 2 mu, p(x) <= sqrt(lam / (2 pi x^3)) exp(-lam (x - 2 mu) / (2 mu^2))
            hi = 2.0 * p.mu + 70.0 * p.mu**2 / p.lam
        grid = np.geomspace(1e-9, hi, 200_001)
    lp, score = model.log_pdf_and_score(theta, grid)
    f = np.exp((1.0 + power) * lp)
    rows = np.where(f[:, None] > 0, f[:, None] * score, 0.0)
    return np.trapezoid(rows, grid, axis=0), np.trapezoid(f, grid)


class TestUnbiasedness:
    """The paper's central claim, for every family, both proposals (the fixed
    normal on real support only), the DPD and the gamma objective with its
    ``log c`` coordinate: the importance-sampled gradient is unbiased at any
    m >= 1.  The mean of K estimates with m = 1 is the one estimate with
    m = K (the estimate is linear in its draws), and it must lie within 5
    standard errors of the exact gradient on every coordinate.  The exact
    integral-term gradient is 0 for ``isonormal<d>``, whose ``int p**(1+beta)``
    does not depend on the mean, and a trapezoid sum for a scalar family."""

    K = 20_000

    @pytest.mark.parametrize("gamma_run", [False, True], ids=["dpd", "gamma"])
    @pytest.mark.parametrize("name, proposal", [
        (name, proposal) for name in FAMILIES
        for proposal in (CurrentModel(), FixedNormal(mean=0.0, sd=6.0))
        if isinstance(proposal, CurrentModel) or get_model(name).support == "real"],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    # no shrinking: a failing case shows at once instead of after minutes of retries
    @settings(max_examples=5, deadline=None, derandomize=True, database=None,
              phases=[Phase.generate])
    @given(data=st.data(), power=st.sampled_from([0.1, 0.5, 1.0]),
           log_c=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_mean_estimate_is_the_exact_gradient(self, name, proposal, gamma_run, data, power,
                                                 log_c, seed):
        model = get_model(name)
        theta = data.draw(thetas(model))
        rng = np.random.default_rng(seed)
        x = model.sample(theta, rng, 50)
        if isinstance(model, IsoNormal):
            integral = np.zeros(model.dim_param)
            mass = (1.0 + power) * model.closed_form_r(theta, power)
        else:
            integral, mass = _integral_terms(model, theta, power)
        data_grad = data_term(model, theta, x, power)
        if gamma_run:
            c = np.exp(log_c)
            est = stochastic_grad_gamma(model, np.append(theta, log_c), x, power, self.K,
                                        proposal, rng)
            mean_pow = np.exp(power * model.log_pdf(theta, x)).mean()
            exact = np.append(c**power * data_grad + c ** (1.0 + power) * integral,
                              -(c**power) * mean_pow + c ** (1.0 + power) * mass)
            spread = c ** (1.0 + power) * np.append(est.draw_terms.std(axis=0, ddof=1),
                                                   est.draw_weights.std(ddof=1))
        else:
            est = stochastic_grad_dpd(model, theta, x, power, self.K, proposal, rng)
            exact = data_grad + integral
            spread = est.draw_terms.std(axis=0, ddof=1)
        np.testing.assert_array_less(np.abs(est.g - exact), 5.0 * spread / np.sqrt(self.K) + 1e-9)

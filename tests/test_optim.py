from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from dpdfit.optim import (
    GRAD_LIMIT,
    PARAM_LIMIT,
    StepDecay,
    gd_run,
    sgd_run,
    select_tau,
)

# two accepted steps of 0.5 * (1, -1) from the origin
TWO_STEPS = [[0.0, 0.0], [-0.5, 0.5], [-1.0, 1.0]]


class TestSchedules:
    def test_step_decay_values(self):
        sched = StepDecay(eta0=1.0, rate=0.7, period=25)
        assert sched.at(1) == 1.0
        assert sched.at(24) == 1.0
        assert sched.at(25) == pytest.approx(0.7)
        assert sched.at(50) == pytest.approx(0.49)
        assert sched.at(500) == pytest.approx(0.7**20)

    def test_step_decay_positive_nonincreasing(self):
        sched = StepDecay(eta0=0.5, rate=0.9, period=3)
        etas = [sched.at(t) for t in range(1, 200)]
        assert all(e > 0 for e in etas)
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_invalid_schedule_parameters(self):
        for eta0 in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                StepDecay(eta0=eta0, rate=0.7, period=10)
        with pytest.raises(ValueError):
            StepDecay(eta0=1.0, rate=1.0, period=10)
        with pytest.raises(ValueError):
            StepDecay(eta0=1.0, rate=0.7, period=0)


class TestSgdRun:
    def test_zero_gradient_is_fixed_point(self):
        theta0 = np.array([1.5, -2.0])
        res = sgd_run(lambda th, rng: np.zeros(2), theta0,
                      StepDecay(1.0, 0.7, 10), 50, np.random.default_rng(0))
        np.testing.assert_array_equal(res.trace[-1], theta0)
        assert not res.diverged

    def test_linear_recursion(self):
        # g(theta) = theta with constant eta contracts by (1 - eta) each step
        eta, steps = 0.25, 40
        res = gd_run(lambda th: th, np.array([2.0]), eta, steps)
        assert res.trace[-1, 0] == pytest.approx(2.0 * (1 - eta) ** steps, rel=1e-12)

    def test_trace_holds_every_iterate_as_a_copy(self):
        theta0 = np.array([1.0, -1.0, 0.5])
        res = sgd_run(lambda th, rng: th, theta0, StepDecay(0.5, 0.7, 5), 7,
                      np.random.default_rng(0))
        assert res.trace.shape == (8, 3)
        theta0[:] = 9.0
        np.testing.assert_array_equal(res.trace[0], [1.0, -1.0, 0.5])
        np.testing.assert_array_equal(res.trace[1], [0.5, -0.5, 0.25])

    def test_divergence_on_huge_gradient(self):
        res = gd_run(lambda th: np.array([1e13]), np.array([0.0]), 1.0, 10)
        assert res.diverged and len(res.trace) == 1
        assert res.reason == "diverged at step 1: gradient[0] = 1e+13 is past GRAD_LIMIT = 1e+12"

    def test_divergence_on_parameter_blowup(self):
        res = gd_run(lambda th: np.array([-2e8]), np.array([0.0]), 1.0, 10)
        assert res.diverged
        np.testing.assert_array_equal(res.trace[-1], [0.0])
        assert res.reason == ("diverged at step 1: candidate theta[0] = 2e+08 is past "
                              "PARAM_LIMIT = 1e+08")

    def test_finished_run_has_no_reason(self):
        res = gd_run(lambda th: np.zeros(2), np.zeros(2), 0.1, 3)
        assert res.reason is None and not res.diverged

    @pytest.mark.parametrize("bad,state", [
        pytest.param(np.nan, "is NaN", id="nan"),
        pytest.param(np.inf, "is +inf", id="inf"),
        pytest.param(-np.inf, "is -inf", id="-inf"),
        pytest.param(2 * GRAD_LIMIT, "= 2e+12 is past GRAD_LIMIT = 1e+12", id="2000000000000.0"),
        pytest.param(-2 * GRAD_LIMIT, "= -2e+12 is past GRAD_LIMIT = 1e+12",
                     id="-2000000000000.0")])
    def test_bad_gradient_stops_at_last_accepted_iterate(self, bad, state):
        grads = iter([np.array([1.0, -1.0])] * 2 + [np.array([0.0, bad])])
        res = sgd_run(lambda th, rng: next(grads), np.zeros(2), StepDecay(0.5, 0.7, 10), 10,
                      np.random.default_rng(0))
        assert res.diverged
        np.testing.assert_array_equal(res.trace, TWO_STEPS)
        assert res.reason == f"diverged at step 3: gradient[1] {state}"

    @pytest.mark.parametrize("eta,state", [pytest.param(np.inf, "is -inf", id="inf"),
                                           pytest.param(np.nan, "is NaN", id="nan")])
    def test_non_finite_candidate_stops_at_last_accepted_iterate(self, eta, state):
        """A finite, bounded gradient with a step size of inf or NaN gives
        a candidate of +-inf or NaN at step 3."""
        schedule = SimpleNamespace(at=lambda t: 0.5 if t <= 2 else eta)
        res = sgd_run(lambda th, rng: np.array([1.0, -1.0]), np.zeros(2), schedule, 10,
                      np.random.default_rng(0))
        assert res.diverged
        np.testing.assert_array_equal(res.trace, TWO_STEPS)
        assert res.reason == f"diverged at step 3: candidate theta[0] {state}"

    def test_non_finite_start_rejected(self):
        for start in (np.inf, np.nan):
            with pytest.raises(ValueError, match=r"bound \|theta\| <= 1e\+08"):
                gd_run(lambda th: th, np.array([start]), 0.1, 3)

    @pytest.mark.parametrize("start", [[0.0, 2 * PARAM_LIMIT], [-2 * PARAM_LIMIT, 0.0]])
    def test_start_past_param_limit_rejected(self, start):
        """A start the first step could only reject is an input error."""
        with pytest.raises(ValueError, match=r"bound \|theta\| <= 1e\+08"):
            gd_run(lambda th: np.zeros(2), np.array(start), 0.1, 3)
        res = gd_run(lambda th: np.zeros(2), np.array([PARAM_LIMIT, -PARAM_LIMIT]), 0.1, 3)
        assert not res.diverged and len(res.trace) == 4

    def test_deterministic_given_seed(self):
        def noisy(th, rng):
            return th + rng.standard_normal(th.shape)

        runs = [
            sgd_run(noisy, np.array([1.0, 2.0]), StepDecay(0.5, 0.7, 5), 40,
                    np.random.default_rng(123))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].trace, runs[1].trace)

    def test_zero_steps_records_initial_state_only(self):
        res = gd_run(lambda th: th, np.array([1.0]), 0.1, 0)
        assert res.trace.shape == (1, 1) and res.trace[0, 0] == 1.0

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValueError, match="number of steps must be >= 0"):
            sgd_run(lambda th, rng: th, np.zeros(1), StepDecay(0.5, 0.7, 5), -1,
                    np.random.default_rng(0))


class TestGdRun:
    def test_zero_rate_keeps_parameters(self):
        res = gd_run(lambda th: np.ones(2), np.array([1.0, 2.0]), 0.0, 5)
        np.testing.assert_array_equal(res.trace[-1], [1.0, 2.0])

    def test_converges_to_quadratic_minimum(self):
        target = np.array([2.0, -1.0])
        res = gd_run(lambda th: th - target, np.zeros(2), 0.5, 100)
        np.testing.assert_allclose(res.trace[-1], target, atol=1e-12)

    def test_scalar_start_gives_a_flat_trace(self):
        res = gd_run(lambda th: th, 1.0, 0.1, 2)
        np.testing.assert_allclose(res.trace, [1.0, 0.9, 0.81], rtol=1e-15)
        with pytest.raises(ValueError, match=r"bound \|theta\| <= 1e\+08"):
            gd_run(lambda th: th, 2 * PARAM_LIMIT, 0.1, 2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="learning rate must be >= 0"):
            gd_run(lambda th: th, np.zeros(1), -0.1, 3)


class TestSelectTau:
    def test_single_step_always_selected(self):
        assert select_tau([0.1], 1.0, np.random.default_rng(0)) == 1

    def test_uniform_in_small_lipschitz_limit(self):
        rng = np.random.default_rng(1)
        draws = np.array([select_tau(np.full(10, 0.3), 1e-9, rng)
                          for _ in range(100_000)])
        counts = np.bincount(draws, minlength=11)[1:]
        assert stats.chisquare(counts).pvalue > 0.001

    def test_weights_follow_decay_profile(self):
        # for eta close to 2/L the weight 2*eta - L*eta^2 is suppressed
        rng = np.random.default_rng(2)
        etas = np.array([1.9, 0.1])
        draws = np.array([select_tau(etas, 1.0, rng) for _ in range(20_000)])
        w = 2 * etas - etas**2
        expected = w / w.sum()
        observed = np.bincount(draws, minlength=3)[1:] / draws.size
        np.testing.assert_allclose(observed, expected, atol=0.01)

    def test_step_size_assumption_enforced(self):
        with pytest.raises(ValueError):
            select_tau([0.1, 2.0], 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="Lipschitz constant must be positive"):
            select_tau([0.1], 0, np.random.default_rng(0))

    def test_valid_draws_for_random_inputs(self):
        # any valid (etas, L) pair yields a well-formed distribution;
        # rng.choice would reject weights that fail to normalize
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            lipschitz = float(rng.uniform(0.1, 5.0))
            etas = rng.uniform(0.0, 2.0 / lipschitz, n) * 0.999 + 1e-9
            tau = select_tau(etas, lipschitz, rng)
            assert 1 <= tau <= n

import numpy as np
import pytest
from scipy import stats

from dpdfit.optim import (
    StepDecay,
    gd_run,
    sgd_run,
    select_tau,
)


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

    def test_divergence_on_parameter_blowup(self):
        res = gd_run(lambda th: np.array([-2e8]), np.array([0.0]), 1.0, 10)
        assert res.diverged
        np.testing.assert_array_equal(res.trace[-1], [0.0])

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            gd_run(lambda th: th, np.array([np.inf]), 0.1, 3)

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


class TestGdRun:
    def test_zero_rate_keeps_parameters(self):
        res = gd_run(lambda th: np.ones(2), np.array([1.0, 2.0]), 0.0, 5)
        np.testing.assert_array_equal(res.trace[-1], [1.0, 2.0])

    def test_converges_to_quadratic_minimum(self):
        target = np.array([2.0, -1.0])
        res = gd_run(lambda th: th - target, np.zeros(2), 0.5, 100)
        np.testing.assert_allclose(res.trace[-1], target, atol=1e-12)


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

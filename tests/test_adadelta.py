import numpy as np
import pytest

from knotgp import NumericalError, adadelta
from knotgp.adadelta import (MaximizeResult, OptimState, OptimizerConfig,
                             adadelta_step, maximize)

from oracles import reference_maximize


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rho=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_steps=0)
        with pytest.raises(ValueError):
            OptimizerConfig(patience=0)
        for rel_tol in (0.0, -1e-6):
            with pytest.raises(ValueError, match=f"^rel_tol must be positive, got {rel_tol}$"):
                OptimizerConfig(rel_tol=rel_tol)


class TestAdadeltaStep:
    def test_zero_gradient_keeps_params_and_decays_state(self):
        cfg = OptimizerConfig()
        state = OptimState(np.array([1.0]), np.array([2.0]), 5)
        new_state, new_params = adadelta_step(state, np.array([3.0]),
                                              np.array([0.0]), cfg)
        assert new_params[0] == 3.0
        assert new_state.sq_grad[0] == pytest.approx(cfg.rho * 1.0)
        assert new_state.sq_grad[0] < state.sq_grad[0]
        assert new_state.step_count == 6

    def test_first_step_closed_form(self):
        cfg = OptimizerConfig(rho=0.95, epsilon=1e-6)
        g = np.array([0.7, -2.0])
        state = OptimState.zeros(2)
        _, new_params = adadelta_step(state, np.zeros(2), g, cfg)
        expected = np.sqrt(cfg.epsilon) / np.sqrt((1 - cfg.rho) * g ** 2 + cfg.epsilon) * g
        np.testing.assert_allclose(new_params, expected, rtol=1e-14)
        assert np.sign(new_params[0]) == np.sign(g[0])  # ascent direction

    def test_matches_reference_recurrence(self):
        # test-side reimplementation of the accumulator recurrence
        cfg = OptimizerConfig(rho=0.9, epsilon=1e-5)
        rng = np.random.default_rng(0)
        sq_grad = np.zeros(3)
        sq_update = np.zeros(3)
        params_ref = np.zeros(3)
        state = OptimState.zeros(3)
        params = np.zeros(3)
        for _ in range(200):
            g = rng.standard_normal(3)
            sq_grad = cfg.rho * sq_grad + (1 - cfg.rho) * g ** 2
            delta = np.sqrt(sq_update + cfg.epsilon) / np.sqrt(sq_grad + cfg.epsilon) * g
            sq_update = cfg.rho * sq_update + (1 - cfg.rho) * delta ** 2
            params_ref = params_ref + delta
            state, params = adadelta_step(state, params, g, cfg)
            np.testing.assert_allclose(params, params_ref, rtol=1e-13)

    def test_constant_gradient_step_magnitude_stabilizes(self):
        cfg = OptimizerConfig()
        state = OptimState.zeros(1)
        params = np.zeros(1)
        steps = []
        for _ in range(3000):
            state, new = adadelta_step(state, params, np.array([3.0]), cfg)
            steps.append(float(new[0] - params[0]))
            params = new
        assert abs(steps[-1] - steps[-2]) / abs(steps[-1]) < 1e-3
        assert all(s > 0 for s in steps[-100:])

    def test_non_finite_gradient_aborts(self):
        cfg = OptimizerConfig()
        with pytest.raises(NumericalError):
            adadelta_step(OptimState.zeros(1), np.zeros(1), np.array([np.nan]), cfg)

    def test_length_mismatch(self):
        cfg = OptimizerConfig()
        with pytest.raises(ValueError):
            adadelta_step(OptimState.zeros(2), np.zeros(3), np.zeros(3), cfg)


class TestMaximize:
    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(1)
        for d in (2, 5, 10):
            target = rng.uniform(-1.0, 1.0, d)

            def fg(v):
                diff = v - target
                return -float(diff @ diff), -2.0 * diff

            res = maximize(fg, np.zeros(d),
                           OptimizerConfig(max_steps=2000, rel_tol=1e-14))
            assert np.linalg.norm(res.x - target) < 1e-3
            assert res.n_steps <= 2000

    def test_stationary_point_stops_after_patience(self):
        cfg = OptimizerConfig(patience=7)
        res = maximize(lambda v: (1.0, np.zeros_like(v)), np.array([0.3]), cfg)
        assert res.stop_reason == "converged"
        assert res.n_steps == 7

    def test_best_seen_never_decreases(self):
        rng = np.random.default_rng(2)
        target = rng.uniform(-1, 1, 4)

        def fg(v):
            diff = v - target
            return -float(diff @ diff), -2.0 * diff

        res = maximize(fg, np.zeros(4), OptimizerConfig(max_steps=300))
        running = np.maximum.accumulate(res.trace)
        assert np.all(np.diff(running) >= 0.0)
        assert res.fun == pytest.approx(running[-1])

    def test_deterministic(self):
        def fg(v):
            return -float(v @ v) + float(np.sin(v).sum()), -2.0 * v + np.cos(v)

        a = maximize(fg, np.array([2.0, -1.0]), OptimizerConfig(max_steps=100))
        b = maximize(fg, np.array([2.0, -1.0]), OptimizerConfig(max_steps=100))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.trace, b.trace)

    def test_non_finite_at_init_raises(self):
        with pytest.raises(ValueError):
            maximize(lambda v: (np.nan, np.zeros_like(v)), np.zeros(2),
                     OptimizerConfig())

    def test_non_finite_mid_run_reverts_to_best(self):
        calls = {"n": 0}

        def fg(v):
            calls["n"] += 1
            if calls["n"] > 4:
                return np.nan, np.zeros_like(v)
            return -float(v @ v), -2.0 * v

        res = maximize(fg, np.array([1.0]), OptimizerConfig(max_steps=50))
        assert res.stop_reason == "non_finite_objective"
        assert np.isfinite(res.fun)

    def test_ascent_on_gp_lengthscale(self):
        # 1-d objective: exact GP log marginal likelihood in log lengthscale
        from knotgp import KernelParams, fit_full, log_marginal_likelihood

        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, 15).reshape(-1, 1)
        y = np.sin(1.5 * x[:, 0]) + 0.1 * rng.standard_normal(15)
        base = KernelParams(1.0, 0.2, 0.1)

        def fg(v):
            p = base.with_log_vector(np.array([0.0, v[0], np.log(0.1)]))
            value, grad = log_marginal_likelihood(fit_full(x, y, p), with_grad=True)
            return value, grad[1:2]

        init = np.array([np.log(0.2)])
        res = maximize(fg, init, OptimizerConfig(max_steps=200))
        assert res.fun >= fg(init)[0]


def _quadratic(v):
    diff = v - np.array([0.4, -1.3, 2.0])
    return -float(diff @ diff), -2.0 * diff


def _gp_objective():
    from knotgp import KernelParams, fit_full, log_marginal_likelihood

    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 2))
    y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(20)
    base = KernelParams(1.0, 1.0, 0.1)

    def fg(v):
        return log_marginal_likelihood(fit_full(x, y, base.with_log_vector(v)),
                                       with_grad=True)
    return fg


def _non_finite_value_after(calls):
    count = [0]

    def fg(v):
        count[0] += 1
        if count[0] > calls:
            return np.nan, np.zeros_like(v)
        return _quadratic(v)
    return fg


def _non_finite_gradient_after(calls):
    count = [0]

    def fg(v):
        count[0] += 1
        value, grad = _quadratic(v)
        if count[0] > calls:
            grad[1] = np.inf
        return value, grad
    return fg


class TestMaximizeMatchesStepLoop:
    """``maximize`` keeps its accumulators as local arrays; it must give what
    a plain loop over the validating ``adadelta_step`` gives, to the bit."""

    @pytest.mark.parametrize("case", [
        ("quadratic", lambda: _quadratic, np.zeros(3), OptimizerConfig(max_steps=300),
         "max_steps"),
        ("quadratic to convergence", lambda: _quadratic, np.zeros(3),
         OptimizerConfig(max_steps=2000, rel_tol=1e-4), "converged"),
        ("gp", _gp_objective, np.log([1.0, 1.0, 0.1]),
         OptimizerConfig(max_steps=150, rel_tol=1e-4, patience=5), "max_steps"),
        ("non-finite value", lambda: _non_finite_value_after(6), np.zeros(3),
         OptimizerConfig(max_steps=50), "non_finite_objective"),
        ("non-finite gradient", lambda: _non_finite_gradient_after(6), np.zeros(3),
         OptimizerConfig(max_steps=50), "non_finite_gradient"),
        ("patience", lambda: (lambda v: (1.0, np.zeros_like(v))), np.array([0.3, 0.1]),
         OptimizerConfig(patience=7), "converged"),
        ("plateau", lambda: (lambda v: (1.0, np.ones_like(v))), np.array([0.3, 0.1]),
         OptimizerConfig(patience=7), "converged"),
    ], ids=lambda case: case[0])
    def test_bitwise(self, case):
        _, make, init, config, reason = case
        expected = reference_maximize(make(), init, config)
        got = maximize(make(), init, config)
        assert got.x.tobytes() == expected.x.tobytes()
        assert np.float64(got.fun).tobytes() == np.float64(expected.fun).tobytes()
        assert got.trace.tobytes() == expected.trace.tobytes()
        assert got.n_steps == expected.n_steps
        assert got.stop_reason == expected.stop_reason == reason

    def test_gradient_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths must agree"):
            maximize(lambda v: (0.0, np.zeros(v.size + 1)), np.zeros(2), OptimizerConfig())


def _rosenbrock(v):
    """The negated Rosenbrock function, maximized at (1, 1)."""
    a, b = 1.0 - v[0], v[1] - v[0] ** 2
    return -(a * a + 100.0 * b * b), np.array([2.0 * a + 400.0 * v[0] * b, -200.0 * b])


def _after_calls(objective, calls, spoil):
    """``objective``, with ``spoil`` applied to its (value, gradient) from
    evaluation ``calls + 1`` on."""
    count = [0]

    def fg(v):
        count[0] += 1
        value, grad = objective(v)
        return spoil(value, grad) if count[0] > calls else (value, grad)
    return fg


class TestBfgs:
    TIGHT = OptimizerConfig(max_steps=200, rel_tol=1e-15)

    @staticmethod
    def _check_contract(res, objective):
        assert res.trace.shape == (res.n_steps + 1,)
        assert np.all(np.diff(res.trace) > 0.0)
        assert res.fun == res.trace[-1]
        assert objective(res.x)[0] == res.fun

    def test_concave_quadratic_reaches_its_maximizer(self):
        rng = np.random.default_rng(5)
        root = rng.standard_normal((4, 4))
        precision = root @ root.T + 0.5 * np.eye(4)
        target = rng.uniform(-2.0, 2.0, 4)

        def fg(v):
            diff = v - target
            return -0.5 * float(diff @ precision @ diff), -precision @ diff

        res = maximize(fg, np.zeros(4), self.TIGHT, method="bfgs")
        assert res.stop_reason == "converged"
        np.testing.assert_allclose(res.x, target, atol=1e-6)
        assert res.n_steps < 40
        self._check_contract(res, fg)

    def test_rosenbrock_converges_to_one_one(self):
        res = maximize(_rosenbrock, np.array([-1.2, 1.0]), self.TIGHT, method="bfgs")
        assert res.stop_reason == "converged"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)
        self._check_contract(res, _rosenbrock)

    def test_max_steps_caps_iterations(self):
        for steps in (1, 4, 9):
            res = maximize(_rosenbrock, np.array([-1.2, 1.0]),
                           OptimizerConfig(max_steps=steps, rel_tol=1e-15), method="bfgs")
            assert res.stop_reason == "max_steps"
            assert res.n_steps == steps
            self._check_contract(res, _rosenbrock)

    def test_rel_tol_stops_on_a_small_increase(self):
        loose = maximize(_rosenbrock, np.array([-1.2, 1.0]),
                         OptimizerConfig(max_steps=200, rel_tol=1e-2), method="bfgs")
        tight = maximize(_rosenbrock, np.array([-1.2, 1.0]), self.TIGHT, method="bfgs")
        assert loose.stop_reason == "converged"
        assert loose.n_steps < tight.n_steps
        change = loose.trace[-1] - loose.trace[-2]
        assert change <= 1e-2 * (abs(loose.trace[-2]) + 1.0)

    def test_trial_steps_are_capped(self):
        # one curvature pair makes the estimate exact, so the uncapped second
        # step would jump the 49 units to the maximizer at once
        points = []

        def fg(v):
            points.append(v.copy())
            return -0.5 * float((v[0] - 50.0) ** 2), 50.0 - v

        res = maximize(fg, np.zeros(1), self.TIGHT, method="bfgs")
        assert res.stop_reason == "converged"
        assert res.x[0] == pytest.approx(50.0, abs=1e-6)
        jumps = np.abs(np.diff(np.concatenate(points)))
        assert jumps.max() <= adadelta.MAX_STEP * (1.0 + 1e-12)
        assert res.n_steps >= 49.0 / adadelta.MAX_STEP

    def test_non_positive_curvature_pairs_are_skipped(self):
        # cos is convex near 3, so the first iterations toward its maximum at
        # 0 give pairs that would make the inverse-Hessian estimate indefinite
        seen = {}

        def fg(v):
            value, grad = float(np.cos(v[0])), np.array([-np.sin(v[0])])
            seen[value] = (v[0], grad[0])
            return value, grad

        res = maximize(fg, np.array([3.0]), method="bfgs")
        assert (res.stop_reason, res.n_steps) == ("converged", 8)
        assert res.x[0] == pytest.approx(0.0, abs=1e-6)
        iterates = np.array([seen[value] for value in res.trace])
        step, change = np.diff(iterates[:, 0]), -np.diff(iterates[:, 1])
        assert int(np.sum(step * change <= 0.0)) == 4
        self._check_contract(res, fg)

    def test_zero_gradient_at_start_converges_without_steps(self):
        res = maximize(lambda v: (1.0, np.zeros_like(v)), np.array([0.3]), method="bfgs")
        assert (res.stop_reason, res.n_steps) == ("converged", 0)

    @pytest.mark.parametrize("calls", [1, 3, 8, 20])
    @pytest.mark.parametrize("reason, spoil", [
        ("non_finite_objective", lambda value, grad: (np.nan, grad)),
        ("non_finite_gradient", lambda value, grad: (value, np.full_like(grad, np.inf))),
    ], ids=["value", "gradient"])
    def test_non_finite_mid_run_reverts_to_best(self, calls, reason, spoil):
        clean = maximize(_rosenbrock, np.array([-1.2, 1.0]), self.TIGHT, method="bfgs")
        res = maximize(_after_calls(_rosenbrock, calls, spoil), np.array([-1.2, 1.0]),
                       self.TIGHT, method="bfgs")
        assert res.stop_reason == reason
        assert np.all(np.isfinite(res.trace))
        self._check_contract(res, _rosenbrock)
        # the spoiled run follows the clean one until it stops
        assert res.trace.tobytes() == clean.trace[:res.n_steps + 1].tobytes()

    def test_non_finite_gradient_at_start_stops(self):
        res = maximize(lambda v: (0.0, np.full_like(v, np.nan)), np.zeros(2), method="bfgs")
        assert (res.stop_reason, res.n_steps, res.fun) == ("non_finite_gradient", 0, 0.0)

    def test_gradient_of_the_wrong_sign_fails_the_line_search(self):
        calls = [0]

        def fg(v):
            calls[0] += 1
            value, grad = _quadratic(v)
            return value, -grad

        res = maximize(fg, np.zeros(3), self.TIGHT, method="bfgs")
        assert (res.stop_reason, res.n_steps) == ("line_search_failed", 0)
        assert res.x.tolist() == [0.0, 0.0, 0.0]
        assert calls[0] == 1 + adadelta.MAX_BACKTRACKS

    @pytest.mark.parametrize("method", ["adadelta", "bfgs"])
    def test_invalid_starts_raise(self, method):
        with pytest.raises(ValueError, match="non-finite"):
            maximize(lambda v: (np.inf, np.zeros_like(v)), np.zeros(2), method=method)
        with pytest.raises(ValueError, match="lengths must agree"):
            maximize(lambda v: (0.0, np.zeros(v.size + 1)), np.zeros(2), method=method)

    def test_unknown_method_raises_before_evaluating(self):
        calls = []
        with pytest.raises(ValueError, match="unknown optimizer method"):
            maximize(lambda v: calls.append(v) or _quadratic(v), np.zeros(3), method="lbfgs")
        assert calls == []

    def test_objective_exceptions_propagate(self):
        def fg(v):
            if v[0] != 0.0:
                raise NumericalError("not positive definite")
            return _quadratic(v)

        with pytest.raises(NumericalError):
            maximize(fg, np.zeros(3), method="bfgs")

    def test_deterministic(self):
        a = maximize(_rosenbrock, np.array([-1.2, 1.0]), self.TIGHT, method="bfgs")
        b = maximize(_rosenbrock, np.array([-1.2, 1.0]), self.TIGHT, method="bfgs")
        assert a.x.tobytes() == b.x.tobytes()
        assert a.trace.tobytes() == b.trace.tobytes()

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.stats

from knotgp import (KernelParams, NumericalError, OptimizerConfig, fit_full,
                    fit_hyperparameters, log_marginal_likelihood, maximize, predict_full)
from knotgp import full_gp, selection
from knotgp.common import LOG_2PI, tri_solve
from knotgp.full_gp import FullGPModel
from knotgp.kernels import _kernel, squared_distances

from oracles import central_difference, dense_full_predict, se_kernel_matrix


class TestFitFull:
    def test_single_point_factor(self):
        p = KernelParams(1.5, 1.0, 0.3, latent_jitter=0.01)
        model = fit_full([[0.0]], [0.0], p)
        expected = np.sqrt(1.5 + 0.3 + 0.01)
        assert model.chol[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_factor_reconstructs_covariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        p = KernelParams(1.0, 0.8, 0.2)
        model = fit_full(x, y, p)
        noisy = se_kernel_matrix(x, x, p) + (p.noise_variance + p.latent_jitter) * np.eye(3)
        np.testing.assert_allclose(model.chol @ model.chol.T, noisy, atol=1e-10)

    def test_duplicate_rows_succeed_with_jitter(self):
        x = np.array([[0.5], [0.5], [1.0]])
        y = np.array([0.1, 0.2, 0.3])
        p = KernelParams(1.0, 1.0, 0.05, latent_jitter=1e-6)
        model = fit_full(x, y, p)
        assert np.all(np.isfinite(model.alpha))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            fit_full(np.zeros((3, 1)), np.zeros(2), KernelParams(1.0, 1.0, 0.1))

    def test_indefinite_covariance_raises_with_the_jitter_tried(self):
        # at s2 = 1e20 the noise and jitter are lost to round-off, and the
        # kernel of three nearly coincident rows is singular
        params = KernelParams(1e20, 1.0, 1e-10, latent_jitter=1e-12)
        with pytest.raises(NumericalError,
                           match="^training covariance is not positive definite$") as err:
            fit_full([[0.0], [0.0], [1e-9]], [1.0, 2.0, 3.0], params)
        assert err.value.attempted_jitter == 1e-12
        assert isinstance(err.value.__cause__, NumericalError)


class TestLogMarginalLikelihood:
    def test_standard_normal_at_mean(self):
        # one observation at its mean with unit total variance
        p = KernelParams(0.5, 1.0, 0.5, latent_jitter=0.0)
        model = fit_full([[0.0]], [0.0], p)
        assert log_marginal_likelihood(model) == pytest.approx(-0.9189385332, abs=1e-9)

    def test_matches_dense_gaussian_logpdf(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 1))
        y = rng.standard_normal(2)
        p = KernelParams(1.2, 0.9, 0.3)
        model = fit_full(x, y, p)
        from oracles import se_kernel_matrix

        cov = se_kernel_matrix(x, x, p) + (p.noise_variance + p.latent_jitter) * np.eye(2)
        expected = scipy.stats.multivariate_normal(mean=np.zeros(2), cov=cov).logpdf(y)
        assert log_marginal_likelihood(model) == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = 1.5 * rng.standard_normal((8, 2))
            y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(8)
            p = KernelParams(float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.6, 1.5)),
                             float(rng.uniform(0.05, 0.4)))
            model = fit_full(x, y, p)
            _, grad = log_marginal_likelihood(model, with_grad=True)

            def objective(vec):
                return log_marginal_likelihood(fit_full(x, y, p.with_log_vector(vec)))

            fd = central_difference(objective, p.log_vector(), step=1e-5)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("s2, ell, tau2", [(1.3, 0.9, 0.1), (17.3, 11.1, 0.05),
                                               (0.5, 0.2, 1e-3)])
    @pytest.mark.parametrize("n", [1, 29, 128, 129, 320])
    def test_value_and_gradient_match_dense_inverse(self, n, s2, ell, tau2):
        # R&W eq. 5.9 with K^{-1} from np.linalg.inv: d/dtheta = 0.5 tr((a a^T - K^{-1}) dK)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(n)
        p = KernelParams(s2, ell, tau2)
        kmat = se_kernel_matrix(x, x, p)
        cov = kmat + (p.noise_variance + p.latent_jitter) * np.eye(n)
        inverse = np.linalg.inv(cov)
        alpha = inverse @ y
        _, log_det = np.linalg.slogdet(cov)
        value = -0.5 * (n * np.log(2.0 * np.pi) + log_det + y @ alpha)
        weight = np.outer(alpha, alpha) - inverse
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        derivatives = (kmat + p.latent_jitter * np.eye(n),
                       kmat * d2 / p.lengthscale ** 2,
                       p.noise_variance * np.eye(n))
        grad = np.array([0.5 * np.sum(weight * dk) for dk in derivatives])

        model = fit_full(x, y, p)
        got_value, got_grad = log_marginal_likelihood(model, with_grad=True)
        assert abs(got_value - value) <= 1e-10 * abs(value)
        assert np.max(np.abs(got_grad - grad)) <= 1e-10 * np.max(np.abs(grad))
        # only the lower triangle of the factor is read
        model.chol = model.chol + np.triu(np.full((n, n), 7.0), 1)
        assert log_marginal_likelihood(model, with_grad=True)[1].tolist() == got_grad.tolist()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        p = KernelParams(1.0, 1.0, 0.2)
        base = log_marginal_likelihood(fit_full(x, y, p))
        perm = rng.permutation(10)
        shuffled = log_marginal_likelihood(fit_full(x[perm], y[perm], p))
        assert shuffled == pytest.approx(base, abs=1e-9)


def _closure(x, y, init):
    """The exact-GP search objective built from the public fit and density."""
    def objective(vec):
        return log_marginal_likelihood(fit_full(x, y, init.with_log_vector(vec)),
                                       with_grad=True)
    return objective


def _c09_problem(n, seed):
    """Standardized rows of acceptance criterion 9's synthetic recipe."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 5))
    y = (np.sin(x[:, 0]) + 0.6 * np.cos(1.3 * x[:, 1]) + 0.3 * x[:, 2]
         + 0.25 * rng.standard_normal(n))
    return x, (y - y.mean()) / y.std()


class TestFitHyperparameters:
    @pytest.mark.parametrize("n, d, steps", [(29, 5, 150), (80, 2, 60)])
    def test_matches_a_closure_over_fit_full(self, n, d, steps):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, d))
        y = np.cos(x[:, 0]) + 0.2 * rng.standard_normal(n)
        init = KernelParams(float(np.var(y)), 1.0, 0.05)
        config = OptimizerConfig(max_steps=steps, rel_tol=1e-4, patience=5)

        expected = maximize(_closure(x, y, init), init.log_vector(), config, method="bfgs")
        model, result = fit_hyperparameters(x, y, init, config)
        assert result.n_steps == expected.n_steps
        assert result.stop_reason == expected.stop_reason
        assert result.x.tobytes() == expected.x.tobytes()
        assert result.fun == expected.fun
        assert result.trace.tobytes() == expected.trace.tobytes()
        assert model.params == init.with_log_vector(expected.x)
        refit = fit_full(x, y, model.params)
        np.testing.assert_array_equal(model.alpha, refit.alpha)
        assert log_marginal_likelihood(model) == pytest.approx(result.fun, rel=1e-12)

    @pytest.mark.parametrize("n", [29, 80])
    def test_surrogate_search_matches_an_adadelta_closure(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        gains = np.cos(x[:, 0]) + 0.2 * rng.standard_normal(n)
        init = KernelParams(1.0, 1.0, 1e-6)
        calls = []
        search = full_gp.fit_hyperparameters

        def spy(*args, **kwargs):
            calls.append((args, kwargs, search(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(full_gp, "fit_hyperparameters", spy)
        surrogate = selection._fit_surrogate(x, gains, init)
        [(args, kwargs, (model, result))] = calls
        assert kwargs == {"method": "adadelta"}
        config = args[3]
        expected = maximize(_closure(x, gains, init), init.log_vector(), config,
                            method="adadelta")
        assert result.n_steps == expected.n_steps
        assert result.stop_reason == expected.stop_reason
        assert result.x.tobytes() == expected.x.tobytes()
        assert result.fun == expected.fun
        assert result.trace.tobytes() == expected.trace.tobytes()
        assert surrogate is model
        assert model.params == init.with_log_vector(expected.x)

    @pytest.mark.parametrize("n, seed", [(120, 1), (320, 3)])
    def test_reaches_the_lbfgsb_optimum(self, n, seed):
        import scipy.optimize

        x, y = _c09_problem(n, seed)
        init = KernelParams(1.0, 1.0, 0.1)
        closure = _closure(x, y, init)
        model, result = fit_hyperparameters(x, y, init,
                                            OptimizerConfig(max_steps=200, rel_tol=1e-12))
        assert result.stop_reason == "converged"
        assert result.n_steps <= 30
        _, grad = log_marginal_likelihood(model, with_grad=True)
        assert np.abs(grad).max() <= 1e-4
        adadelta = fit_hyperparameters(x, y, init, OptimizerConfig(max_steps=200),
                                       method="adadelta")[1]
        assert result.fun >= adadelta.fun
        reference = scipy.optimize.minimize(lambda v: tuple(-t for t in closure(v)),
                                            init.log_vector(), jac=True, method="L-BFGS-B")
        assert reference.success
        assert abs(result.fun + reference.fun) <= 1e-6

    def test_inputs_validated(self):
        config = OptimizerConfig(max_steps=5)
        with pytest.raises(ValueError, match="row count"):
            fit_hyperparameters(np.zeros((3, 1)), np.zeros(2), KernelParams(1.0, 1.0, 0.1),
                                config)
        with pytest.raises(ValueError, match="non-finite"):
            fit_hyperparameters([[0.0], [np.nan]], [0.0, 1.0], KernelParams(1.0, 1.0, 0.1),
                                config)

    @pytest.mark.parametrize("error", [NumericalError, ValueError])
    def test_surrogate_falls_back_to_initial_parameters(self, monkeypatch, error):
        rng = np.random.default_rng(9)
        inputs = rng.standard_normal((12, 2))
        gains = rng.standard_normal(12)
        init = KernelParams(1.0, 1.0, 1e-6)

        def failing(*args, **kwargs):
            raise error("search failed")

        monkeypatch.setattr(full_gp, "fit_hyperparameters", failing)
        surrogate = selection._fit_surrogate(inputs, gains, init)
        assert surrogate.params is init
        np.testing.assert_array_equal(surrogate.alpha, fit_full(inputs, gains, init).alpha)


def _reference_fit(x, y, params, mean_constant=0.0):
    """The exact GP fit with a copy at each step: the kernel in a new array, a
    noisy copy of it, and its upper triangle mirrored into
    ``scipy.linalg.cholesky``. Returns the factor, alpha, the kernel matrix
    and the distances."""
    d2 = squared_distances(x, x)
    kmat = _kernel(d2, params)
    noisy = kmat.copy()
    noisy[np.diag_indices(len(noisy))] += params.noise_variance + params.latent_jitter
    chol = scipy.linalg.cholesky(np.triu(noisy) + np.triu(noisy, 1).T, lower=True)
    alpha = tri_solve(chol, tri_solve(chol, y - mean_constant), trans=True)
    return chol, alpha, kmat, d2


def _reference_density(chol, alpha, resid, kmat, d2, params):
    """Log density and its gradient in closed form with a copy at each step:
    ``potri`` into a new array and a new ``kmat * d2``."""
    n = resid.size
    fit = resid @ alpha
    value = float(-0.5 * (n * LOG_2PI + 2.0 * np.log(chol.diagonal()).sum() + fit))
    inverse, info = scipy.linalg.lapack.dpotri(chol, lower=1)
    assert info == 0 and not np.shares_memory(inverse, chol)
    upper = inverse.T
    kd = kmat * d2
    d_log_tau2 = 0.5 * params.noise_variance * (alpha @ alpha - upper.trace())
    inverse_kd = 2.0 * np.vdot(upper, kd) - upper.diagonal() @ kd.diagonal()
    return value, np.array([0.5 * (fit - n) - d_log_tau2,
                            0.5 * (alpha @ (kd @ alpha) - inverse_kd) / params.lengthscale ** 2,
                            d_log_tau2])


def _reference_objective(x, y, init):
    def objective(vec):
        params = init.with_log_vector(vec)
        chol, alpha, kmat, d2 = _reference_fit(x, y, params)
        return _reference_density(chol, alpha, y, kmat, d2, params)
    return objective


def _bytes(a):
    return np.asarray(a).tobytes(order="A")


# one row, 128 and its neighbours, and 259 rows
BLOCK_SIZES = [1, 2, 127, 128, 129, 259]


class TestInPlaceBuffers:
    """The exact GP factors in the buffer it forms and inverts a copy of the
    factor in place; every output keeps the bits of a path that copies."""

    @staticmethod
    def _problem(n):
        rng = np.random.default_rng(n)
        x = 0.8 * rng.standard_normal((n, 3))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
        return x, y, KernelParams(1.3, 0.9, 0.1)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_fit_density_and_gradient_bit_identical(self, n):
        x, y, p = self._problem(n)
        chol, alpha, kmat, d2 = _reference_fit(x, y, p, mean_constant=0.25)
        value, grad = _reference_density(chol, alpha, y - 0.25, kmat, d2, p)

        model = fit_full(x, y, p, mean_constant=0.25)
        assert model.chol.flags.f_contiguous
        assert _bytes(model.chol) == _bytes(chol)
        assert _bytes(model.alpha) == _bytes(alpha)
        assert log_marginal_likelihood(model) == value
        factor = np.copy(model.chol)
        got_value, got_grad = log_marginal_likelihood(model, with_grad=True)
        assert got_value == value
        assert _bytes(got_grad) == _bytes(grad)
        # the gradient inverts a copy of the factor
        assert _bytes(model.chol) == _bytes(factor)

        xt = np.random.default_rng(n + 1).standard_normal((9, 3))
        got = predict_full(model, xt)
        expected = predict_full(FullGPModel(p, model.train_inputs, model.train_targets, 0.25,
                                            chol, alpha), xt)
        for field in ("latent_mean", "latent_variance", "noisy_variance"):
            assert _bytes(getattr(got, field)) == _bytes(getattr(expected, field))

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_factor_is_the_kernel_buffer(self, n):
        x, y, p = self._problem(n)
        kmat = _kernel(squared_distances(x, x), p)
        factor, _ = full_gp._factorize(kmat, y, p)
        assert np.shares_memory(factor, kmat)

    @pytest.mark.parametrize("method", ["bfgs", "adadelta"])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_search_bit_identical(self, n, method):
        x, y, init = self._problem(n)
        config = OptimizerConfig(max_steps=6)
        expected = maximize(_reference_objective(x, y, init), init.log_vector(), config,
                            method=method)
        model, result = fit_hyperparameters(x, y, init, config, method=method)
        assert result.n_steps == expected.n_steps
        assert _bytes(result.x) == _bytes(expected.x)
        assert _bytes(result.trace) == _bytes(expected.trace)
        chol, alpha, _, _ = _reference_fit(x, y, init.with_log_vector(expected.x))
        assert _bytes(model.chol) == _bytes(chol)
        assert _bytes(model.alpha) == _bytes(alpha)

    def test_peak_memory(self):
        # a fit holds one N x N array, a gradient evaluation two (the kernel
        # times the distances, in the distance buffer, and the factor's copy)
        # and a search evaluation three (distances, that product, the factor)
        n = 600
        x, y, p = self._problem(n)
        model = fit_full(x, y, p)

        def peak(call):
            """Bytes ``call`` allocates at its peak, over what was allocated before."""
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        square = 8 * n * n
        assert peak(lambda: fit_full(x, y, p)) < 1.3 * square
        assert peak(lambda: log_marginal_likelihood(model, with_grad=True)) < 2.3 * square
        assert peak(lambda: fit_hyperparameters(x, y, p, OptimizerConfig(max_steps=2))) \
            < 3.3 * square


class TestPredictFull:
    def test_interpolation_limit(self):
        # nearly noiseless model must reproduce the observations
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 1))
        y = rng.standard_normal(5)
        p = KernelParams(1.0, 1.0, 1e-10, latent_jitter=0.0)
        pred = predict_full(fit_full(x, y, p), x)
        np.testing.assert_allclose(pred.latent_mean, y, atol=1e-6)
        assert np.all(pred.latent_variance < 1e-6)

    def test_prior_reversion_far_from_data(self):
        p = KernelParams(2.0, 1.0, 0.1)
        model = fit_full([[0.0], [1.0]], [1.0, -1.0], p, mean_constant=0.5)
        pred = predict_full(model, [[500.0]])
        assert pred.latent_mean[0] == pytest.approx(0.5, abs=1e-12)
        assert pred.latent_variance[0] == pytest.approx(2.0 + p.latent_jitter, rel=1e-12)
        assert pred.noisy_variance[0] == pytest.approx(pred.latent_variance[0] + 0.1)

    def test_matches_dense_conditional_formula(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        xt = rng.standard_normal((6, 2))
        p = KernelParams(1.1, 0.8, 0.25)
        pred = predict_full(fit_full(x, y, p), xt)
        mean, var = dense_full_predict(x, y, xt, p)
        np.testing.assert_allclose(pred.latent_mean, mean, rtol=1e-10)
        np.testing.assert_allclose(pred.latent_variance, var, rtol=1e-8, atol=1e-12)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        p = KernelParams(1.3, 0.9, 0.2)
        pred = predict_full(fit_full(x, y, p), rng.standard_normal((30, 2)))
        assert np.all(pred.latent_variance <= 1.3 + p.latent_jitter + 1e-12)

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0, 0.1)
        model = fit_full(np.zeros((3, 2)), np.zeros(3), p)
        with pytest.raises(ValueError):
            predict_full(model, np.zeros((2, 3)))

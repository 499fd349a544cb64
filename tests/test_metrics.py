import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from knotgp import (Approximation, KernelParams, PredictiveDistribution, aukl,
                    fit_full, fit_sparse, gaussian_kl, mnlp, predict_full,
                    predict_sparse, srmse)


def _pred(means, latent_vars, noise=0.0):
    means = np.asarray(means, dtype=float)
    latent = np.asarray(latent_vars, dtype=float)
    return PredictiveDistribution(means, latent, latent + noise)


class TestMnlp:
    def test_at_mean_unit_variance(self):
        pred = _pred([1.0, -2.0, 0.5], [1.0, 1.0, 1.0])
        assert mnlp(pred, [1.0, -2.0, 0.5]) == pytest.approx(0.9189385332, abs=1e-9)

    def test_single_point(self):
        pred = _pred([0.0], [0.5], noise=0.5)
        expected = -scipy.stats.norm(0.0, 1.0).logpdf(2.0)
        assert mnlp(pred, [2.0]) == pytest.approx(expected, rel=1e-12)

    def test_matches_sort_and_pick_oracle(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal(5)
        var = rng.uniform(0.2, 2.0, 5)
        targets = rng.standard_normal(5)
        pred = _pred(means, var)
        values = sorted(-scipy.stats.norm(m, np.sqrt(v)).logpdf(t)
                        for m, v, t in zip(means, var, targets))
        assert mnlp(pred, targets) == pytest.approx(values[2], rel=1e-12)

    def test_even_length_midpoint(self):
        pred = _pred([0.0, 0.0], [1.0, 1.0])
        vals = sorted(-scipy.stats.norm(0, 1).logpdf(t) for t in (0.0, 1.0))
        assert mnlp(pred, [0.0, 1.0]) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        means = rng.standard_normal(9)
        var = rng.uniform(0.1, 1.0, 9)
        targets = rng.standard_normal(9)
        perm = rng.permutation(9)
        a = mnlp(_pred(means, var), targets)
        b = mnlp(_pred(means[perm], var[perm]), targets[perm])
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_variance_rejected(self):
        pred = PredictiveDistribution([0.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            mnlp(pred, [0.0])


class TestSrmse:
    def test_perfect_predictions(self):
        targets = [1.0, 2.0, 3.0]
        assert srmse(_pred(targets, np.ones(3)), targets) == 0.0

    def test_mean_prediction_closed_form(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 40):
            targets = rng.standard_normal(n)
            pred = _pred(np.full(n, targets.mean()), np.ones(n))
            expected = np.sqrt(n - 1) / np.sqrt(n)
            assert srmse(pred, targets) == pytest.approx(expected, rel=1e-10)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        means = rng.standard_normal(7)
        targets = rng.standard_normal(7)
        direct = np.sqrt(np.mean((means - targets) ** 2)) / np.std(targets, ddof=1)
        assert srmse(_pred(means, np.ones(7)), targets) == pytest.approx(direct,
                                                                         rel=1e-12)

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError):
            srmse(_pred([0.0, 0.0], [1.0, 1.0]), [2.0, 2.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        means = rng.standard_normal(6)
        targets = rng.standard_normal(6)
        perm = rng.permutation(6)
        a = srmse(_pred(means, np.ones(6)), targets)
        b = srmse(_pred(means[perm], np.ones(6)), targets[perm])
        assert a == pytest.approx(b, abs=1e-12)


class TestGaussianKl:
    def test_identical_is_zero(self):
        assert gaussian_kl(0.3, 1.2, 0.3, 1.2) == 0.0

    def test_unit_shift_closed_form(self):
        assert gaussian_kl(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m1, m2 = rng.standard_normal(2)
            v1, v2 = rng.uniform(0.3, 2.0, 2)

            def integrand(z):
                p = scipy.stats.norm(m1, np.sqrt(v1))
                q = scipy.stats.norm(m2, np.sqrt(v2))
                return p.pdf(z) * (p.logpdf(z) - q.logpdf(z))

            numeric, _ = scipy.integrate.quad(integrand, -30, 30)
            assert gaussian_kl(m1, v1, m2, v2) == pytest.approx(numeric, abs=1e-6)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m1, m2 = rng.standard_normal(2)
            v1, v2 = rng.uniform(0.1, 3.0, 2)
            value = gaussian_kl(m1, v1, m2, v2)
            assert value >= 0.0
            if abs(m1 - m2) < 1e-12 and abs(v1 - v2) < 1e-12:
                assert value < 1e-12
            if value < 1e-14:
                assert abs(m1 - m2) < 1e-6 and abs(v1 - v2) < 1e-6

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kl(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_kl(0.0, 1.0, 0.0, -1.0)


class TestAukl:
    def test_identical_predictives(self):
        pred = _pred([0.0, 1.0], [0.5, 0.7], noise=0.1)
        assert aukl(pred, pred) == 0.0

    def test_saturated_sparse_model_approaches_zero(self):
        rng = np.random.default_rng(7)
        x = 1.5 * rng.standard_normal((10, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(10)
        xt = 1.5 * rng.standard_normal((6, 2))
        p = KernelParams(1.0, 1.0, 0.2, latent_jitter=1e-10)
        full = predict_full(fit_full(x, y, p), xt)
        sparse = predict_sparse(fit_sparse(Approximation.DTC, x, y, p, x.copy()), xt)
        assert aukl(full, sparse) <= 1e-6

    def test_matches_hand_summed_values(self):
        full = _pred([0.0, 1.0, -1.0], [1.0, 0.5, 2.0])
        sparse = _pred([0.1, 0.9, -1.2], [1.1, 0.6, 1.8])
        expected = np.mean([
            gaussian_kl(0.0, 1.0, 0.1, 1.1),
            gaussian_kl(1.0, 0.5, 0.9, 0.6),
            gaussian_kl(-1.0, 2.0, -1.2, 1.8),
        ])
        assert aukl(full, sparse) == pytest.approx(expected, rel=1e-12)

    def test_matches_mean_of_per_point_kl(self):
        # the vectorized metric against the scalar divergence, point by point
        rng = np.random.default_rng(9)
        full = _pred(rng.standard_normal(300), rng.uniform(1e-3, 3.0, 300))
        sparse = _pred(rng.standard_normal(300), rng.uniform(1e-3, 3.0, 300))
        expected = np.mean([gaussian_kl(*moments) for moments in zip(
            full.latent_mean, full.latent_variance,
            sparse.latent_mean, sparse.latent_variance)])
        assert aukl(full, sparse) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("side", [0, 1])
    def test_zero_latent_variance_raises(self, side):
        pair = [_pred([0.0, 1.0], [1.0, 1.0]), _pred([0.0, 1.0], [1.0, 1.0])]
        pair[side] = _pred([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            aukl(*pair)

    def test_uses_latent_not_noisy_density(self):
        # adding noise variance must not change the metric
        full = _pred([0.0], [1.0], noise=0.5)
        sparse_a = _pred([0.5], [1.0], noise=0.5)
        sparse_b = _pred([0.5], [1.0], noise=5.0)
        assert aukl(full, sparse_a) == aukl(full, sparse_b)

    def test_monotone_decrease_along_nested_knots(self):
        rng = np.random.default_rng(8)
        x = 1.5 * rng.standard_normal((25, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(25)
        xt = 1.5 * rng.standard_normal((8, 2))
        p = KernelParams(1.0, 1.0, 0.2, latent_jitter=1e-10)
        full = predict_full(fit_full(x, y, p), xt)
        order = rng.permutation(25)
        values = []
        for k in (3, 8, 15, 25):
            sparse = predict_sparse(
                fit_sparse(Approximation.DTC, x, y, p, x[order[:k]]), xt)
            values.append(aukl(full, sparse))
        assert all(later <= earlier + 1e-8
                   for earlier, later in zip(values, values[1:]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aukl(_pred([0.0], [1.0]), _pred([0.0, 1.0], [1.0, 1.0]))

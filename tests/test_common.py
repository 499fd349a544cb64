from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from knotgp import Approximation, KernelParams, common, fit_full, fit_sparse, predict_full
from knotgp.common import NumericalError, chol_lower


def _spd(rng, k):
    a = rng.standard_normal((k, k + 2))
    spd = a @ a.T + 1e-3 * np.eye(k)
    spd[0, -1] += 1e-9 * k        # asymmetric round-off that the symmetrization removes
    return spd


class TestCholLower:
    @pytest.mark.parametrize("k", [1, 5, 29, 80, 320])
    def test_bit_identical_to_scipy_cholesky(self, k):
        a = _spd(np.random.default_rng(k), k)
        expected = scipy.linalg.cholesky(0.5 * (a + a.T), lower=True)
        factor = chol_lower(a)
        assert np.array_equal(factor, expected)
        assert np.all(np.triu(factor, 1) == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        a = _spd(np.random.default_rng(0), 4)
        a[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            chol_lower(a, escalations=3)

    def test_not_positive_definite_without_escalation(self):
        diagnostics = {}
        with pytest.raises(NumericalError, match="probe"):
            chol_lower(np.diag([1.0, -1.0]), diagnostics=diagnostics, label="probe")
        assert diagnostics["near_singular_factorizations"] == 1

    @pytest.mark.parametrize("case, retries", [("rank deficient", None),
                                               ("slightly indefinite", 3)])
    def test_ridge_escalation_sequence(self, monkeypatch, case, retries):
        if case == "rank deficient":
            x = np.random.default_rng(1).standard_normal((10, 3))
            a = x @ x.T                                # PSD of rank 3
        else:
            a = np.diag([1.0, 1.0, -1e-9])             # needs a ridge above 1e-9
        ridges = []
        factorize = common.dpotrf

        def recording(matrix, **kwargs):
            ridges.append(float(np.mean(np.diag(matrix) - np.diag(a))))
            return factorize(matrix, **kwargs)

        monkeypatch.setattr(common, "dpotrf", recording)
        diagnostics = {}
        factor = chol_lower(a, escalations=3, diagnostics=diagnostics)
        recorded = diagnostics["near_singular_factorizations"]
        assert recorded >= 1 if retries is None else recorded == retries
        scale = float(np.mean(np.diag(a)))
        expected = [0.0] + [1e-12 * scale * 100.0 ** i for i in range(recorded)]
        assert len(ridges) == recorded + 1
        np.testing.assert_allclose(ridges, expected, rtol=1e-3, atol=0.0)
        np.testing.assert_allclose(factor @ factor.T, a + ridges[-1] * np.eye(len(a)),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(a)))

    @pytest.mark.parametrize("case", ["first attempt", "after a ridge retry"])
    def test_input_left_unmodified(self, case):
        # the factorization overwrites the symmetrized copy, never the input
        if case == "first attempt":
            a = _spd(np.random.default_rng(2), 6)
        else:
            a = np.diag([1.0, 1.0, -1e-9])
            a[0, 1] = 1e-10                             # asymmetric, so a != its copy
        before = a.copy()
        diagnostics = {}
        factor = chol_lower(a, escalations=3, diagnostics=diagnostics)
        assert a.tobytes() == before.tobytes()
        assert ("near_singular_factorizations" in diagnostics) == (case != "first attempt")
        assert not np.shares_memory(factor, a)

    def test_escalations_exhausted(self):
        # the error carries the ridge of the last attempt: none without
        # escalation, else 1e-12 (the mean diagonal is 0, so the scale is 1)
        # grown a hundredfold per further retry
        for escalations, last_ridge in [(0, 0.0), (2, 1e-10)]:
            diagnostics = {}
            with pytest.raises(NumericalError) as info:
                chol_lower(np.diag([1.0, -1.0]), escalations=escalations,
                           diagnostics=diagnostics)
            assert diagnostics["near_singular_factorizations"] == escalations + 1
            assert info.value.attempted_jitter == last_ridge


class TestNegativeVarianceClamp:
    """Both predictors clamp negative latent variances at zero and count them.
    Halving a fitted Cholesky factor quadruples the variance explained by the
    data, so test points near the data go negative while far ones do not."""

    def test_clamped_entries_are_zero_and_counted(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (30, 1))
        y = np.sin(4.0 * x[:, 0])
        params = KernelParams(1.3, 0.3, 0.01)
        full = fit_full(x, y, params)
        full = replace(full, chol=0.5 * full.chol)
        sparse = fit_sparse(Approximation.DTC, x, y, params, np.linspace(0.0, 1.0, 6)[:, None])
        sparse._luu = 0.5 * sparse._luu
        xt = np.linspace(-2.0, 3.0, 101)[:, None]
        for model, predict in ((full, partial(predict_full, full)), (sparse, sparse.predict)):
            counts = []
            for _ in range(2):
                pred = predict(xt)
                zero = pred.latent_variance == 0.0
                counts.append(int(zero.sum()))
                assert model.diagnostics["negative_variance_clamps"] == sum(counts)
                np.testing.assert_array_equal(pred.noisy_variance[zero], params.noise_variance)
                assert np.all(pred.latent_variance[~zero] > 0.0)
            assert 0 < counts[0] == counts[1] < xt.shape[0]


@pytest.mark.parametrize("predictor", ["sparse", "full"])
def test_predictors_share_the_test_width_check(predictor):
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((10, 2)), rng.standard_normal(10)
    params = KernelParams(1.0, 1.0, 0.1)
    if predictor == "sparse":
        predict = fit_sparse(Approximation.DTC, x, y, params, x[:3]).predict
    else:
        predict = partial(predict_full, fit_full(x, y, params))
    with pytest.raises(ValueError, match=r"^test input dimension 3 does not match "
                                         r"training dimension 2$"):
        predict(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="test inputs contains non-finite entries"):
        predict([[0.0, np.nan]])

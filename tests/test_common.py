import numpy as np
import pytest
import scipy.linalg

from knotgp import common
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

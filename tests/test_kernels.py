import numpy as np
import pytest

from knotgp import KernelParams, cov_matrix, kernel_eval, kernel_grad_knot, kernel_grad_params
from knotgp.kernels import (_exponent_columns, _exponent_rows, _row_norms,
                            _squared_distances, _unit_kernel)

from oracles import central_difference


class TestKernelParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            KernelParams(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            KernelParams(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            KernelParams(1.0, 1.0, 0.1, latent_jitter=-1e-9)

    def test_default_jitter_tracks_signal_variance(self):
        p = KernelParams(4.0, 1.0, 0.1)
        assert p.latent_jitter == pytest.approx(4e-6)
        moved = p.with_log_vector(np.log([8.0, 1.0, 0.1]))
        assert moved.latent_jitter == pytest.approx(8e-6)

    @pytest.mark.parametrize("jitter", [None, 1e-3, 0.0])
    def test_with_log_vector_equals_validated_constructor(self, jitter):
        p = KernelParams(2.5, 0.7, 0.05, latent_jitter=jitter)
        for vec in np.random.default_rng(8).normal(0.0, 3.0, (25, 3)):
            s2, ell, tau2 = np.exp(vec)
            expected = KernelParams(s2, ell, tau2, latent_jitter=p.jitter_ratio * s2)
            got = p.with_log_vector(vec)
            for name in ("signal_variance", "lengthscale", "noise_variance",
                         "latent_jitter", "jitter_ratio"):
                assert type(getattr(got, name)) is float
                assert getattr(got, name).hex() == getattr(expected, name).hex(), name

    @pytest.mark.parametrize("vec", [[], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_with_log_vector_wrong_length_raises(self, vec):
        with pytest.raises(ValueError, match=rf"^log vector must have length 3, got {len(vec)}$"):
            KernelParams(1.0, 1.0, 0.1).with_log_vector(vec)

    @pytest.mark.parametrize("vec, bad", [([800.0, 0.0, 0.0], 0), ([0.0, -800.0, 0.0], 1)])
    def test_with_log_vector_overflow_raises_as_the_constructor(self, vec, bad):
        p = KernelParams(1.0, 1.0, 0.1)
        with np.errstate(over="ignore", under="ignore"):
            natural = np.exp(vec)
            with pytest.raises(ValueError) as expected:
                KernelParams(*natural, latent_jitter=p.jitter_ratio * natural[0])
            with pytest.raises(ValueError) as got:
                p.with_log_vector(vec)
        assert str(got.value) == str(expected.value)
        name = ("signal_variance", "lengthscale")[bad]
        assert str(got.value) == f"{name} must be finite and positive, got {natural[bad]}"

    def test_log_vector_round_trip(self):
        p = KernelParams(2.5, 0.7, 0.05)
        q = p.with_log_vector(p.log_vector())
        assert q.signal_variance == pytest.approx(p.signal_variance)
        assert q.lengthscale == pytest.approx(p.lengthscale)
        assert q.noise_variance == pytest.approx(p.noise_variance)


class TestKernelEval:
    def test_zero_distance_returns_signal_variance(self):
        p = KernelParams(2.5, 1.3, 0.1)
        assert kernel_eval([0.4, -1.0], [0.4, -1.0], p) == pytest.approx(2.5)

    def test_large_distance_decays_to_zero(self):
        p = KernelParams(1.0, 1.0, 0.1)
        assert kernel_eval([0.0], [60.0], p) < 1e-300 * 1e10
        assert kernel_eval([0.0], [60.0], p) >= 0.0

    def test_unit_case_closed_form(self):
        p = KernelParams(1.0, 1.0, 0.1)
        assert kernel_eval([0.0], [1.0], p) == pytest.approx(0.6065306597, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = KernelParams(1.7, 0.8, 0.1)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert kernel_eval(a, b, p) == pytest.approx(kernel_eval(b, a, p), rel=1e-15)

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            kernel_eval([0.0, 1.0], [0.0], p)


class TestCovMatrix:
    def test_single_point(self):
        p = KernelParams(3.0, 1.0, 0.1)
        mat = cov_matrix([[0.5]], [[0.5]], p)
        np.testing.assert_allclose(mat, [[3.0]])

    def test_symmetric_for_same_inputs(self):
        rng = np.random.default_rng(1)
        p = KernelParams(1.2, 0.9, 0.1)
        x = rng.standard_normal((12, 3))
        mat = cov_matrix(x, x, p)
        np.testing.assert_allclose(mat, mat.T, atol=1e-15)

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(2)
        p = KernelParams(0.8, 1.4, 0.1)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((4, 2))
        mat = cov_matrix(a, b, p)
        # the exponent path of sparse prediction
        unit = _unit_kernel(_exponent_rows(a, p.lengthscale),
                            _exponent_columns(b, p.lengthscale))
        for i in range(5):
            for j in range(4):
                expected = kernel_eval(a[i], b[j], p)
                assert mat[i, j] == pytest.approx(expected, rel=1e-12)
                assert p.signal_variance * unit[i, j] == pytest.approx(expected, rel=1e-12)

    def test_psd_with_jitter(self):
        rng = np.random.default_rng(3)
        for n in (5, 20, 50):
            p = KernelParams(1.0, 0.7, 0.1)
            x = rng.standard_normal((n, 2))
            mat = cov_matrix(x, x, p) + p.latent_jitter * np.eye(n)
            assert np.linalg.eigvalsh(mat).min() >= -1e-10

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            cov_matrix(np.zeros((3, 2)), np.zeros((3, 3)), p)


class TestSquaredDistances:
    @pytest.mark.parametrize("into_buffer", [False, True])
    def test_clamp_gives_the_bits_of_np_maximum(self, into_buffer):
        # rows shared by both sides (knots on training rows) leave round-off
        # of either sign where the distance is zero
        rng = np.random.default_rng(6)
        b = 3.0 * rng.standard_normal((300, 5))
        a = np.vstack([b[:40], 3.0 * rng.standard_normal((40, 5))])
        expansion = -2.0 * (a @ b.T) + _row_norms(a)[:, None] + _row_norms(b)[None, :]
        assert (expansion < 0.0).sum() > 0
        expected = np.maximum(expansion, 0.0)
        out = np.full((90, 300), np.nan)[5:85] if into_buffer else None
        d2 = _squared_distances(a, b, _row_norms(b), out=out)
        assert d2.tobytes() == expected.tobytes()
        assert not np.signbit(d2).any()
        if into_buffer:
            assert d2 is out


class TestGradients:
    def test_lengthscale_gradient_vanishes_at_zero_distance(self):
        p = KernelParams(2.0, 0.5, 0.1)
        grad = kernel_grad_params([1.0, 2.0], [1.0, 2.0], p)
        assert grad[1] == 0.0

    def test_signal_gradient_equals_kernel_value(self):
        rng = np.random.default_rng(4)
        p = KernelParams(1.5, 0.8, 0.1)
        for _ in range(10):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            grad = kernel_grad_params(a, b, p)
            assert grad[0] == pytest.approx(kernel_eval(a, b, p), rel=1e-14)

    def test_knot_gradient_zero_at_coincidence(self):
        p = KernelParams(1.0, 1.0, 0.1)
        np.testing.assert_allclose(kernel_grad_knot([0.3, 0.3], [0.3, 0.3], p), 0.0)

    def test_knot_gradient_closed_form_1d(self):
        p = KernelParams(1.0, 1.0, 0.1)
        grad = kernel_grad_knot([0.0], [1.0], p)
        assert grad[0] == pytest.approx(-0.6065306597, abs=1e-10)

    def test_all_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = rng.integers(1, 4)
            a, b = rng.standard_normal(d), rng.standard_normal(d)
            p = KernelParams(float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.5, 2.0)), 0.1)

            analytic = kernel_grad_params(a, b, p)
            fd = central_difference(
                lambda v: kernel_eval(a, b, p.with_log_vector(
                    np.concatenate([v, [np.log(p.noise_variance)]]))),
                p.log_vector()[:2], step=1e-5)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)

            knot_analytic = kernel_grad_knot(a, b, p)
            knot_fd = central_difference(lambda u: kernel_eval(a, u, p), b, step=1e-5)
            np.testing.assert_allclose(knot_analytic, knot_fd, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("helper, name", [(kernel_eval, "b"), (kernel_grad_params, "b"),
                                              (kernel_grad_knot, "knot")])
    def test_point_that_is_not_1d_raises(self, helper, name):
        p = KernelParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match=r"^a must be a single point \(1-d array\)$"):
            helper([[0.0, 1.0]], [0.0, 1.0], p)
        with pytest.raises(ValueError, match=rf"^{name} must be a single point \(1-d array\)$"):
            helper([0.0, 1.0], [[0.0], [1.0]], p)

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            kernel_grad_params([0.0], [0.0, 1.0], p)
        with pytest.raises(ValueError):
            kernel_grad_knot([0.0], [0.0, 1.0], p)

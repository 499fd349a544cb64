import functools

import numpy as np
import pytest

from knotgp import sparse_gp
from knotgp import (Approximation, KernelParams, KnotSet, SparseGPModel, elbo,
                    elbo_grad, fic_log_marginal, fit_full, fit_sparse,
                    log_marginal_likelihood, predict_full, predict_sparse,
                    prior_variance_report, psi_cross, psi_diag)
from knotgp.adadelta import OptimizerConfig
from knotgp.common import NumericalError, tri_solve
from knotgp.kernels import _exponent_columns, _unit_kernel
from knotgp.selection import kmeans_init, simultaneous_optimize

from oracles import (central_difference, dense_elbo, dense_fic_log_marginal,
                     dense_predict, dense_psi, mp_elbo, mp_predict, random_instance,
                     se_kernel_matrix)


class TestKnotSet:
    def test_duplicates_flagged(self):
        assert KnotSet(np.array([[0.0], [0.0]])).has_duplicates
        assert not KnotSet(np.array([[0.0], [1.0]])).has_duplicates

    def test_coincidence_is_per_coordinate(self):
        # the distance expansion's cancellation error (~1e-14 here) once hid
        # this exact duplicate
        rng = np.random.default_rng(0)
        knots = 3.0 * rng.standard_normal((6, 5))
        assert KnotSet(np.vstack([knots, knots[2]])).has_duplicates
        for offset, flagged in ((1e-12, True), (1e-6, False)):
            near = knots[2] + offset * np.array([1.0, -1.0, 0.5, 0.0, 1.0])
            assert KnotSet(np.vstack([knots, near])).has_duplicates is flagged

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_coincidence_mask_matches_the_broadcast_form(self, d):
        # pairs at the tolerance and just past it, in one coordinate or in all
        rng = np.random.default_rng(d)
        b = rng.standard_normal((12, d))
        tol = sparse_gp.COINCIDENCE_TOL
        shifts = []
        for size in (0.0, tol, np.nextafter(tol, 1.0), 2.0 * tol, 1e-6):
            for axis in range(d):
                shift = np.zeros(d)
                shift[axis] = size
                shifts.append(shift)
            shifts.append(np.full(d, size))
        rows = rng.integers(0, 12, len(shifts))
        a = np.vstack([b[rows] + np.array(shifts) * rng.choice([-1.0, 1.0], (len(rows), d)),
                       rng.standard_normal((20, d)), b[:1]])
        broadcast = (np.abs(a[:, None, :] - b[None, :, :]) <= tol).all(axis=2)
        hits = broadcast[:len(rows)].any(axis=1)
        assert hits.any() and not hits.all()
        np.testing.assert_array_equal(sparse_gp._coincident(a, b), broadcast)
        assert not KnotSet(b).has_duplicates
        for row, hit in zip(a, hits):
            assert KnotSet(np.vstack([b, row])).has_duplicates is bool(hit)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("levels", [1, 21])
    def test_coincidence_mask_with_a_coarse_first_coordinate(self, d, levels):
        # a constant first column, or one of 21 levels like Airfoil's
        # frequency, does not separate the rows; the mask must not change
        rng = np.random.default_rng(10 * d + levels)
        grid = np.linspace(0.0, 1.0, levels)
        b = rng.standard_normal((30, d))
        b[:, 0] = rng.choice(grid, 30)
        a = np.vstack([rng.standard_normal((40, d)), b[::3],
                       b[1::3] + sparse_gp.COINCIDENCE_TOL * rng.uniform(-0.5, 0.5, (10, d)),
                       b[2::3] + 1e-6])
        a[:, 0] = np.concatenate([rng.choice(grid, 40), a[40:, 0]])
        broadcast = (np.abs(a[:, None, :] - b[None, :, :]) <= sparse_gp.COINCIDENCE_TOL).all(axis=2)
        assert broadcast.any() and not broadcast.all()
        np.testing.assert_array_equal(sparse_gp._coincident(a, b), broadcast)

    def test_dic_and_fitc_cannot_fit(self):
        x, y = np.zeros((3, 1)), np.zeros(3)
        p = KernelParams(1.0, 1.0, 0.1)
        for approx in (Approximation.DIC, Approximation.FITC):
            with pytest.raises(ValueError):
                fit_sparse(approx, x, y, p, [[0.0]])


class TestPsi:
    def test_saturation_diag_equals_prior(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 2))
        p = KernelParams(1.4, 1.0, 0.1, latent_jitter=1e-12)
        diag = psi_diag(x, x, p)
        np.testing.assert_allclose(diag, 1.4, rtol=1e-7)

    def test_single_knot_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 1))
        knot = np.array([[0.3]])
        p = KernelParams(1.2, 0.8, 0.1, latent_jitter=1e-6)
        diag = psi_diag(x, knot, p)
        from knotgp import kernel_eval

        expected = np.array([
            kernel_eval(row, knot[0], p) ** 2 / (1.2 + p.latent_jitter) for row in x
        ])
        np.testing.assert_allclose(diag, expected, rtol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 2))
        knots = rng.standard_normal((3, 2))
        p = KernelParams(1.0, 0.9, 0.1)
        v, _ = psi_cross(x, knots, p)
        np.testing.assert_allclose(v.T @ v, dense_psi(x, x, knots, p), atol=1e-10)
        np.testing.assert_allclose(psi_diag(x, knots, p),
                                   np.diag(dense_psi(x, x, knots, p)), atol=1e-10)

    def test_diag_never_exceeds_prior_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, _, knots, p = random_instance(rng, 15, 4, 2)
            diag = psi_diag(x, knots, p)
            assert np.all(diag <= p.signal_variance + p.latent_jitter + 1e-10)


class TestElbo:
    def test_saturation_matches_full_likelihood(self):
        rng = np.random.default_rng(4)
        x = 1.5 * rng.standard_normal((12, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(12)
        p = KernelParams(1.0, 1.0, 0.2, latent_jitter=1e-10)
        model = fit_sparse(Approximation.DTC, x, y, p, x.copy())
        full = log_marginal_likelihood(fit_full(x, y, p))
        assert elbo(model) == pytest.approx(full, abs=1e-6)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y, knots, p = random_instance(rng, 15, 4, 2, jitter_ratio=1e-10)
            model = fit_sparse(Approximation.DTC, x, y, p, knots)
            full = log_marginal_likelihood(fit_full(x, y, p))
            assert elbo(model) <= full + 1e-8

    def test_monotone_in_knot_addition(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y, knots, p = random_instance(rng, 12, 3, 2, jitter_ratio=1e-10)
            new_knot = 1.5 * rng.standard_normal((1, 2))
            before = elbo(fit_sparse(Approximation.DTC, x, y, p, knots))
            after = elbo(fit_sparse(Approximation.DTC, x, y, p,
                                    np.vstack([knots, new_knot])))
            assert after >= before - 1e-8

    def test_wrong_tag_raises(self):
        x, y = np.zeros((3, 1)), np.zeros(3)
        p = KernelParams(1.0, 1.0, 0.1)
        fic = fit_sparse(Approximation.FIC, x, y, p, [[0.5]])
        with pytest.raises(RuntimeError):
            elbo(fic)
        dtc = fit_sparse(Approximation.DTC, x, y, p, [[0.5]])
        with pytest.raises(RuntimeError):
            fic_log_marginal(dtc)

    def test_added_knot_must_match_input_width(self):
        x = np.random.default_rng(3).standard_normal((8, 2))
        model = fit_sparse(Approximation.DTC, x, np.zeros(8), KernelParams(1.0, 1.0, 0.1), x[:2])
        with pytest.raises(ValueError,
                           match=r"^knot dimension 1 does not match input dimension 2$"):
            model.objective_with_added_knot([0.1])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for n in range(4, 11):
            x, y, knots, p = random_instance(rng, n, 3, 2)
            model = fit_sparse(Approximation.DTC, x, y, p, knots)
            dense = dense_elbo(x, y, knots, p)
            assert elbo(model) == pytest.approx(dense, rel=1e-8)


def _rebuilt_objective(model, location):
    """What appending ``location`` scores by a fresh build: the objective, or
    the ``NumericalError`` the build raises."""
    knots = np.vstack([model.knots.locations, location])
    try:
        return SparseGPModel(model.approx, model.x, model.y, model.params, knots,
                             model.mean_constant).objective()
    except NumericalError as err:
        return err


def _bordered_cond(knots, location, params):
    u = np.vstack([knots, location])
    return np.linalg.cond(se_kernel_matrix(u, u, params)
                          + params.latent_jitter * np.eye(len(u)))


class TestRankOneGain:
    """``objective_with_added_knot`` on DTC models adds the exact rank-one gain
    to the model's objective; the rebuild is its oracle and its fallback."""

    def test_matches_rebuild_on_random_instances(self):
        rng = np.random.default_rng(40)
        checked = 0
        for _ in range(60):
            n, k, d = int(rng.integers(4, 30)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
            x, y, knots, p = random_instance(rng, n, k, d,
                                             jitter_ratio=float(rng.choice([1e-8, 1e-6, 1e-3])))
            model = SparseGPModel(Approximation.DTC, x, y, p, knots, float(rng.normal()))
            for location in np.vstack([1.5 * rng.standard_normal((3, d)), x[:2]]):
                if _bordered_cond(knots, location, p) > 1e6:
                    continue
                assert np.isfinite(model._added_knot_gains(location[None])[0])
                fresh = _rebuilt_objective(model, location)
                assert abs(model.objective_with_added_knot(location) - fresh) \
                    <= 1e-10 * (abs(fresh) + 1.0)
                checked += 1
        assert checked >= 200

    def test_blocks_agree_with_single_rows(self, monkeypatch):
        rng = np.random.default_rng(41)
        x, y, knots, p = random_instance(rng, 40, 5, 3)
        model = SparseGPModel(Approximation.DTC, x, y, p, knots)
        pool = np.vstack([x[:6], 1.5 * rng.standard_normal((4, 3))])
        singles = np.array([model._added_knot_gains(row[None])[0] for row in pool])
        monkeypatch.setattr(sparse_gp, "GAIN_CHUNK", 3)       # blocks of 3, 3, 3 and 1
        np.testing.assert_allclose(model._added_knot_gains(pool), singles, rtol=1e-12)

    def test_near_duplicates_against_mp_elbo(self):
        # both paths round the bordered pivot delta2 ~ jitter alike, so which
        # one lands nearer the 50-digit value varies from case to case
        rng = np.random.default_rng(32)
        fast, rebuilt = [], []
        for trial in range(8):
            for jitter_ratio in (1e-9, 1e-8, 1e-6):
                x, y, knots, p = random_instance(rng, 10, 4, 2, jitter_ratio=jitter_ratio)
                model = SparseGPModel(Approximation.DTC, x, y, p, knots)
                for offset in (0.0, 1e-7):
                    location = knots[trial % 4] + offset * rng.standard_normal(2)
                    assert np.isfinite(model._added_knot_gains(location[None])[0])
                    exact = mp_elbo(x, y, np.vstack([knots, location]), p)
                    scale = abs(exact) + 1.0
                    fast.append(abs(model.objective_with_added_knot(location) - exact) / scale)
                    rebuilt.append(abs(_rebuilt_objective(model, location) - exact) / scale)
        assert max(fast) <= 1e-10
        assert max(fast) <= 3.0 * max(rebuilt)

    @staticmethod
    def _assert_rebuilds(monkeypatch, model, locations, rank_one_runs=False):
        """Each location scores the rebuild's value, bit for bit, or raises its
        ``NumericalError``, from exactly one build; the rank-one pass runs
        only if ``rank_one_runs``."""
        expected = [_rebuilt_objective(model, location) for location in locations]
        builds = []
        build = SparseGPModel._build

        def counted_build(self):
            builds.append(len(self.knots))
            return build(self)

        def no_rank_one(self, locations):
            raise AssertionError("the rank-one pass ran")

        monkeypatch.setattr(SparseGPModel, "_build", counted_build)
        if not rank_one_runs:
            monkeypatch.setattr(SparseGPModel, "_added_knot_gains", no_rank_one)
        for location, rebuilt in zip(locations, expected):
            builds.clear()
            if isinstance(rebuilt, NumericalError):
                with pytest.raises(NumericalError, match=str(rebuilt)):
                    model.objective_with_added_knot(location)
            else:
                value = model.objective_with_added_knot(location)
                assert np.float64(value).tobytes() == np.float64(rebuilt).tobytes()
            assert builds == [model.n_knots + 1]

    def test_ridge_fired_model_rebuilds(self, monkeypatch):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((20, 2))
        # an exact duplicate at zero jitter and s2 = 1 leaves a zero pivot
        model = SparseGPModel(Approximation.DTC, x, rng.standard_normal(20),
                              KernelParams(1.0, 1.0, 0.1, latent_jitter=0.0),
                              np.vstack([x[0], x[0], x[5]]))
        assert model.diagnostics["near_singular_factorizations"] > 0
        self._assert_rebuilds(monkeypatch, model, [x[7], x[5]])

    def test_zero_jitter_candidate_on_a_knot_rebuilds(self, monkeypatch):
        rng = np.random.default_rng(43)
        x, y, knots, p = random_instance(rng, 20, 4, 2, jitter_ratio=0.0)
        model = SparseGPModel(Approximation.DTC, x, y, p, knots)
        assert not model.diagnostics
        assert np.isnan(model._added_knot_gains(knots)).all()
        self._assert_rebuilds(monkeypatch, model, knots, rank_one_runs=True)

    def test_fic_rebuilds(self, monkeypatch):
        rng = np.random.default_rng(44)
        x, y, knots, p = random_instance(rng, 25, 3, 2)
        model = SparseGPModel(Approximation.FIC, x, y, p, knots, 0.2)
        self._assert_rebuilds(monkeypatch, model, [x[3], 1.5 * rng.standard_normal(2)])


class TestElboGrad:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(8)
        x, y, knots, p = random_instance(rng, 20, 4, 2)
        model = fit_sparse(Approximation.DTC, x, y, p, knots)
        _, grad = elbo_grad(model, active_knot_index=2)

        def objective(vec):
            kn = knots.copy()
            kn[2] = vec[3:]
            return elbo(fit_sparse(Approximation.DTC, x, y,
                                   p.with_log_vector(vec[:3]), kn))

        point = np.concatenate([p.log_vector(), knots[2]])
        fd = central_difference(objective, point, step=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_all_knots_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x, y, knots, p = random_instance(rng, 10, 3, 2)
        model = fit_sparse(Approximation.DTC, x, y, p, knots)
        _, grad = elbo_grad(model, all_knots=True)
        assert grad.size == 3 + knots.size

        def objective(vec):
            return elbo(fit_sparse(Approximation.DTC, x, y,
                                   p.with_log_vector(vec[:3]),
                                   vec[3:].reshape(knots.shape)))

        point = np.concatenate([p.log_vector(), knots.reshape(-1)])
        fd = central_difference(objective, point, step=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_finite_gradient_with_duplicate_and_coincident_knots(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        # one knot on a data point, plus an exact duplicate pair
        knots = np.vstack([x[0], x[3], x[3]])
        p = KernelParams(1.0, 1.0, 0.1, latent_jitter=1e-6)
        model = fit_sparse(Approximation.DTC, x, y, p, knots)
        value, grad = elbo_grad(model, active_knot_index=2)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_trace_term_noise_gradient_sign(self):
        # the subtracted penalty contributes +Tr(Sigma - Psi)/(2 tau2) to the
        # log-tau2 direction; isolate it against the log-density part
        rng = np.random.default_rng(11)
        x, y, knots, p = random_instance(rng, 10, 3, 2)
        model = fit_sparse(Approximation.DTC, x, y, p, knots)
        _, grad = elbo_grad(model)

        def log_density_only(vec):
            return fit_sparse(Approximation.DTC, x, y, p.with_log_vector(vec),
                              knots)._log_density()

        fd_density = central_difference(log_density_only, p.log_vector(), step=1e-6)
        penalty_direction = grad[2] - fd_density[2]
        assert penalty_direction == pytest.approx(model.trace_penalty(), rel=1e-4)

    def test_knot_index_out_of_range(self):
        x, y = np.zeros((3, 1)), np.zeros(3)
        p = KernelParams(1.0, 1.0, 0.1)
        model = fit_sparse(Approximation.DTC, x, y, p, [[0.5]])
        with pytest.raises(IndexError):
            elbo_grad(model, active_knot_index=3)


class TestDenseOracleGradient:
    """The DTC value and adjoint gradient (parameters, one knot, all knots)
    against a reference value and gradient: central differences of the dense
    oracle where ``Suu`` is well conditioned, a 50-digit evaluation where it
    is not."""

    @staticmethod
    def _dense_reference(x, y, knots, p, step):
        def dense(vec):
            return dense_elbo(x, y, vec[3:].reshape(knots.shape),
                              p.with_log_vector(vec[:3]))

        point = np.concatenate([p.log_vector(), knots.reshape(-1)])
        return dense_elbo(x, y, knots, p), central_difference(dense, point, step=step)

    @staticmethod
    def _errors(x, y, knots, p, reference, active):
        value, grad = reference
        model = fit_sparse(Approximation.DTC, x, y, p, knots)
        d = knots.shape[1]
        grad_one = np.concatenate([grad[:3], grad[3 + active * d:3 + (active + 1) * d]])

        def rel(got, ref):
            return np.max(np.abs(got - ref)) / (np.max(np.abs(ref)) + 1.0)

        return {
            "value": abs(elbo(model) - value) / abs(value),
            "params": rel(elbo_grad(model)[1], grad[:3]),
            "one knot": rel(elbo_grad(model, active_knot_index=active)[1], grad_one),
            "all knots": rel(elbo_grad(model, all_knots=True)[1], grad),
        }

    def test_well_conditioned(self):
        rng = np.random.default_rng(31)
        tolerances = {"value": 1e-12, "params": 1e-9, "one knot": 1e-9, "all knots": 1e-9}
        for _ in range(5):
            x, y, knots, p = random_instance(rng, 12, 3, 2)
            errors = self._errors(x, y, knots, p, self._dense_reference(x, y, knots, p, 1e-5),
                                  1)
            for key, tol in tolerances.items():
                assert errors[key] <= tol, (key, errors)

    def test_near_duplicate_knots(self):
        # At cond(Suu) >= 1e8 the float64 dense oracle's own round-off
        # (explicit Suu^{-1}, amplified by finite differences) exceeds the
        # model's error, so the reference is a 50-digit evaluation. The
        # tolerances are what this code reaches on these cases (at most 5.1e-10,
        # 7.2e-10, 4.8e-8, 4.8e-8); taking Suu^{-1} explicitly in the adjoint
        # gradient, for g or for L^{-T} E, raises the parameter error to
        # 1.2e-9 or 3.0e-9.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        tolerances = {"value": 1e-9, "params": 8e-10, "one knot": 5e-8, "all knots": 5e-8}
        for _ in range(5):
            x, y, knots, p = random_instance(rng, 12, 4, 2)
            direction = rng.standard_normal(2)
            knots[3] = knots[0] + 1e-4 * p.lengthscale * direction / np.linalg.norm(direction)
            suu = se_kernel_matrix(knots, knots, p) + p.latent_jitter * np.eye(4)
            assert np.linalg.cond(suu) >= 1e8
            reference = mp_elbo(x, y, knots, p, with_grad=True)
            errors = self._errors(x, y, knots, p, reference, 3)
            for key, tol in tolerances.items():
                assert errors[key] <= tol, (key, errors)

    def test_every_request_near_duplicate_against_mp_elbo(self):
        # a knot 1e-7 lengthscales from another at the default jitter ratio
        # (cond(Suu) >= 1e6): the no-knot, one-knot and all-knot gradients
        # against a 50-digit evaluation. This code reaches 2.6e-11 to 1.2e-10
        # with a knot free and about 1e-15 on the parameters alone.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(33)
        for _ in range(3):
            x, y, knots, p = random_instance(rng, 12, 4, 2, jitter_ratio=1e-6)
            direction = rng.standard_normal(2)
            knots[3] = knots[0] + 1e-7 * p.lengthscale * direction / np.linalg.norm(direction)
            suu = se_kernel_matrix(knots, knots, p) + p.latent_jitter * np.eye(4)
            assert np.linalg.cond(suu) >= 1e6
            errors = self._errors(x, y, knots, p, mp_elbo(x, y, knots, p, with_grad=True), 3)
            for key in ("params", "one knot", "all knots"):
                assert errors[key] <= 3e-10, (key, errors)


def _gradient_case(rng, case):
    """(x, y, knots, params) for one of the regimes in which the all-knot
    gradient is checked against the no-knot and one-knot ones."""
    x, y, knots, p = random_instance(rng, 30, 6, 2, jitter_ratio=1e-6)
    if case == "near-duplicate knots":
        knots[5] = knots[0] + 1e-6
    elif case == "short lengthscale":
        # knots among the inputs, so that S is not zero to round-off
        knots = x[:6] + 0.02 * rng.standard_normal((6, 2))
        p = KernelParams(p.signal_variance, 0.05, p.noise_variance)
    elif case == "large s2 and lengthscale":
        p = KernelParams(17.0, 11.0, 0.05)
    return x, y, knots, p


class TestAllKnotGradient:
    """Every free-knot request reads its gradient off the same K x N adjoint
    of ``S``: the parameter derivatives agree to the bit, and the knot steps
    to round-off, since a one-row and a K-row product sum in different
    orders."""

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("case", ["random", "near-duplicate knots", "short lengthscale",
                                      "large s2 and lengthscale"])
    def test_matches_no_knot_and_one_knot_gradients(self, approx, case):
        rng = np.random.default_rng(41)
        for _ in range(3):
            x, y, knots, p = _gradient_case(rng, case)
            model = fit_sparse(approx, x, y, p, knots)
            value, grad = model.objective_grad(all_knots=True)
            tol = 1e-12 * np.max(np.abs(grad))
            no_knot_value, no_knot = model.objective_grad()
            assert value == no_knot_value and no_knot.shape == (3,)
            np.testing.assert_array_equal(grad[:3], no_knot)
            d = knots.shape[1]
            for i in range(len(knots)):
                one_knot = model.objective_grad(active_knot_index=i)[1]
                np.testing.assert_array_equal(one_knot[:3], no_knot)
                np.testing.assert_allclose(grad[3 + i * d:3 + (i + 1) * d], one_knot[3:],
                                           rtol=0.0, atol=tol)


class TestFicLogMarginal:
    def test_saturation_matches_full_likelihood(self):
        rng = np.random.default_rng(12)
        x = 1.5 * rng.standard_normal((10, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(10)
        p = KernelParams(1.0, 1.0, 0.2, latent_jitter=1e-10)
        model = fit_sparse(Approximation.FIC, x, y, p, x.copy())
        full = log_marginal_likelihood(fit_full(x, y, p))
        assert fic_log_marginal(model) == pytest.approx(full, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for n in range(4, 11):
            x, y, knots, p = random_instance(rng, n, 2, 2)
            model = fit_sparse(Approximation.FIC, x, y, p, knots)
            dense = dense_fic_log_marginal(x, y, knots, p)
            assert fic_log_marginal(model) == pytest.approx(dense, rel=1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        x, y, knots, p = random_instance(rng, 15, 4, 2)
        model = fit_sparse(Approximation.FIC, x, y, p, knots)
        _, grad = fic_log_marginal(model, with_grad=True, active_knot_index=1)

        def objective(vec):
            kn = knots.copy()
            kn[1] = vec[3:]
            return fit_sparse(Approximation.FIC, x, y, p.with_log_vector(vec[:3]),
                              kn).fic_log_marginal()

        point = np.concatenate([p.log_vector(), knots[1]])
        fd = central_difference(objective, point, step=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


class TestPredictSparse:
    def test_saturation_matches_full_predictive(self):
        rng = np.random.default_rng(15)
        x = 1.5 * rng.standard_normal((12, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(12)
        xt = 1.5 * rng.standard_normal((6, 2))
        p = KernelParams(1.0, 1.0, 0.2, latent_jitter=1e-10)
        sparse = predict_sparse(fit_sparse(Approximation.DTC, x, y, p, x.copy()), xt)
        full = predict_full(fit_full(x, y, p), xt)
        np.testing.assert_allclose(sparse.latent_mean, full.latent_mean, atol=1e-6)
        np.testing.assert_allclose(sparse.latent_variance, full.latent_variance,
                                   atol=1e-6)

    def test_prior_reversion_far_from_everything(self):
        p = KernelParams(1.6, 1.0, 0.2)
        model = fit_sparse(Approximation.DTC, [[0.0], [1.0]], [0.5, -0.5], p,
                           [[0.4]], mean_constant=0.25)
        pred = predict_sparse(model, [[800.0]])
        assert pred.latent_mean[0] == pytest.approx(0.25, abs=1e-12)
        assert pred.latent_variance[0] == pytest.approx(1.6 + p.latent_jitter,
                                                        rel=1e-10)

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_matches_dense_moments_oracle(self, approx):
        rng = np.random.default_rng(16)
        for n in range(4, 11):
            x, y, knots, p = random_instance(rng, n, 3, 2)
            xt = 1.5 * rng.standard_normal((5, 2))
            pred = predict_sparse(fit_sparse(approx, x, y, p, knots), xt)
            mean, var = dense_predict(approx.value, x, y, knots, xt, p)
            np.testing.assert_allclose(pred.latent_mean, mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(pred.latent_variance, var, rtol=1e-8,
                                       atol=1e-10)
            np.testing.assert_allclose(pred.noisy_variance,
                                       pred.latent_variance + p.noise_variance)

    def test_dtc_variance_dominates_dic_variance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x, y, knots, p = random_instance(rng, 10, 3, 2)
            xt = 1.5 * rng.standard_normal((6, 2))
            dtc = predict_sparse(fit_sparse(Approximation.DTC, x, y, p, knots), xt)
            _, dic_var = dense_predict("dic", x, y, knots, xt, p)
            assert np.all(dtc.latent_variance >= dic_var - 1e-10)

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0, 0.1)
        model = fit_sparse(Approximation.DTC, np.zeros((3, 2)), np.zeros(3), p,
                           [[0.0, 0.0]])
        with pytest.raises(ValueError):
            predict_sparse(model, np.zeros((2, 3)))

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("case", ["well conditioned", "near-duplicate knots",
                                      "small noise"])
    def test_matches_mp_predict(self, approx, case):
        rng = np.random.default_rng(43)
        x, y, knots, p = random_instance(rng, 10, 4, 2)
        if case == "near-duplicate knots":
            knots = np.vstack([knots, knots[1] + 1e-7 * rng.standard_normal(2)])
        elif case == "small noise":
            # knots on data rows give B~ eigenvalues near 1 / tau2, a knot far
            # from the data one near 1
            knots = np.vstack([x[:4], [6.0, 0.0]])
            p = KernelParams(p.signal_variance, p.lengthscale, 1e-4,
                             latent_jitter=p.latent_jitter)
        model = fit_sparse(approx, x, y, p, knots)
        assert not model.diagnostics
        if case == "near-duplicate knots":
            assert np.linalg.cond(model._luu @ model._luu.T) >= 1e8
        elif case == "small noise":
            assert np.linalg.cond(model._lb @ model._lb.T) >= 1e4
        xt = np.vstack([1.5 * rng.standard_normal((5, 2)), knots + 1e-3])
        pred = model.predict(xt)
        mean, var = mp_predict(approx.value, x, y, knots, xt, p)
        tol = 1e-12 * (p.signal_variance + p.latent_jitter)
        assert np.max(np.abs(pred.latent_mean - mean)) <= tol
        assert np.max(np.abs(pred.latent_variance - var)) <= tol
        if case == "well conditioned":
            # the float64 oracle confirms the 50-digit one where it can
            dense_mean, dense_var = dense_predict(approx.value, x, y, knots, xt, p)
            np.testing.assert_allclose(dense_mean, mean, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(dense_var, var, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("case", ["five near-duplicate knots", "long lengthscale"])
    def test_ill_conditioned_matches_mp_predict(self, approx, case):
        if case == "five near-duplicate knots":
            # at the default jitter ratio; the unfactored variance form
            # k^T L^{-T} (I - B~^{-1}) L^{-1} k misses the oracle here by 2e-12
            rng = np.random.default_rng(7)
            x, y, knots, p = random_instance(rng, 20, 20, 2, jitter_ratio=1e-6)
            knots = np.vstack([knots, knots[:5] + 1e-5 * rng.standard_normal((5, 2))])
            xt = np.vstack([1.5 * rng.standard_normal((5, 2)), knots[:5] + 1e-3,
                            knots[20:] + 1e-3])
        else:
            # Airfoil-scale inputs under a large s2 and lengthscale: a float64
            # solve of the unwhitened Suu + S S^T / tau2 misses this DTC mean
            # by 5e-8, and the unfactored variance form misses by 1.8e-11
            rng = np.random.default_rng(52)
            x = rng.standard_normal((60, 5))
            y = (np.sin(x[:, 0]) + 0.6 * np.cos(1.3 * x[:, 1]) + 0.3 * x[:, 2]
                 + 0.25 * rng.standard_normal(60))
            y = (y - y.mean()) / y.std()
            knots = x[rng.choice(60, 12, replace=False)]
            xt = rng.standard_normal((8, 5))
            p = KernelParams(17.3, 11.1, 0.05)
        model = fit_sparse(approx, x, y, p, knots)
        assert not model.diagnostics
        if case == "five near-duplicate knots":
            assert np.linalg.cond(model._luu @ model._luu.T) >= 1e7
        pred = model.predict(xt)
        mean, var = mp_predict(approx.value, x, y, knots, xt, p)
        tol = 1e-12 * (p.signal_variance + p.latent_jitter)
        assert np.max(np.abs(pred.latent_mean - mean)) <= tol
        assert np.max(np.abs(pred.latent_variance - var)) <= tol

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_rows_on_knots_and_data_at_short_lengthscale(self, approx):
        # the exponent's cancellation error grows as eps |t / ell|^2, as the
        # squared distances' does: coordinates a few lengthscales across keep
        # it under the tolerance (FOUND in CHANGES.md for wider ones)
        rng = np.random.default_rng(53)
        x, y, knots, p = random_instance(rng, 10, 4, 3, spread=0.05)
        p = KernelParams(p.signal_variance, 1e-2, p.noise_variance,
                         latent_jitter=p.latent_jitter)
        knots = np.vstack([knots, x[:2]])
        model = fit_sparse(approx, x, y, p, knots)
        assert not model.diagnostics
        xt = np.vstack([knots, x])
        knot_rows, _, _ = model._predictor
        test_columns = _exponent_columns(xt, p.lengthscale)
        assert (knot_rows @ test_columns).max() > 0.0    # round-off the clamp removes
        kmat = p.signal_variance * _unit_kernel(knot_rows, test_columns)
        assert kmat.max() == p.signal_variance
        assert kmat.min() < 1e-3 * p.signal_variance     # the knots are apart
        pred = model.predict(xt)
        mean, var = mp_predict(approx.value, x, y, knots, xt, p)
        tol = 1e-12 * (p.signal_variance + p.latent_jitter)
        assert np.max(np.abs(pred.latent_mean - mean)) <= tol
        assert np.max(np.abs(pred.latent_variance - var)) <= tol

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_kernel_underflows_far_away(self, approx):
        rng = np.random.default_rng(54)
        x, y, knots, p = random_instance(rng, 10, 4, 2)
        model = fit_sparse(approx, x, y, p, knots, mean_constant=0.3)
        direction = rng.standard_normal((3, 2))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        xt = knots[:3] + 1e3 * p.lengthscale * direction
        xt[0] = -1e3 * p.lengthscale                     # far from every knot
        pred = model.predict(xt)
        np.testing.assert_array_equal(pred.latent_mean, 0.3)
        np.testing.assert_array_equal(pred.latent_variance,
                                      p.signal_variance + p.latent_jitter)
        mean, var = mp_predict(approx.value, x, y, knots, xt, p, mean_constant=0.3)
        tol = 1e-12 * (p.signal_variance + p.latent_jitter)
        assert np.max(np.abs(pred.latent_mean - mean)) <= tol
        assert np.max(np.abs(pred.latent_variance - var)) <= tol

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_chunks_concatenate_bitwise(self, approx):
        # split at a multiple of the 1,024-row chunks the benchmark serves in;
        # a split at an odd row can move the last bit through the remainder
        # paths of the BLAS kernels, in this predict as in the one before it
        rng = np.random.default_rng(44)
        x, y, knots, p = random_instance(rng, 40, 12, 3)
        model = fit_sparse(approx, x, y, p, knots)
        xt = 1.5 * rng.standard_normal((2048, 3))
        whole = model.predict(xt)
        first, second = model.predict(xt[:1024]), model.predict(xt[1024:])
        for name in ("latent_mean", "latent_variance", "noisy_variance"):
            joined = np.concatenate([getattr(first, name), getattr(second, name)])
            assert joined.tobytes() == getattr(whole, name).tobytes()


class TestBInverseCache:
    """``B~^{-1}`` is formed lazily, once per model, and shared read-only by
    the gradient and prediction; the prediction operands, the knot block, the
    mean weights and the triangular factor, are formed lazily, once per
    model, by prediction alone."""

    @staticmethod
    def _counted(monkeypatch, name="_b_inverse"):
        formed = []
        original = SparseGPModel.__dict__[name].func

        def counted(model):
            formed.append(model)
            return original(model)

        cached = functools.cached_property(counted)
        cached.__set_name__(SparseGPModel, name)
        monkeypatch.setattr(SparseGPModel, name, cached)
        return formed

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_objective_never_forms_it(self, monkeypatch, approx):
        formed = self._counted(monkeypatch)
        x, y, knots, p = random_instance(np.random.default_rng(45), 12, 4, 2)
        model = SparseGPModel(approx, x, y, p, knots)
        model.objective()
        objective_with_grad, init, model_at = model._ascent(active_knot_index=0)
        model_at(init).objective()
        assert formed == []
        objective_with_grad(init)
        assert len(formed) == 1 and formed[0] is not model

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_formed_once_and_shared(self, monkeypatch, approx):
        formed = self._counted(monkeypatch)
        x, y, knots, p = random_instance(np.random.default_rng(46), 12, 4, 2)
        model = SparseGPModel(approx, x, y, p, knots)
        xt = np.random.default_rng(47).standard_normal((7, 2))
        first = model.predict(xt)
        second = model.predict(xt)
        model.objective_grad(all_knots=True)
        assert formed == [model]
        assert first.latent_variance.tobytes() == second.latent_variance.tobytes()

    def test_read_only(self):
        x, y, knots, p = random_instance(np.random.default_rng(48), 12, 4, 2)
        model = SparseGPModel(Approximation.DTC, x, y, p, knots)
        binv = model._b_inverse
        assert binv is model._b_inverse
        assert not binv.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            binv[0, 0] = 0.0

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_objective_and_gradient_never_form_the_prediction_factor(self, monkeypatch,
                                                                     approx):
        formed = self._counted(monkeypatch, "_predictor")
        x, y, knots, p = random_instance(np.random.default_rng(49), 12, 4, 2)
        model = SparseGPModel(approx, x, y, p, knots)
        model.objective()
        model.objective_grad(all_knots=True)
        objective_with_grad, init, model_at = model._ascent(active_knot_index=0)
        objective_with_grad(init)
        model_at(init).objective()
        assert formed == []

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    def test_prediction_factor_formed_once(self, monkeypatch, approx):
        formed = self._counted(monkeypatch, "_predictor")
        x, y, knots, p = random_instance(np.random.default_rng(50), 12, 4, 2)
        model = SparseGPModel(approx, x, y, p, knots)
        xt = np.random.default_rng(51).standard_normal((7, 2))
        first = model.predict(xt)
        second = model.predict(xt)
        model.objective_grad(all_knots=True)
        assert formed == [model]
        assert first.latent_mean.tobytes() == second.latent_mean.tobytes()
        assert first.latent_variance.tobytes() == second.latent_variance.tobytes()

    def test_prediction_factor_read_only(self):
        x, y, knots, p = random_instance(np.random.default_rng(52), 12, 4, 2)
        model = SparseGPModel(Approximation.DTC, x, y, p, knots)
        operands = model._predictor
        assert operands is model._predictor
        knot_rows, weights, factor = operands
        assert knot_rows.shape == (4, 4) and weights.shape == (4,) and factor.shape == (4, 4)
        assert factor.flags.f_contiguous
        for operand in operands:
            assert not operand.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                operand[(0,) * operand.ndim] = 0.0

    def test_knot_block_holds_the_scaled_knots(self):
        x, y, knots, p = random_instance(np.random.default_rng(55), 12, 4, 2)
        model = SparseGPModel(Approximation.FIC, x, y, p, knots)
        knot_rows, _, _ = model._predictor
        scaled = knots / p.lengthscale
        np.testing.assert_array_equal(knot_rows[:, :2], scaled)
        np.testing.assert_allclose(knot_rows[:, 2], -0.5 * (scaled ** 2).sum(axis=1),
                                   rtol=1e-15)
        np.testing.assert_array_equal(knot_rows[:, 3], 1.0)


def _eigen_factor(model):
    """The (K + 1, K) factor ``s2 [a^T; P]`` of the eigen form that the
    triangular factor replaced: ``a = L^{-T} c`` and
    ``P = diag(sqrt(max(1 - mu, 0))) W^T L^{-1}``."""
    mu, w = np.linalg.eigh(model._b_inverse)
    rhs = np.column_stack([model._c, w * np.sqrt(np.maximum(1.0 - mu, 0.0))])
    return model.params.signal_variance * tri_solve(model._luu, rhs, trans=True).T


class TestTriangularFactor:
    """The prediction's triangular factor ``R`` against the eigen form
    ``s2 P`` it is taken from, with one knot, with more knots than training
    rows (``P`` rank-deficient) and with 80 knots."""

    @staticmethod
    def _model(approx, n, k, d, seed):
        rng = np.random.default_rng(seed)
        x, y, knots, p = random_instance(rng, n, k, d)
        model = fit_sparse(approx, x, y, p, knots, mean_constant=0.2)
        assert not model.diagnostics
        return model, 1.5 * rng.standard_normal((300, d))

    CASES = {"one knot": (10, 1, 2, 56), "more knots than rows": (6, 10, 2, 57),
             "80 knots": (200, 80, 5, 58)}

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("case", list(CASES))
    def test_upper_triangular_and_squares_to_the_eigen_form(self, approx, case):
        model, _ = self._model(approx, *self.CASES[case])
        _, weights, factor = model._predictor
        eigen = _eigen_factor(model)
        assert factor.shape == (model.n_knots, model.n_knots)
        assert np.all(np.tril(factor, -1) == 0.0)
        np.testing.assert_array_equal(weights, eigen[0])
        gram = eigen[1:].T @ eigen[1:]
        np.testing.assert_allclose(factor.T @ factor, gram, rtol=0.0,
                                   atol=1e-13 * np.abs(gram).max())
        if case == "more knots than rows":
            # 1 - mu is round-off off the N directions of V's rows, and P's
            # singular values there are its square root, about 1e-8
            rank = np.linalg.matrix_rank(eigen[1:], tol=1e-6 * np.linalg.norm(eigen[1:], 2))
            assert rank == model.n_train

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("case", list(CASES))
    def test_predict_matches_the_eigen_product(self, approx, case):
        model, xt = self._model(approx, *self.CASES[case])
        p = model.params
        xt = np.vstack([xt, model.knots.locations, model.x])
        knot_rows, _, _ = model._predictor
        z = _eigen_factor(model) @ _unit_kernel(knot_rows, _exponent_columns(xt, p.lengthscale))
        prior = p.signal_variance + p.latent_jitter
        var = np.maximum(prior - np.einsum("kj,kj->j", z[1:], z[1:]), 0.0)
        pred = model.predict(xt)
        tol = 1e-13 * prior
        assert np.max(np.abs(pred.latent_mean - (model.mean_constant + z[0]))) <= tol
        assert np.max(np.abs(pred.latent_variance - var)) <= tol


class TestPriorVarianceReport:
    EXPECTED = {
        Approximation.DIC: dict(train_cov_match=False, train_var_match=False,
                                test_var_match=False, test_cov_match=False),
        Approximation.DTC: dict(train_cov_match=False, train_var_match=False,
                                test_var_match=True, test_cov_match=True),
        Approximation.FIC: dict(train_cov_match=False, train_var_match=True,
                                test_var_match=True, test_cov_match=False),
        Approximation.FITC: dict(train_cov_match=False, train_var_match=True,
                                 test_var_match=True, test_cov_match=True),
    }

    def test_reproduces_variance_matching_table(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            x = 1.5 * rng.standard_normal((8, 2))
            xt = 1.5 * rng.standard_normal((5, 2))
            knots = 1.5 * rng.standard_normal((3, 2))
            p = KernelParams(float(rng.uniform(0.5, 2.0)), 1.0, 0.1,
                             latent_jitter=1e-12)
            for approx, expected in self.EXPECTED.items():
                report = prior_variance_report(approx, x, xt, knots, p)
                assert report == expected, f"{approx} trial {trial}: {report}"

    def test_one_test_point_has_no_covariance_to_compare(self):
        # DIC matches nothing on five test points; one has no off-diagonal
        rng = np.random.default_rng(21)
        x, knots = rng.standard_normal((6, 2)), rng.standard_normal((3, 2))
        p = KernelParams(1.0, 1.0, 0.1)
        report = prior_variance_report(Approximation.DIC, x, x[:1] + 0.5, knots, p)
        assert report == dict(train_cov_match=False, train_var_match=False,
                              test_var_match=False, test_cov_match=True)

    def test_dic_saturation_all_match(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((5, 2))
        xt = rng.standard_normal((4, 2))
        knots = np.vstack([x, xt])
        p = KernelParams(1.0, 1.0, 0.1, latent_jitter=1e-13)
        report = prior_variance_report(Approximation.DIC, x, xt, knots, p)
        assert all(report.values())


class TestSpikePhenomenon:
    def test_duplicate_knot_gain_collapses_to_baseline(self):
        # the objective as a function of a sixth knot's location dips sharply
        # toward the five-knot baseline exactly at each existing knot, while
        # nearby locations gain substantially; the nugget keeps the duplicate
        # gain slightly positive
        rng = np.random.default_rng(20)
        n = 200
        x = np.sort(rng.uniform(0.0, 1.0, n)).reshape(-1, 1)
        f = np.sin(2 * np.pi * x[:, 0]) + 0.5 * np.cos(5 * np.pi * x[:, 0])
        y = f + 0.4 * rng.standard_normal(n)
        y = (y - y.mean()) / y.std()
        init = KernelParams(1.0, 0.2, 0.1, latent_jitter=1e-3)
        model, _ = simultaneous_optimize(x, y, init, kmeans_init(x, 5, 1), "vfe",
                                         OptimizerConfig(max_steps=400))
        base = model.objective()
        width = float(x.max() - x.min())
        for knot in model.knots.locations[:, 0]:
            at = model.objective_with_added_knot([knot]) - base
            plus = model.objective_with_added_knot([knot + 0.02 * width]) - base
            minus = model.objective_with_added_knot([knot - 0.02 * width]) - base
            assert at >= -1e-8                 # monotonicity survives the nugget
            assert at < 0.5 * min(plus, minus)  # the dip is sharp

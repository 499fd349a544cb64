import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest

import knotgp.selection as selection
from knotgp import common, full_gp, kernels, sparse_gp
from knotgp import (Approximation, KernelParams, OATConfig, SparseGPModel, fit_sparse,
                    kmeans_init, oat_select, propose_bo, propose_rs,
                    simultaneous_optimize)
from knotgp.adadelta import MaximizeResult, OptimizerConfig, maximize
from knotgp.common import NumericalError


def _toy_1d(n=120, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n).reshape(-1, 1)
    y = np.sin(2 * np.pi * x[:, 0]) + noise * rng.standard_normal(n)
    return x, (y - y.mean()) / y.std()


def _toy_model(x, y, knots, approx=Approximation.DTC):
    return fit_sparse(approx, x, y, KernelParams(1.0, 0.25, 0.1), knots)


def _spy_scores(monkeypatch) -> list:
    """The locations every later ``objective_with_added_knot`` call scores."""
    scored = []
    original = SparseGPModel.objective_with_added_knot

    def spy(self, location):
        scored.append(np.array(location))
        return original(self, location)

    monkeypatch.setattr(SparseGPModel, "objective_with_added_knot", spy)
    return scored


@pytest.mark.parametrize("overrides, message", [
    (dict(initial_knot_count=0), "initial_knot_count must be at least 1"),
    (dict(initial_knot_count=5, max_knots=4), "max_knots must be at least initial_knot_count"),
    (dict(proposal="grid"), "proposal must be 'bo' or 'rs', got 'grid'"),
    (dict(objective="elbo"), "objective must be 'vfe' or 'fic', got 'elbo'"),
    (dict(improvement_tol=0.0), "improvement_tol must be positive"),
    (dict(rs_subset_size=0), "rs_subset_size must be at least 1"),
    (dict(bo_budget=10, bo_initial_design=10), "require 0 < bo_initial_design < bo_budget"),
], ids=["initial_knot_count", "max_knots", "proposal", "objective", "improvement_tol",
        "rs_subset_size", "bo_initial_design"])
def test_oat_config_rejects(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OATConfig(**overrides)


class TestKmeansInit:
    def test_all_points_as_centers(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 2))
        centers = kmeans_init(x, 8, seed=1)
        assert centers.shape == (8, 2)
        np.testing.assert_allclose(np.sort(centers, axis=0), np.sort(x, axis=0))

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        blob_a = rng.standard_normal((30, 2)) * 0.5
        blob_b = rng.standard_normal((30, 2)) * 0.5 + 10.0
        x = np.vstack([blob_a, blob_b])
        centers = kmeans_init(x, 2, seed=3)
        dists = np.linalg.norm(centers[:, None, :] - np.array([[0.0, 0.0], [10.0, 10.0]]),
                               axis=2)
        assert sorted(np.argmin(dists, axis=1)) == [0, 1]
        assert np.all(np.min(dists, axis=1) < 2.0)

    def test_single_cluster_is_column_means(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((25, 3))
        centers = kmeans_init(x, 1, seed=0)
        np.testing.assert_allclose(centers[0], x.mean(axis=0), rtol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 2))
        np.testing.assert_array_equal(kmeans_init(x, 5, seed=7),
                                      kmeans_init(x, 5, seed=7))

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans_init(np.zeros((3, 1)), 4, seed=0)


class TestProposeRs:
    def test_subset_of_one_returns_the_sampled_candidate(self):
        x, y = _toy_1d()
        model = _toy_model(x, y, np.array([[0.2], [0.8]]))
        rng = np.random.default_rng(11)
        expected = x[rng.choice(x.shape[0], size=1, replace=False)[0]]
        picked = propose_rs(model, x, subset_size=1, seed=11)
        np.testing.assert_allclose(picked, expected)

    def test_full_subset_returns_global_argmax(self):
        x, y = _toy_1d(n=40)
        model = _toy_model(x, y, np.array([[0.5]]))
        picked = propose_rs(model, x, subset_size=40, seed=0)
        base = model.objective()
        gains = [model.objective_with_added_knot(row) - base for row in x]
        best = x[int(np.argmax(gains))]
        np.testing.assert_allclose(picked, best)

    def test_deterministic(self):
        x, y = _toy_1d()
        model = _toy_model(x, y, np.array([[0.2], [0.8]]))
        a = propose_rs(model, x, subset_size=10, seed=5)
        b = propose_rs(model, x, subset_size=10, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_pool_membership(self):
        x, y = _toy_1d()
        model = _toy_model(x, y, np.array([[0.2], [0.8]]))
        picked = propose_rs(model, x, subset_size=15, seed=9)
        assert any(np.allclose(picked, row) for row in x)

    @pytest.mark.parametrize("subset_size", [0, -2])
    def test_empty_subset_rejected(self, subset_size):
        x, y = _toy_1d()
        model = _toy_model(x, y, np.array([[0.2]]))
        with pytest.raises(ValueError, match="^subset_size must be at least 1$"):
            propose_rs(model, x, subset_size=subset_size, seed=0)

    def test_empty_pool_rejected(self):
        x, y = _toy_1d()
        model = _toy_model(x, y, np.array([[0.2]]))
        with pytest.raises(ValueError):
            propose_rs(model, np.zeros((0, 1)), subset_size=3, seed=0)

    def test_full_subset_never_scores_a_knot_row(self, monkeypatch):
        # a candidate on a knot would cost a rebuild and gain nothing
        x, y = _toy_1d(n=40)
        model = _toy_model(x, y, x[[3, 17, 29]])
        scored = _spy_scores(monkeypatch)
        picked = propose_rs(model, x, subset_size=40, seed=0)
        assert len(scored) == 37
        knots = model.knots.locations
        assert not any((row == knots).all(axis=1).any() for row in [*scored, picked])


@pytest.mark.parametrize("propose", [
    lambda model, pool: propose_rs(model, pool, subset_size=3, seed=0),
    lambda model, pool: propose_bo(model, pool, budget=4, initial_design=2, seed=0),
], ids=["rs", "bo"])
def test_proposals_reject_a_pool_of_another_width(propose):
    x = np.random.default_rng(15).standard_normal((30, 2))
    model = _toy_model(x, np.sin(x[:, 0]), x[:3])
    with pytest.raises(ValueError, match=r"^knot dimension 3 does not match input dimension 2$"):
        propose(model, np.random.default_rng(16).standard_normal((10, 3)))


@pytest.mark.parametrize("budget, initial_design", [(0, 0), (5, 0), (5, 5)])
def test_propose_bo_checks_its_budget(budget, initial_design):
    x = np.random.default_rng(17).standard_normal((30, 2))
    model = _toy_model(x, np.sin(x[:, 0]), x[:3])
    with pytest.raises(ValueError, match=rf"^require 0 < initial_design < budget, got "
                                         rf"initial_design={initial_design} and budget={budget}$"):
        propose_bo(model, x, budget=budget, initial_design=initial_design, seed=0)


class TestProposeBo:
    def test_budget_covering_pool_is_exhaustive_argmax(self):
        x, y = _toy_1d(n=25)
        model = _toy_model(x, y, np.array([[0.5]]))
        picked = propose_bo(model, x, budget=25, initial_design=5, seed=2)
        base = model.objective()
        gains = [model.objective_with_added_knot(row) - base for row in x]
        np.testing.assert_allclose(picked, x[int(np.argmax(gains))])

    def test_all_candidates_on_knots_keeps_the_budget(self, monkeypatch):
        x, y = _toy_1d(n=30)
        model = _toy_model(x, y, x.copy())   # every pool row is a knot
        scored = _spy_scores(monkeypatch)
        picked = propose_bo(model, x, budget=10, initial_design=3, seed=0)
        assert len(scored) == 10
        assert any(np.allclose(picked, row) for row in x)

    def test_excluded_candidates_never_proposed(self):
        x, y = _toy_1d(n=30)
        knots = x[:5].copy()
        model = _toy_model(x, y, knots)
        picked = propose_bo(model, x, budget=25, initial_design=5, seed=1)
        assert not any(np.allclose(picked, k, atol=1e-12) for k in knots)

    def test_beats_small_random_subset_on_most_seeds(self):
        # paired-seeds harness: BO proposal versus the best of 10 random
        # candidates, on the 1-d synthetic with 5 fixed knots
        x, y = _toy_1d(n=100, seed=42)
        knots = np.linspace(0.05, 0.95, 5).reshape(-1, 1)
        model = _toy_model(x, y, knots)
        base = model.objective()
        wins = 0
        for seed in range(20):
            bo_pick = propose_bo(model, x, budget=20, initial_design=8, seed=seed)
            rs_pick = propose_rs(model, x, subset_size=10, seed=10_000 + seed)
            bo_gain = model.objective_with_added_knot(bo_pick) - base
            rs_gain = model.objective_with_added_knot(rs_pick) - base
            wins += bo_gain >= rs_gain
        assert wins >= 16

    def test_one_hyperparameter_search_per_proposal(self, monkeypatch):
        # the surrogate's hyperparameters are fitted once, on the initial
        # design; each later probe re-conditions the exact GP at them
        searches, fits = [], []
        search, fit = full_gp.fit_hyperparameters, full_gp.fit_full

        def spy_search(*args, **kwargs):
            searches.append(search(*args, **kwargs))
            return searches[-1]

        def spy_fit(inputs, targets, params, *args, **kwargs):
            fits.append((len(targets), params))
            return fit(inputs, targets, params, *args, **kwargs)

        monkeypatch.setattr(selection.full_gp, "fit_hyperparameters", spy_search)
        monkeypatch.setattr(selection.full_gp, "fit_full", spy_fit)
        x, y = _toy_1d(n=60)
        model = _toy_model(x, y, np.array([[0.2], [0.8]]))
        propose_bo(model, x, budget=15, initial_design=6, seed=4)
        assert len(searches) == 1
        fitted = searches[0][0].params
        # the search's own closing fit on the design, then one per later probe
        assert [n for n, _ in fits] == list(range(6, 15))
        assert all(params == fitted for _, params in fits)

    def test_deterministic(self):
        x, y = _toy_1d(n=40)
        model = _toy_model(x, y, np.array([[0.3], [0.7]]))
        a = propose_bo(model, x, budget=12, initial_design=4, seed=3)
        b = propose_bo(model, x, budget=12, initial_design=4, seed=3)
        np.testing.assert_array_equal(a, b)


class TestInnerLoopDistanceCache:
    """The sparse search reuses the fixed knots' distances; each of its
    evaluations must match a model built from scratch, with the start
    model's mean, whether it frees no knot, one knot or all of them."""

    @staticmethod
    def _inner_objective(monkeypatch, objective, x, y, params, knots, free,
                         mean_constant=0.0):
        captured = []

        def spy(fg, init, config):
            captured.append(fg)
            return maximize(fg, init, OptimizerConfig(max_steps=1))

        monkeypatch.setattr(selection, "maximize", spy)
        start = SparseGPModel(selection._OBJECTIVE_APPROX[objective], x, y, params, knots,
                              mean_constant)
        selection._optimize_params_and_knot(start, OptimizerConfig(), **free)
        return captured[0]

    @pytest.mark.parametrize("objective", ["vfe", "fic"])
    @pytest.mark.parametrize("free", [{}, {"active_knot_index": 2}, {"active_knot_index": 5},
                                      {"all_knots": True}], ids=["None", "2", "5", "all"])
    def test_matches_fresh_model(self, monkeypatch, objective, free):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((150, 3))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(150)
        knots = x[:6] + 0.05 * rng.standard_normal((6, 3))
        params = KernelParams(1.2, 0.9, 0.2)
        fg = self._inner_objective(monkeypatch, objective, x, y, params, knots, free,
                                   mean_constant=0.3)
        approx = selection._OBJECTIVE_APPROX[objective]
        active = free.get("active_knot_index")
        for _ in range(4):
            vec = params.log_vector() + 0.2 * rng.standard_normal(3)
            moved = knots.copy()
            if free.get("all_knots"):
                moved += 0.3 * rng.standard_normal(moved.shape)
                vec = np.concatenate([vec, moved.reshape(-1)])
            elif active is not None:
                moved[active] += 0.3 * rng.standard_normal(3)
                vec = np.concatenate([vec, moved[active]])
            value, grad = fg(vec)
            fresh_value, fresh_grad = SparseGPModel(
                approx, x, y, params.with_log_vector(vec[:3]), moved, mean_constant=0.3
            ).objective_grad(**free)
            assert abs(value - fresh_value) <= 1e-12 * abs(fresh_value)
            assert np.max(np.abs(grad - fresh_grad)) <= 1e-12 * np.max(np.abs(fresh_grad))
            if active is None:
                # every evaluation recomputes the whole K x K knot distances
                # as a fresh build does; with every knot free it recomputes
                # the knot-to-input distances whole as well, and with none
                # free it keeps a fresh build's untouched, so both match to
                # the bit. With one knot free, that knot's row of knot-to-input
                # distances is a one-row product, which may differ from the
                # same row of a whole product in the last bits.
                assert np.float64(value).tobytes() == np.float64(fresh_value).tobytes()
                assert grad.tobytes() == fresh_grad.tobytes()

    def test_non_finite_active_knot_raises(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        params = KernelParams(1.0, 1.0, 0.1)
        for free, coords in (({"active_knot_index": 2}, x[2].copy()),
                             ({"all_knots": True}, x[:3].copy())):
            fg = self._inner_objective(monkeypatch, "vfe", x, y, params, x[:3].copy(), free)
            coords.reshape(-1)[-2] = np.nan
            with pytest.raises(ValueError,
                               match="knot locations contains non-finite entries"):
                fg(np.concatenate([params.log_vector(), coords.reshape(-1)]))

    def test_reused_buffers_carry_no_state(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        params = KernelParams(1.0, 0.8, 0.1)
        for free, coords in (({"active_knot_index": 4}, x[10]),
                             ({"all_knots": True}, x[10:15].reshape(-1))):
            fg = self._inner_objective(monkeypatch, "vfe", x, y, params, x[:5].copy(), free)
            v1 = np.concatenate([params.log_vector(), coords])
            v2 = np.concatenate([params.log_vector() + 0.3, coords[::-1] + 1.0])
            first, _, third = fg(v1), fg(v2), fg(v1)
            assert np.float64(first[0]).tobytes() == np.float64(third[0]).tobytes()
            assert first[1].tobytes() == third[1].tobytes()


class TestSearchReturnsWhatItScored:
    """The model a sparse search returns is built as each of its evaluations
    is, so it scores the search's best value and holds its best point, bit
    for bit, and later evaluations do not reach it."""

    @staticmethod
    def _problem():
        # seed 4 of this draw is one where a fresh build at the best point
        # differs from the search's best value in the last bits
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.2 * rng.standard_normal(200)
        knots = x[:8] + 0.05 * rng.standard_normal((8, 3))
        return x, y, knots, KernelParams(1.0, 1.0, 0.1)

    @pytest.mark.parametrize("approx", [Approximation.DTC, Approximation.FIC])
    @pytest.mark.parametrize("free", [{}, {"active_knot_index": 7}, {"all_knots": True}],
                             ids=["None", "7", "all"])
    def test_model_scores_the_best_value(self, approx, free):
        x, y, knots, params = self._problem()
        start = SparseGPModel(approx, x, y, params, knots)
        model, res = selection._optimize_params_and_knot(start, OptimizerConfig(max_steps=20),
                                                         **free)
        assert res.n_steps == 20
        assert np.float64(model.objective()).tobytes() == np.float64(res.fun).tobytes()
        assert model.params == params.with_log_vector(res.x[:3])
        rows = start._free_rows(free.get("active_knot_index"), free.get("all_knots", False))
        assert model.knots.locations[rows].reshape(-1).tobytes() == res.x[3:].tobytes()
        fixed = np.ones(len(knots), dtype=bool)
        fixed[rows] = False
        np.testing.assert_array_equal(model.knots.locations[fixed], knots[fixed])

    @pytest.mark.parametrize("free", [{}, {"active_knot_index": 7}, {"all_knots": True}],
                             ids=["None", "7", "all"])
    def test_later_evaluations_leave_the_model_alone(self, free):
        x, y, knots, params = self._problem()
        objective_with_grad, init, model_at = SparseGPModel(
            Approximation.DTC, x, y, params, knots)._ascent(**free)
        model = model_at(init)
        locations = model.knots.locations.copy()
        value, grad = model.objective_grad(**free)
        moved = init + 0.3 * np.random.default_rng(5).standard_normal(init.shape)
        objective_with_grad(moved)
        assert model.knots.locations.tobytes() == locations.tobytes()
        assert np.float64(model.objective()).tobytes() == np.float64(value).tobytes()
        again_value, again_grad = model.objective_grad(**free)
        assert np.float64(again_value).tobytes() == np.float64(value).tobytes()
        assert again_grad.tobytes() == grad.tobytes()


class TestValidationOutsideTheLoop:
    """Inputs are validated and their distances computed once per search, so
    the number of checks does not grow with the number of evaluations."""

    @staticmethod
    def _count(monkeypatch):
        counts = Counter()
        for module in (common, kernels, sparse_gp, full_gp, selection):
            for name in ("as_input_matrix", "squared_distances"):
                original = module.__dict__.get(name)
                if original is None:
                    continue

                def counted(*args, _original=original, _name=name, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("search", ["fit_hyperparameters", "inner_loop", "simultaneous"])
    def test_counts_do_not_depend_on_steps(self, monkeypatch, search):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(50)
        params = KernelParams(1.0, 1.0, 0.1)
        knots = x[:4] + 0.1

        def run(config):
            if search == "fit_hyperparameters":
                return full_gp.fit_hyperparameters(x[:29], y[:29], params, config)[1]
            if search == "inner_loop":
                start = SparseGPModel(Approximation.DTC, x, y, params, knots)
                return selection._optimize_params_and_knot(start, config,
                                                           active_knot_index=3)[1]
            return simultaneous_optimize(x, y, params, knots, "vfe", config)[1]

        counts = self._count(monkeypatch)
        seen = []
        # BFGS converges on the exact-GP search in about 15 iterations
        for steps in ((3, 12) if search == "fit_hyperparameters" else (3, 30)):
            counts.clear()
            result = run(OptimizerConfig(max_steps=steps, rel_tol=1e-15))
            assert result.n_steps == steps
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["as_input_matrix"] >= 1

    def test_simultaneous_evaluation_rejects_non_finite_knots(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        params = KernelParams(1.0, 1.0, 0.1)
        captured = []

        def spy(fg, init, config):
            captured.append((fg, init))
            return maximize(fg, init, OptimizerConfig(max_steps=1))

        monkeypatch.setattr(selection, "maximize", spy)
        simultaneous_optimize(x, y, params, x[:3].copy(), "vfe")
        fg, init = captured[0]
        bad = init.copy()
        bad[-1] = np.inf
        with pytest.raises(ValueError, match="knot locations contains non-finite entries"):
            fg(bad)


def test_search_does_not_keep_its_start_model_alive(monkeypatch):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    refs, alive = [], []

    def start():
        model = SparseGPModel(Approximation.DTC, x, y, KernelParams(1.0, 1.0, 0.1), x[:4].copy())
        refs.append(weakref.ref(model))
        return model

    def spy(fg, init, config):
        gc.collect()
        alive.append(refs[-1]() is not None)
        return maximize(fg, init, OptimizerConfig(max_steps=2))

    monkeypatch.setattr(selection, "maximize", spy)
    # keywords, not ``**free``: a star call holds its positional arguments in a
    # tuple for the call's duration, and with them the start model
    for index, every in ((None, False), (2, False), (None, True)):
        selection._optimize_params_and_knot(start(), OptimizerConfig(),
                                            active_knot_index=index, all_knots=every)
    assert alive == [False, False, False]


@pytest.mark.parametrize("free", [{"active_knot_index": 4}, {"active_knot_index": -1},
                                  {"active_knot_index": 0, "all_knots": True}])
def test_free_knots_checked_before_the_search(monkeypatch, free):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((30, 2))
    calls = []
    monkeypatch.setattr(selection, "maximize", lambda *args: calls.append(args))
    start = SparseGPModel(Approximation.DTC, x, rng.standard_normal(30),
                          KernelParams(1.0, 1.0, 0.1), x[:4].copy())
    with pytest.raises(ValueError if free.get("all_knots") else IndexError):
        selection._optimize_params_and_knot(start, OptimizerConfig(), **free)
    assert calls == []


class TestOatSelect:
    def test_no_proposal_rounds_when_budget_equals_initial(self):
        x, y = _toy_1d(n=60)
        config = OATConfig(initial_knot_count=4, max_knots=4, rng_seed=0)
        model, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=150))
        assert model.n_knots == 4
        assert len(trace.steps) == 1
        assert trace.steps[0].accepted_location is None

    def test_objective_never_decreases_across_vfe_steps(self):
        x, y = _toy_1d(n=100)
        config = OATConfig(initial_knot_count=3, max_knots=8, proposal="rs",
                           objective="vfe", rs_subset_size=10,
                           improvement_tol=1e-9, rng_seed=1)
        _, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                              OptimizerConfig(max_steps=120))
        values = trace.objective_values
        assert np.all(np.diff(values) >= -1e-8)
        for step in trace.steps:
            assert step.objective_after >= step.objective_before - 1e-8

    def test_previous_knots_frozen_and_pool_membership(self):
        x, y = _toy_1d(n=80)
        config = OATConfig(initial_knot_count=3, max_knots=6, proposal="rs",
                           rs_subset_size=8, improvement_tol=1e-9, rng_seed=2)
        model, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=100))
        # each accepted proposal came from the training pool
        for step in trace.steps[1:]:
            loc = np.asarray(step.accepted_location)
            assert any(np.allclose(loc, row) for row in x)
        assert model.n_knots <= config.max_knots

    def test_previous_knots_bitwise_unchanged_by_inner_rounds(self):
        x, y = _toy_1d(n=80)
        base_params = KernelParams(1.0, 0.3, 0.1)
        config = OATConfig(initial_knot_count=3, max_knots=5, proposal="rs",
                           rs_subset_size=8, improvement_tol=1e-9, rng_seed=3)
        snapshots = []

        import knotgp.selection as selection

        original = selection._optimize_params_and_knot

        def spy(start, opt_cfg, **free):
            knots = start.knots.locations.copy()
            model, res = original(start, opt_cfg, **free)
            snapshots.append((knots, model.knots.locations.copy(),
                              free.get("active_knot_index")))
            return model, res

        selection._optimize_params_and_knot = spy
        try:
            oat_select(x, y, base_params, config, OptimizerConfig(max_steps=60))
        finally:
            selection._optimize_params_and_knot = original

        for before, after, active in snapshots:
            if active is None:
                np.testing.assert_array_equal(before, after)
            else:
                frozen = np.delete(before, active, axis=0)
                np.testing.assert_array_equal(np.delete(after, active, axis=0),
                                              frozen)

    def test_fully_deterministic(self):
        x, y = _toy_1d(n=70)
        config = OATConfig(initial_knot_count=3, max_knots=6, proposal="bo",
                           bo_budget=8, bo_initial_design=3,
                           improvement_tol=1e-9, rng_seed=11)
        a_model, a_trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                      OptimizerConfig(max_steps=80))
        b_model, b_trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                      OptimizerConfig(max_steps=80))
        np.testing.assert_array_equal(a_model.knots.locations,
                                      b_model.knots.locations)
        np.testing.assert_array_equal(a_trace.objective_values,
                                      b_trace.objective_values)

    def test_steps_record_and_log_each_inner_search(self, monkeypatch, caplog):
        results = []

        def spy(*args, **kwargs):
            results.append(maximize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(selection, "maximize", spy)
        x, y = _toy_1d(n=70)
        config = OATConfig(initial_knot_count=3, max_knots=6, proposal="rs",
                           rs_subset_size=8, improvement_tol=1e-9, rng_seed=6)
        with caplog.at_level("INFO", logger="knotgp.selection"):
            _, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=40))
        assert len(trace.steps) == len(results) == 4
        assert {step.stop_reason for step in trace.steps} <= {"converged", "max_steps"}
        for step, res in zip(trace.steps, results):
            assert step.n_steps == len(res.trace) - 1
            assert step.stop_reason == res.stop_reason
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "knotgp.selection" and r.levelname == "INFO"]
        assert lines == [f"OAT {s.knot_count} knots: objective {s.objective_after:.6f} "
                         f"after {s.n_steps} steps ({s.stop_reason})" for s in trace.steps]

    @pytest.mark.parametrize("max_steps", [2, 1000])
    def test_warns_when_the_initial_fit_stops_at_max_steps(self, caplog, max_steps):
        x, y = _toy_1d(n=60)
        config = OATConfig(initial_knot_count=4, max_knots=4, rng_seed=0)
        with caplog.at_level("INFO", logger="knotgp.selection"):
            _, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=max_steps))
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        if max_steps == 2:
            assert trace.steps[0].stop_reason == "max_steps"
            assert warnings == ["OAT initial fit stopped at max_steps (2 steps)"]
        else:
            assert trace.steps[0].stop_reason == "converged"
            assert warnings == []

    def test_fic_objective_runs(self):
        x, y = _toy_1d(n=60)
        config = OATConfig(initial_knot_count=3, max_knots=5, proposal="rs",
                           objective="fic", rs_subset_size=6,
                           improvement_tol=1e-9, rng_seed=4)
        model, trace = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=80))
        assert model.approx is Approximation.FIC
        for step in trace.steps:
            assert step.objective_after >= step.objective_before - 1e-8

    def test_knots_spread_across_the_input_range(self):
        x, y = _toy_1d(n=150, seed=5)
        config = OATConfig(initial_knot_count=4, max_knots=12, proposal="bo",
                           bo_budget=10, bo_initial_design=4,
                           improvement_tol=1e-9, rng_seed=5)
        model, _ = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                              OptimizerConfig(max_steps=80))
        knots = model.knots.locations[:, 0]
        assert knots.max() - knots.min() >= 0.6 * (x.max() - x.min())


class TestOatSelectStopsEarly:
    """Each way a selection run stops early names its cause in
    ``stopped_because`` and returns the model of the last search that
    finished."""

    PARAMS = KernelParams(1.0, 0.3, 0.1)

    @staticmethod
    def _config(proposal="rs"):
        return OATConfig(initial_knot_count=3, max_knots=6, proposal=proposal,
                         rs_subset_size=6, bo_budget=6, bo_initial_design=3,
                         improvement_tol=1e-9, rng_seed=7)

    @staticmethod
    def _searches(monkeypatch, fail_at=None, error=None):
        """Record each (model, result) the sparse search returns; the search
        numbered ``fail_at`` raises ``error`` instead."""
        fits = []
        original = selection._optimize_params_and_knot

        def spy(start, config, **free):
            if len(fits) == fail_at:
                raise error
            fits.append(original(start, config, **free))
            return fits[-1]

        monkeypatch.setattr(selection, "_optimize_params_and_knot", spy)
        return fits

    @pytest.mark.parametrize("reason", ["non_finite_objective", "non_finite_gradient"])
    def test_initial_fit_stops_non_finite(self, monkeypatch, reason):
        def stops(objective_with_grad, init, config):
            value, _ = objective_with_grad(init)
            return MaximizeResult(init.copy(), value, np.array([value]), 0, reason)

        monkeypatch.setattr(selection, "maximize", stops)
        proposals = []
        monkeypatch.setattr(selection, "propose_rs", lambda *args: proposals.append(args))
        fits = self._searches(monkeypatch)
        x, y = _toy_1d(n=60)
        model, trace = oat_select(x, y, self.PARAMS, self._config(), OptimizerConfig())
        assert trace.stopped_because == f"initial optimization: {reason}"
        assert [step.stop_reason for step in trace.steps] == [reason]
        assert proposals == []
        assert len(fits) == 1 and model is fits[0][0]
        assert model.n_knots == 3
        assert model.params == self.PARAMS.with_log_vector(self.PARAMS.log_vector())
        assert model.objective() == trace.steps[0].objective_after

    @pytest.mark.parametrize("proposal", ["rs", "bo"])
    def test_proposal_raises(self, monkeypatch, proposal):
        name = {"rs": "propose_rs", "bo": "propose_bo"}[proposal]
        original = getattr(selection, name)
        calls = []

        def fails_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericalError("knot covariance is not positive definite",
                                     attempted_jitter=1e-8)
            return original(*args)

        monkeypatch.setattr(selection, name, fails_second)
        fits = self._searches(monkeypatch)
        x, y = _toy_1d(n=60)
        model, trace = oat_select(x, y, self.PARAMS, self._config(proposal),
                                  OptimizerConfig(max_steps=40))
        assert trace.stopped_because == ("proposal failed: knot covariance is not "
                                         "positive definite")
        assert len(calls) == 2 and len(trace.steps) == len(fits) == 2
        assert model is fits[1][0] and model.n_knots == 4

    @pytest.mark.parametrize("error", [
        NumericalError("low-rank system is not positive definite"),
        ValueError("knot locations contains non-finite entries"),
    ], ids=["NumericalError", "ValueError"])
    def test_inner_search_raises(self, monkeypatch, error):
        fits = self._searches(monkeypatch, fail_at=2, error=error)
        x, y = _toy_1d(n=60)
        model, trace = oat_select(x, y, self.PARAMS, self._config(),
                                  OptimizerConfig(max_steps=40))
        assert trace.stopped_because == f"inner optimization failed: {error}"
        assert len(trace.steps) == len(fits) == 2
        assert model is fits[1][0] and model.n_knots == 4
        assert model.objective() == trace.steps[1].objective_after


def test_candidate_that_raises_gains_minus_inf(monkeypatch):
    x, y = _toy_1d(n=40)
    model = _toy_model(x, y, np.array([[0.5]]))
    base = model.objective()
    exact = np.array([model.objective_with_added_knot(row) - base for row in x])
    best = int(np.argmax(exact))
    original = SparseGPModel.objective_with_added_knot

    def fails_on_best(self, location):
        if np.array_equal(location, x[best]):
            raise NumericalError("knot covariance is not positive definite")
        return original(self, location)

    monkeypatch.setattr(SparseGPModel, "objective_with_added_knot", fails_on_best)
    gains = selection._candidate_gains(model, x, np.arange(40))
    assert gains[best] == -np.inf
    np.testing.assert_array_equal(np.delete(gains, best), np.delete(exact, best))
    exact[best] = -np.inf
    np.testing.assert_array_equal(propose_rs(model, x, subset_size=40, seed=0),
                                  x[int(np.argmax(exact))])


@pytest.mark.parametrize("search", [
    lambda x, y, p: oat_select(x, y, p, OATConfig(initial_knot_count=3, max_knots=4)),
    lambda x, y, p: simultaneous_optimize(x, y, p, x[:3]),
], ids=["oat_select", "simultaneous_optimize"])
def test_row_count_mismatch_raises_before_any_fit(monkeypatch, search):
    def no_kmeans(*args):
        raise AssertionError("k-means ran before the row counts were checked")

    monkeypatch.setattr(selection, "kmeans_init", no_kmeans)
    x = np.random.default_rng(13).standard_normal((20, 2))
    with pytest.raises(ValueError, match=r"^row count mismatch: 20 inputs vs 19 targets$"):
        search(x, np.zeros(19), KernelParams(1.0, 1.0, 0.1))


class TestSimultaneousOptimize:
    def test_unknown_objective_rejected(self):
        x, y = _toy_1d(n=20)
        with pytest.raises(ValueError, match=r"^objective must be 'vfe' or 'fic', got 'VFE'$"):
            simultaneous_optimize(x, y, KernelParams(1.0, 0.3, 0.1), x[:2], "VFE")

    def test_gradient_dimension_is_structural(self):
        x, y = _toy_1d(n=40)
        knots = np.array([[0.2], [0.5], [0.8]])
        model = _toy_model(x, y, knots)
        _, grad = model.objective_grad(all_knots=True)
        assert grad.size == 3 + knots.size

    def test_single_knot_matches_grid_oracle(self):
        # K=1 in 1-d: compare against a coarse grid search over the knot
        # location and lengthscale, everything else frozen at the optimum
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, 50).reshape(-1, 1)
        y = np.exp(-(x[:, 0] - 0.4) ** 2 / 0.05)
        y = (y - y.mean()) / y.std()
        init = KernelParams(1.0, 0.3, 0.1)
        model, _ = simultaneous_optimize(x, y, init, kmeans_init(x, 1, seed=0),
                                         "vfe", OptimizerConfig(max_steps=800))
        best_grid, best_value = None, -np.inf
        sigma2, tau2 = model.params.signal_variance, model.params.noise_variance
        for knot in np.linspace(0.0, 1.0, 41):
            for ell in np.geomspace(0.05, 1.0, 25):
                p = KernelParams(sigma2, ell, tau2,
                                 latent_jitter=model.params.latent_jitter)
                value = fit_sparse(Approximation.DTC, x, y, p, [[knot]]).elbo()
                if value > best_value:
                    best_value, best_grid = value, (knot, ell)
        assert model.objective() >= best_value - 0.05
        assert abs(model.knots.locations[0, 0] - best_grid[0]) <= 0.05

    def test_refinement_never_hurts_best_seen(self):
        x, y = _toy_1d(n=90)
        config = OATConfig(initial_knot_count=3, max_knots=7, proposal="rs",
                           rs_subset_size=8, improvement_tol=1e-9, rng_seed=7)
        oat_model, _ = oat_select(x, y, KernelParams(1.0, 0.3, 0.1), config,
                                  OptimizerConfig(max_steps=100))
        refined, res = simultaneous_optimize(x, y, oat_model.params,
                                             oat_model.knots.locations, "vfe",
                                             OptimizerConfig(max_steps=100))
        assert res.fun >= oat_model.objective() - 1e-10
        assert res.trace[0] == pytest.approx(oat_model.objective(), rel=1e-12)

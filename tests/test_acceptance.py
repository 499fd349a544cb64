"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 7 and 8 need the CCPP and Boston housing CSVs (external downloads;
see data/README.md) and skip when the files are absent. Criterion 9's timing
clause uses the Airfoil CSV when present and an equally sized synthetic
dataset otherwise.

Criterion 6 asserts the duplicate-knot dip of the variational objective,
and only in the small-nugget regime of the spike demo (latent jitter 1e-3 of
the signal variance). Knot-monotonicity (criterion 2) gives only a
non-negative gain for a sixth knot placed on an existing one, which by itself
would not rule out a maximum there. The dip comes from span: a duplicate adds
no new span, so its gain is only the nugget-recovery effect, while a knot 2% of
the domain away (about 0.17 lengthscales here) adds real span and gains
substantially. With a larger nugget (a tenth of the signal variance) the dip
widens and at one knot of seed 0 turns into a maximum, so the test pins the
jitter it checks.

Criterion 9's timing comparison is reported, not asserted, per the spec's
scope note that timings are hardware-dependent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from knotgp import (Approximation, KernelParams, elbo, elbo_grad, fic_log_marginal,
                    fit_full, fit_sparse, kmeans_init, log_marginal_likelihood,
                    mnlp, oat_select, predict_sparse, prior_variance_report,
                    simultaneous_optimize, srmse)
from knotgp.adadelta import OptimizerConfig
from knotgp.bench import (ExperimentConfig, RosterEntry, load_csv, run_experiment,
                          split_and_standardize)
from knotgp.cli import main as cli_main
from knotgp.demos import spike_demo
from knotgp.selection import OATConfig

from oracles import (central_difference, dense_elbo, dense_fic_log_marginal,
                     dense_predict, random_instance)

DATA_DIR = Path(os.environ.get("KNOTGP_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "data"))


def _report(number: int, passed: bool, message: str):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} — {message}")


def test_c01_elbo_saturation_at_full_knots():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 4))
        x = 1.5 * rng.standard_normal((n, d))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
        s2 = float(rng.uniform(0.5, 2.0))
        params = KernelParams(s2, float(rng.uniform(0.6, 1.5)),
                              float(rng.uniform(0.05, 0.5)),
                              latent_jitter=1e-8 * s2)
        value = elbo(fit_sparse(Approximation.DTC, x, y, params, x.copy()))
        full = log_marginal_likelihood(fit_full(x, y, params))
        gap = abs(value - full) / (1.0 + abs(full))
        worst = max(worst, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, True, f"saturation gap ≤ {worst:.2e} on 20 instances in {elapsed:.1f}s")


def test_c02_elbo_lower_bound_and_monotonicity():
    rng = np.random.default_rng(102)
    for _ in range(50):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(1, 4))
        x = 1.5 * rng.standard_normal((n, d))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
        s2 = float(rng.uniform(0.5, 2.0))
        params = KernelParams(s2, float(rng.uniform(0.6, 1.5)),
                              float(rng.uniform(0.05, 0.5)),
                              latent_jitter=1e-7 * s2)
        full = log_marginal_likelihood(fit_full(x, y, params))
        sizes = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=False))
        order = rng.permutation(n)
        previous = -np.inf
        for k in sizes:
            value = elbo(fit_sparse(Approximation.DTC, x, y, params, x[order[:k]]))
            assert value <= full + 1e-8
            assert value >= previous - 1e-8
            previous = value
    _report(2, True, "ELBO ≤ full log marginal likelihood and non-decreasing "
                     "along 50 nested knot sequences")


def test_c03_gradient_correctness():
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(8, 31))
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        x, y, knots, params = random_instance(rng, n, k, d)
        approx = Approximation.DTC if trial % 2 == 0 else Approximation.FIC
        model = fit_sparse(approx, x, y, params, knots)
        newest = k - 1
        _, grad = model.objective_grad(active_knot_index=newest)

        def objective(vec):
            kn = knots.copy()
            kn[newest] = vec[3:]
            return fit_sparse(approx, x, y, params.with_log_vector(vec[:3]),
                              kn).objective()

        point = np.concatenate([params.log_vector(), knots[newest]])
        fd = central_difference(objective, point, step=1e-5)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-4)
    _report(3, True, f"analytic gradients within relative {worst:.2e} of central "
                     "finite differences on 50 instances (ELBO and FIC)")


def test_c04_dense_oracle_equivalence():
    rng = np.random.default_rng(104)
    for n in range(2, 11):
        for _ in range(3):
            k = int(rng.integers(1, min(n, 4) + 1))
            d = int(rng.integers(1, 3))
            x, y, knots, params = random_instance(rng, n, k, d)
            xt = 1.5 * rng.standard_normal((4, d))

            dtc = fit_sparse(Approximation.DTC, x, y, params, knots)
            assert elbo(dtc) == pytest.approx(dense_elbo(x, y, knots, params),
                                              rel=1e-8)
            fic = fit_sparse(Approximation.FIC, x, y, params, knots)
            assert fic.fic_log_marginal() == pytest.approx(
                dense_fic_log_marginal(x, y, knots, params), rel=1e-8)
            for model, tag in ((dtc, "dtc"), (fic, "fic")):
                pred = predict_sparse(model, xt)
                mean, var = dense_predict(tag, x, y, knots, xt, params)
                np.testing.assert_allclose(pred.latent_mean, mean, rtol=1e-8,
                                           atol=1e-12)
                np.testing.assert_allclose(pred.latent_variance, var, rtol=1e-8,
                                           atol=1e-12)
    _report(4, True, "sparse ELBO, FIC likelihood and predictive marginals match "
                     "dense oracles at relative 1e-8 for all N ≤ 10")


def test_c05_variance_matching_table():
    expected = {
        Approximation.DIC: (False, False, False, False),
        Approximation.DTC: (False, False, True, True),
        Approximation.FIC: (False, True, True, False),
        Approximation.FITC: (False, True, True, True),
    }
    rng = np.random.default_rng(105)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        j = int(rng.integers(3, 8))
        k = int(rng.integers(2, n))
        d = int(rng.integers(1, 4))
        x = 1.5 * rng.standard_normal((n, d))
        xt = 1.5 * rng.standard_normal((j, d))
        knots = 1.5 * rng.standard_normal((k, d))
        params = KernelParams(float(rng.uniform(0.5, 2.0)),
                              float(rng.uniform(0.7, 1.5)), 0.1,
                              latent_jitter=1e-12)
        for approx, cells in expected.items():
            report = prior_variance_report(approx, x, xt, knots, params)
            got = (report["train_cov_match"], report["train_var_match"],
                   report["test_var_match"], report["test_cov_match"])
            assert got == cells, f"{approx.name}: {got} != {cells}"
    _report(5, True, "prior_variance_report reproduces every variance-matching "
                     "cell on 10 random configurations")


def test_c06_spike_reproduction():
    # the demo's own small-nugget configuration; a nugget of a tenth of the
    # signal variance widens the dip into a maximum at one knot, so pin it
    result = spike_demo(seed=0, jitter_ratio=1e-3)
    base = result["baseline"]
    grid, sweep = result["grid"], result["objective"]
    step = grid[1] - grid[0]
    half_window = 0.02 * result["domain_width"]
    failures = []
    for knot, at, plus, minus in zip(result["knots"], result["at_knots"] - base,
                                     result["plus_offset"] - base,
                                     result["minus_offset"] - base):
        window = np.abs(grid - knot) <= half_window
        lowest = grid[window][np.argmin(sweep[window])]
        if not (at >= -1e-8 and at < 0.5 * min(plus, minus)
                and abs(lowest - knot) <= step):
            failures.append(f"knot {knot:.4f}: gain at knot {at:+.6f}, at +2% "
                            f"{plus:+.6f}, at -2% {minus:+.6f}, sweep minimum "
                            f"at {lowest:.4f}")
    n_knots = len(result["knots"])
    _report(6, not failures, "objective dips toward the five-knot baseline at "
                             f"{n_knots - len(failures)}/{n_knots} knots"
                             + "".join("; no dip at " + line for line in failures))
    assert not failures, (
        "no duplicate-knot dip (need gain at knot ≥ -1e-8 and < half the smaller "
        f"±2% gain, and the sweep's lowest point within ±2% no more than one grid "
        f"step, {step:.5f}, from the knot) at: " + "; ".join(failures))


DESK_NOTE = ("supply the dataset per data/README.md (external download; this "
             "environment has no general network access)")


@pytest.mark.skipif(not (DATA_DIR / "ccpp.csv").exists(),
                    reason=f"data/ccpp.csv missing — {DESK_NOTE}")
def test_c07_ccpp_reproduction():
    table = load_csv(DATA_DIR / "ccpp.csv", ["AT", "V", "AP", "RH"], "PE")
    assert table.n_rows == 9568
    config = ExperimentConfig(
        dataset_path=str(DATA_DIR / "ccpp.csv"),
        predictor_columns=["AT", "V", "AP", "RH"],
        target_column="PE",
        split_fraction=0.5,
        n_runs=1,
        rng_seed=11,
        model_roster=[RosterEntry("OBVk", "OAT-BO", "VFE")],
        oat=OATConfig(initial_knot_count=5, max_knots=80),
        output_dir="acceptance-ccpp-out",
    )
    results, ok = run_experiment(config)
    assert ok
    report = results[0].metrics
    passed = 2.70 <= report.mnlp <= 2.90 and 0.22 <= report.srmse <= 0.27
    _report(7, passed, f"CCPP OAT-BO VFE: MNLP={report.mnlp:.3f} (target [2.70, "
                       f"2.90]), SRMSE={report.srmse:.3f} (target [0.22, 0.27])")
    assert passed


@pytest.mark.skipif(not (DATA_DIR / "boston.csv").exists(),
                    reason=f"data/boston.csv missing — {DESK_NOTE}")
def test_c08_boston_reproduction():
    config = ExperimentConfig(
        dataset_path=str(DATA_DIR / "boston.csv"),
        predictor_columns=["lstat", "rm", "ptratio"],
        target_column="medv",
        filter_rules=[("medv", "!=", 50.0)],
        split_fraction=0.8,
        n_runs=5,
        rng_seed=8,
        model_roster=[
            RosterEntry("FGP", "none", "FullGP"),
            RosterEntry("OBVk", "OAT-BO", "VFE"),
            RosterEntry("OBFk", "OAT-BO", "FIC"),
        ],
        oat=OATConfig(initial_knot_count=5, max_knots=80),
        output_dir="acceptance-boston-out",
    )
    table = load_csv(config.dataset_path, config.predictor_columns,
                     config.target_column, config.filter_rules)
    assert table.n_rows == 490
    results, ok = run_experiment(config)
    assert ok
    good_runs = 0
    for run in range(5):
        by_id = {r.model_id: r for r in results if r.run_index == run}
        close_srmse = abs(by_id["OBVk"].metrics.srmse
                          - by_id["FGP"].metrics.srmse) <= 0.05
        # "substantially below": at least half a decade of AUKL separation
        substantially_below = (by_id["OBVk"].metrics.log10_aukl
                               <= by_id["OBFk"].metrics.log10_aukl - 0.5)
        good_runs += close_srmse and substantially_below
    passed = good_runs >= 4
    _report(8, passed, f"Boston: VFE/full-GP agreement and VFE-vs-FIC AUKL "
                       f"separation on {good_runs}/5 runs (need ≥ 4)")
    assert passed


def _airfoil_scale_dataset(tmp_path):
    airfoil = DATA_DIR / "airfoil.csv"
    if airfoil.exists():
        table = load_csv(airfoil, ["frequency", "angle", "chord", "velocity",
                                   "thickness"], "sound")
        ds = split_and_standardize(table, ["frequency", "angle", "chord",
                                           "velocity", "thickness"], "sound",
                                   0.8, 17)
        return ds.x_train, ds.y_train, ds.x_test, ds.y_test, "airfoil.csv"
    rng = np.random.default_rng(17)
    n, d = 1503, 5
    x = rng.standard_normal((n, d))
    y = np.sin(x[:, 0]) + 0.6 * np.cos(1.3 * x[:, 1]) + 0.3 * x[:, 2] \
        + 0.25 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    return x[:1202], y[:1202], x[1202:], y[1202:], "synthetic airfoil-scale data"


def test_c09_refinement_and_timing(tmp_path):
    # part 1: SVO's final objective is at least OBVk's on every run
    rng = np.random.default_rng(109)
    n = 120
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    y = np.sin(x1) + 0.5 * x2 + 0.2 * rng.standard_normal(n)
    csv_path = tmp_path / "synthetic.csv"
    csv_path.write_text("x1,x2,y\n" + "\n".join(
        f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)) + "\n")
    config = ExperimentConfig(
        dataset_path=str(csv_path),
        predictor_columns=["x1", "x2"],
        target_column="y",
        split_fraction=0.75,
        n_runs=2,
        rng_seed=5,
        model_roster=[RosterEntry("OBVk", "OAT-BO", "VFE"),
                      RosterEntry("SVO", "Simult", "VFE", "from-model:OBVk")],
        oat=OATConfig(initial_knot_count=3, max_knots=6, improvement_tol=1e-8,
                      bo_budget=6, bo_initial_design=2),
        optimizer=OptimizerConfig(max_steps=80),
        output_dir=str(tmp_path / "out"),
    )
    results, ok = run_experiment(config)
    assert ok
    for run in range(2):
        by_id = {r.model_id: r for r in results if r.run_index == run}
        assert by_id["SVO"].trace["objective"] >= \
            by_id["OBVk"].trace["objective"] - 1e-10

    # part 2: the timing comparison on Airfoil-scale data is reported, not
    # asserted (spec scope: timings are hardware-dependent). Note the measured
    # ratio inverts the reference implementation's: its simultaneous gradients
    # cost O(d N K^3), whereas here all-knot gradients are assembled by the
    # adjoint method in O(N K^2 + N K d), so joint optimization is the faster
    # path at equal step budgets.
    x, y, x_test, y_test, source = _airfoil_scale_dataset(tmp_path)
    params = KernelParams(1.0, 1.0, 0.1)
    opt = OptimizerConfig()
    start = time.perf_counter()
    oat_model, _ = oat_select(x, y, params,
                              OATConfig(initial_knot_count=5, max_knots=25,
                                        proposal="bo", rng_seed=3), opt)
    oat_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sim_model, _ = simultaneous_optimize(x, y, params,
                                         kmeans_init(x, oat_model.n_knots, 9), "vfe", opt)
    sim_seconds = time.perf_counter() - start
    ratio = oat_seconds / sim_seconds
    # quality is reported beside the timing: the final objectives, and the
    # held-out rows' SRMSE and MNLP (on the standardized scale)
    oat_pred, sim_pred = oat_model.predict(x_test), sim_model.predict(x_test)
    _report(9, True, f"SVO ≥ OBVk on every run; timing reported on {source}: "
                     f"OAT-BO {oat_seconds:.1f}s vs simultaneous {sim_seconds:.1f}s "
                     f"(ratio {ratio:.2f}; the paper reports ≈ 0.1 with an "
                     "O(dNK^3) simultaneous gradient, here O(NK^2 + NKd)); "
                     f"objective {oat_model.objective():.1f} vs {sim_model.objective():.1f}, "
                     f"held-out SRMSE {srmse(oat_pred, y_test):.3f} vs "
                     f"{srmse(sim_pred, y_test):.3f}, MNLP {mnlp(oat_pred, y_test):.3f} vs "
                     f"{mnlp(sim_pred, y_test):.3f} at {oat_model.n_knots} knots")


def test_c10_experiment_determinism(tmp_path):
    rng = np.random.default_rng(110)
    n = 80
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    y = np.sin(x1) + 0.5 * x2 + 0.2 * rng.standard_normal(n)
    csv_path = tmp_path / "synthetic.csv"
    csv_path.write_text("x1,x2,y\n" + "\n".join(
        f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)) + "\n")
    base = {
        "dataset_path": str(csv_path),
        "predictor_columns": ["x1", "x2"],
        "target_column": "y",
        "split_fraction": 0.75,
        "n_runs": 2,
        "rng_seed": 21,
        "model_roster": [
            {"model_id": "OBVk", "knot_selection": "OAT-BO",
             "approximation": "VFE"},
            {"model_id": "SVO", "knot_selection": "Simult",
             "approximation": "VFE", "knot_init": "from-model:OBVk"},
        ],
        "oat": {"initial_knot_count": 3, "max_knots": 5, "bo_budget": 5,
                "bo_initial_design": 2, "improvement_tol": 1e-8},
        "optimizer": {"max_steps": 60},
        "record_timing": False,
    }
    import json

    outputs, traces = [], []
    for tag in ("a", "b"):
        config = dict(base, output_dir=str(tmp_path / f"out_{tag}"))
        config_path = tmp_path / f"config_{tag}.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["experiment", "--config", str(config_path)]) == 0
        out = tmp_path / f"out_{tag}"
        outputs.append((out / "results.csv").read_bytes())
        traces.append({p.name: p.read_bytes()
                       for p in sorted((out / "traces").glob("*.json"))})
    passed = outputs[0] == outputs[1] and traces[0] == traces[1]
    _report(10, passed, "two `experiment` invocations with identical config and "
                        "seed produce byte-identical results CSVs (and traces)")
    assert passed

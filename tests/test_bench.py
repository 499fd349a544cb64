import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knotgp
from knotgp import KernelParams
from knotgp.adadelta import OptimizerConfig
from knotgp.bench import (Dataset, ExperimentConfig, RosterEntry, Table,
                          emit_results, load_csv, run_experiment,
                          split_and_standardize)
from knotgp.common import PredictiveDistribution
from knotgp.demos import spike_demo, synth_demo
from knotgp.selection import OATConfig


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def boston_like(tmp_path):
    # 506 rows, 16 of which have the target pinned at 50.0
    rng = np.random.default_rng(0)
    rows = []
    for i in range(506):
        a, b = rng.uniform(0, 10), rng.uniform(0, 10)
        target = 50.0 if i < 16 else float(np.round(rng.uniform(5, 45), 3))
        rows.append((a, b, target))
    path = tmp_path / "housing.csv"
    _write_csv(path, ["alpha", "beta", "medv"], rows)
    return path


def _synthetic_csv(path: Path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    y = np.sin(x1) + 0.5 * x2 + 0.2 * rng.standard_normal(n)
    _write_csv(path, ["x1", "x2", "y"],
               list(zip(np.round(x1, 6), np.round(x2, 6), np.round(y, 6))))
    return path


class TestLoadCsv:
    def test_filter_leaves_490_rows(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv",
                         [("medv", "!=", 50.0)])
        assert table.n_rows == 490

    def test_empty_filter_keeps_all_rows(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv")
        assert table.n_rows == 506

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,y\n")
        with pytest.raises(ValueError):
            load_csv(path, ["a", "b"], "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ["a"], "y")

    def test_missing_column_named(self, boston_like):
        with pytest.raises(ValueError, match="gamma"):
            load_csv(boston_like, ["alpha", "gamma"], "medv")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError, match=r"row 3.*'a'"):
            load_csv(path, ["a"], "y")

    def test_comparators(self, tmp_path):
        path = tmp_path / "f.csv"
        _write_csv(path, ["a", "y"], [(1, 0), (2, 0), (3, 0), (4, 0)])
        table = load_csv(path, ["a"], "y", [("a", ">", 1), ("a", "<=", 3)])
        np.testing.assert_array_equal(table.columns["a"], [2.0, 3.0])


class TestSplitAndStandardize:
    def test_80_20_split_counts(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv",
                         [("medv", "!=", 50.0)])
        ds = split_and_standardize(table, ["alpha", "beta"], "medv", 0.8, 7)
        assert ds.x_train.shape[0] == 392
        assert ds.x_test.shape[0] == 98

    def test_same_seed_identical_split(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv")
        a = split_and_standardize(table, ["alpha", "beta"], "medv", 0.7, 3)
        b = split_and_standardize(table, ["alpha", "beta"], "medv", 0.7, 3)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)
        np.testing.assert_array_equal(a.x_train, b.x_train)

    def test_training_target_standardized(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv")
        ds = split_and_standardize(table, ["alpha", "beta"], "medv", 0.8, 1)
        assert abs(ds.y_train.mean()) < 1e-10
        assert abs(ds.y_train.std() - 1.0) < 1e-10
        for j in range(ds.x_train.shape[1]):
            assert abs(ds.x_train[:, j].mean()) < 1e-10
            assert abs(ds.x_train[:, j].std() - 1.0) < 1e-10

    def test_test_set_uses_training_statistics(self, boston_like):
        table = load_csv(boston_like, ["alpha", "beta"], "medv")
        ds = split_and_standardize(table, ["alpha", "beta"], "medv", 0.8, 1)
        x_all = np.column_stack([table.columns["alpha"], table.columns["beta"]])
        np.testing.assert_allclose(
            ds.x_test, (x_all[ds.test_indices] - ds.x_mean) / ds.x_sd)
        np.testing.assert_allclose(
            ds.y_test_original, table.columns["medv"][ds.test_indices])

    def test_constant_predictor_rejected(self, tmp_path):
        path = tmp_path / "const.csv"
        _write_csv(path, ["a", "y"], [(1.0, i) for i in range(20)])
        table = load_csv(path, ["a"], "y")
        with pytest.raises(ValueError, match="'a'"):
            split_and_standardize(table, ["a"], "y", 0.5, 0)

    def test_original_scale_round_trip(self):
        table = Table({"a": np.arange(20.0), "y": np.arange(20.0) * 3 + 5}, 20)
        ds = split_and_standardize(table, ["a"], "y", 0.5, 0)
        pred = PredictiveDistribution(ds.y_test, np.full(ds.y_test.size, 0.25),
                                      np.full(ds.y_test.size, 0.5))
        back = ds.to_original_scale(pred)
        np.testing.assert_allclose(back.latent_mean, ds.y_test_original)
        np.testing.assert_allclose(back.latent_variance, 0.25 * ds.y_sd ** 2)
        np.testing.assert_allclose(back.noisy_variance, 0.5 * ds.y_sd ** 2)


def _tiny_config(tmp_path, csv_path, roster, n_runs=1, record_timing=True, seed=0):
    return ExperimentConfig(
        dataset_path=str(csv_path),
        predictor_columns=["x1", "x2"],
        target_column="y",
        split_fraction=0.75,
        n_runs=n_runs,
        rng_seed=seed,
        model_roster=roster,
        oat=OATConfig(initial_knot_count=3, max_knots=5, improvement_tol=1e-8,
                      rs_subset_size=6, bo_budget=6, bo_initial_design=2),
        optimizer=OptimizerConfig(max_steps=60),
        output_dir=str(tmp_path / "out"),
        record_timing=record_timing,
    )


FULL_ROSTER = [
    RosterEntry("FGP", "none", "FullGP"),
    RosterEntry("OBVk", "OAT-BO", "VFE"),
    RosterEntry("SVk", "Simult", "VFE"),
    RosterEntry("SVO", "Simult", "VFE", "from-model:OBVk"),
]


class TestExperimentConfig:
    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig("d.csv", ["a"], "y",
                             model_roster=[RosterEntry("m", "none", "FullGP"),
                                           RosterEntry("m", "OAT-BO", "VFE")])

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("d.csv", ["a"], "y", model_roster=[
                RosterEntry("SVO", "Simult", "VFE", "from-model:OBVk"),
                RosterEntry("OBVk", "OAT-BO", "VFE"),
            ])

    def test_json_round_trip(self, tmp_path):
        raw = {
            "dataset_path": "d.csv",
            "predictor_columns": ["a", "b"],
            "target_column": "y",
            "filter_rules": [["y", "!=", 50.0]],
            "split_fraction": 0.8,
            "n_runs": 2,
            "rng_seed": 9,
            "model_roster": [
                {"model_id": "FGP", "knot_selection": "none",
                 "approximation": "FullGP"},
                {"model_id": "OBVk", "knot_selection": "OAT-BO",
                 "approximation": "VFE"},
            ],
            "oat": {"initial_knot_count": 4, "max_knots": 10},
            "optimizer": {"max_steps": 44},
            "init_params": {"signal_variance": 2.0, "lengthscale": 1.5,
                            "noise_variance": 0.2},
            "output_dir": "out",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        config = ExperimentConfig.from_json(path)
        assert config.rng_seed == 9
        assert config.oat.max_knots == 10
        assert config.optimizer.max_steps == 44
        assert config.init_params.signal_variance == 2.0
        assert config.filter_rules == [("y", "!=", 50.0)]
        assert config.model_roster[1].knot_selection == "OAT-BO"

    def test_unknown_key_rejected(self):
        raw = {"dataset_path": "d.csv", "predictor_columns": ["a"], "target_column": "y"}
        with pytest.raises(TypeError, match="n_run"):
            ExperimentConfig.from_dict({**raw, "n_run": 2})
        with pytest.raises(TypeError, match="max_knot"):
            ExperimentConfig.from_dict({**raw, "oat": {"max_knot": 10}})

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_loads_intact(self, path):
        raw = json.loads(path.read_text())
        config = ExperimentConfig.from_dict(raw)
        for key, value in raw.items():
            loaded = getattr(config, key)
            if key == "filter_rules":
                assert [list(rule) for rule in loaded] == value
            elif key == "model_roster":
                assert [{name: getattr(entry, name) for name in spec}
                        for entry, spec in zip(loaded, value)] == value
                assert len(loaded) == len(value)
            elif isinstance(value, dict):
                assert {name: getattr(loaded, name) for name in value} == value
            else:
                assert loaded == value
        assert config.oat.rng_seed == raw["rng_seed"]

    @pytest.mark.parametrize("approximation", ["VFE", "FIC"])
    def test_no_knot_selection_needs_full_gp(self, approximation):
        with pytest.raises(ValueError, match="'none'"):
            RosterEntry("m", "none", approximation)

    @pytest.mark.parametrize("selection, approximation",
                             [("OAT-BO", "VFE"), ("OAT-RS", "FIC"), ("none", "FullGP")])
    def test_knot_init_only_for_simult(self, selection, approximation):
        with pytest.raises(ValueError, match="knot_init"):
            RosterEntry("m", selection, approximation, "from-model:OBVk")

    def test_start_from_full_gp_rejected(self):
        with pytest.raises(ValueError, match="earlier sparse roster entry"):
            ExperimentConfig("d.csv", ["a"], "y", model_roster=[
                RosterEntry("FGP", "none", "FullGP"),
                RosterEntry("SVO", "Simult", "VFE", "from-model:FGP"),
            ])


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    csv_path = _synthetic_csv(tmp_path / "data.csv")
    config = _tiny_config(tmp_path, csv_path, FULL_ROSTER, n_runs=2)
    results, ok = run_experiment(config)
    return config, results, ok


class TestRunExperiment:
    def test_row_count_and_success(self, experiment):
        config, results, ok = experiment
        assert ok
        assert len(results) == 2 * len(FULL_ROSTER)

    def test_svo_starts_from_obvk_solution(self, experiment):
        _, results, _ = experiment
        for run in (0, 1):
            obvk = next(r for r in results
                        if r.model_id == "OBVk" and r.run_index == run)
            svo = next(r for r in results
                       if r.model_id == "SVO" and r.run_index == run)
            assert svo.trace["objective_before"] == pytest.approx(
                obvk.trace["objective"], rel=1e-12)
            assert svo.trace["objective"] >= obvk.trace["objective"] - 1e-10

    def test_svk_knot_count_matches_obvk(self, experiment):
        _, results, _ = experiment
        for run in (0, 1):
            obvk = next(r for r in results
                        if r.model_id == "OBVk" and r.run_index == run)
            svk = next(r for r in results
                       if r.model_id == "SVk" and r.run_index == run)
            assert svk.metrics.knot_count == obvk.metrics.knot_count

    def test_aukl_populated_for_sparse_models(self, experiment):
        _, results, _ = experiment
        for result in results:
            if result.model_id == "FGP":
                assert result.metrics.aukl is None
            else:
                assert result.metrics.aukl is not None
                assert result.metrics.aukl >= 0.0

    def test_results_csv_written(self, experiment):
        config, results, _ = experiment
        out = Path(config.output_dir)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "run,model_id,mnlp,srmse,aukl,log10_aukl,seconds,knots"
        assert len(lines) == 1 + len(results)
        assert (out / "summary.txt").exists()
        assert len(list((out / "traces").glob("*.json"))) == len(results)

    def test_metrics_on_original_scale(self, experiment):
        # the synthetic target has sd well below 1 after rounding; if metrics
        # were computed on the standardized scale srmse would stay identical,
        # but mnlp would shift by log(sd); check mnlp is consistent with an
        # original-scale recomputation
        config, results, _ = experiment
        from knotgp import metrics as metrics_mod
        from knotgp.bench import load_csv as _load

        table = _load(config.dataset_path, config.predictor_columns,
                      config.target_column, config.filter_rules)
        master = np.random.SeedSequence(config.rng_seed)
        run_seq = master.spawn(config.n_runs)[0]
        split_seed = run_seq.spawn(1 + len(config.model_roster))[0]
        ds = split_and_standardize(table, config.predictor_columns,
                                   config.target_column, config.split_fraction,
                                   split_seed)
        fgp = next(r for r in results if r.model_id == "FGP" and r.run_index == 0)
        from knotgp import fit_full, predict_full

        model = fit_full(ds.x_train, ds.y_train, fgp.final_params)
        pred = ds.to_original_scale(predict_full(model, ds.x_test))
        assert fgp.metrics.mnlp == pytest.approx(
            metrics_mod.mnlp(pred, ds.y_test_original), rel=1e-9)
        assert fgp.metrics.srmse == pytest.approx(
            metrics_mod.srmse(pred, ds.y_test_original), rel=1e-9)

    def test_failure_row_recorded_and_flagged(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path / "data.csv")
        roster = [RosterEntry("SVk", "Simult", "VFE")]  # no OAT-BO source
        config = _tiny_config(tmp_path, csv_path, roster)
        results, ok = run_experiment(config)
        assert not ok
        assert len(results) == 1
        assert results[0].failed
        assert "OAT-BO" in results[0].error
        lines = (Path(config.output_dir) / "results.csv").read_text().splitlines()
        assert lines[1].startswith("0,SVk,,,")


class TestEmitResults:
    def test_missing_aukl_is_empty_cell_not_zero(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path / "data.csv")
        roster = [RosterEntry("OBVk", "OAT-BO", "VFE")]
        config = _tiny_config(tmp_path, csv_path, roster)
        run_experiment(config)
        rows = (Path(config.output_dir) / "results.csv").read_text().splitlines()
        cells = rows[1].split(",")
        assert cells[4] == "" and cells[5] == ""

    def test_rerun_with_timing_disabled_is_byte_identical(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path / "data.csv")
        config_a = _tiny_config(tmp_path, csv_path,
                                [RosterEntry("OBVk", "OAT-BO", "VFE"),
                                 RosterEntry("SVO", "Simult", "VFE",
                                             "from-model:OBVk")],
                                record_timing=False)
        config_a.output_dir = str(tmp_path / "out_a")
        results_a, _ = run_experiment(config_a)
        config_b = _tiny_config(tmp_path, csv_path,
                                [RosterEntry("OBVk", "OAT-BO", "VFE"),
                                 RosterEntry("SVO", "Simult", "VFE",
                                             "from-model:OBVk")],
                                record_timing=False)
        config_b.output_dir = str(tmp_path / "out_b")
        results_b, _ = run_experiment(config_b)
        bytes_a = (Path(config_a.output_dir) / "results.csv").read_bytes()
        bytes_b = (Path(config_b.output_dir) / "results.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "out")


class TestDemos:
    def test_spike_demo_emits_sweep(self, tmp_path):
        result = spike_demo(seed=0, out_dir=tmp_path, n_points=80, n_grid=41)
        assert (tmp_path / "spike.csv").exists()
        assert (tmp_path / "spike_knots.csv").exists()
        assert result["objective"].shape == (41,)
        assert len(result["knots"]) == 5
        # monotonicity: a sixth knot never hurts beyond round-off
        assert np.all(result["objective"] >= result["baseline"] - 1e-8)

    def test_synth_demo_runs_and_refines(self, tmp_path):
        result = synth_demo(seed=0, out_dir=tmp_path, n_points=120, max_knots=7)
        assert (tmp_path / "synth_fit.csv").exists()
        assert (tmp_path / "synth_trace.json").exists()
        refined = result["refinement"]
        assert refined.fun >= result["oat_model"].objective() - 1e-10


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second and 40 MB to import, and nothing needs it
    src = str(Path(knotgp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, knotgp.bench, knotgp.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"

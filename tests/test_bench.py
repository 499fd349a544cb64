import csv
import json
import os
import runpy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import knotgp
from knotgp import KernelParams, bench, fit_full, log_marginal_likelihood
from knotgp.adadelta import OptimizerConfig
from knotgp.bench import (Dataset, ExperimentConfig, RosterEntry, Table,
                          emit_results, experiment_runs, load_csv, run_experiment,
                          split_and_standardize)
from knotgp.common import PredictiveDistribution
from knotgp.demos import spike_demo, synth_demo
from knotgp.selection import OATConfig


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEMO_DIR = CONFIG_DIR.parent / "demos"


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

    @pytest.mark.parametrize("text, rules, message", [
        ("", [], r" is empty$"),
        ("a,y\n1.0,2.0\n2.0,inf\n", [], r"^column 'y' contains non-finite values$"),
        ("a,y\n1.0,2.0\n", [("a", "~", 1.0)], r"^unknown comparator '~' in filter rule$"),
    ], ids=["empty file", "non-finite column", "unknown comparator"])
    def test_rejected_file_names_its_fault(self, tmp_path, text, rules, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(path, ["a"], "y", rules)

    def test_blank_data_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,y\n1.0,2.0\n\n , \n3.0,4.0\n")
        table = load_csv(path, ["a"], "y")
        assert table.n_rows == 2
        np.testing.assert_array_equal(table.columns["a"], [1.0, 3.0])
        np.testing.assert_array_equal(table.columns["y"], [2.0, 4.0])

    def test_filter_that_keeps_no_rows_names_the_rules(self, tmp_path):
        path = tmp_path / "f.csv"
        _write_csv(path, ["a", "b", "y"], [(1, 5, 0), (2, 6, 0), (3, 7, 0), (4, 8, 0)])
        with pytest.raises(ValueError, match=r"^filter rules \[\('a', '>', 100\)\] keep none "
                                             r"of the 4 data rows of "):
            load_csv(path, ["a", "b"], "y", [("a", ">", 100)])


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

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        table = Table({"a": np.arange(20.0), "y": np.arange(20.0) % 7}, 20)
        with pytest.raises(ValueError, match=rf"^split fraction must lie in \(0, 1\), "
                                             rf"got {fraction}$"):
            split_and_standardize(table, ["a"], "y", fraction, 0)

    def test_constant_target_rejected(self):
        table = Table({"a": np.arange(20.0), "y": np.full(20, 3.0)}, 20)
        with pytest.raises(ValueError, match=r"^target column 'y' is constant on the "
                                             r"training split$"):
            split_and_standardize(table, ["a"], "y", 0.5, 0)

    def test_one_test_row_rejected(self, tmp_path):
        # srmse needs two test rows; at the split, not after the fits
        path = tmp_path / "six.csv"
        _write_csv(path, ["x1", "x2", "y"], [(i, i * i % 5, i % 3) for i in range(6)])
        table = load_csv(path, ["x1", "x2"], "y")
        with pytest.raises(ValueError, match="too few rows on one side"):
            split_and_standardize(table, ["x1", "x2"], "y", 0.8, 0)
        config = replace(_tiny_config(tmp_path, path, [RosterEntry("FGP", "none", "FullGP")]),
                         split_fraction=0.8)
        with pytest.raises(ValueError, match="too few rows on one side"):
            run_experiment(config)

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

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_no_runs_rejected(self, n_runs):
        with pytest.raises(ValueError, match=rf"^n_runs must be at least 1, got {n_runs}$"):
            ExperimentConfig("d.csv", ["a"], "y", n_runs=n_runs)

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
        assert config.init_params.latent_jitter == 2.0e-6
        # a partial entry keeps the other defaults and the default jitter ratio
        partial = ExperimentConfig.from_dict({**raw, "init_params": {"signal_variance": 2.0}})
        assert partial.init_params == KernelParams(2.0, 1.0, 0.1)
        assert partial.init_params.latent_jitter == 2.0e-6
        assert ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != "rng_seed"}
                                          ).oat.rng_seed == 0
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

    @pytest.mark.parametrize("fields, message", [
        (("Random", "VFE"), "unknown knot_selection 'Random'"),
        (("OAT-BO", "DTC"), "unknown approximation 'DTC'"),
        (("Simult", "VFE", "random"), "unknown knot_init 'random'"),
    ], ids=["knot_selection", "approximation", "knot_init"])
    def test_unknown_roster_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RosterEntry("m", *fields)

    @pytest.mark.parametrize("approximation", ["VFE", "FIC"])
    def test_no_knot_selection_needs_full_gp(self, approximation):
        with pytest.raises(ValueError, match="'none'"):
            RosterEntry("m", "none", approximation)

    @pytest.mark.parametrize("selection, approximation",
                             [("OAT-BO", "VFE"), ("OAT-RS", "FIC"), ("none", "FullGP")])
    def test_knot_init_only_for_simult(self, selection, approximation):
        with pytest.raises(ValueError, match="knot_init"):
            RosterEntry("m", selection, approximation, "from-model:OBVk")

    @pytest.mark.parametrize("earlier", [[], [RosterEntry("ORVk", "OAT-RS", "VFE")],
                                         [RosterEntry("FGP", "none", "FullGP")]],
                             ids=["alone", "after OAT-RS", "after FullGP"])
    def test_kmeans_simult_without_oat_bo_rejected(self, earlier):
        with pytest.raises(ValueError, match=r"^model 'S' needs an earlier OAT-BO entry "
                                             r"to set its knot count$"):
            ExperimentConfig("d.csv", ["a"], "y",
                             model_roster=[*earlier, RosterEntry("S", "Simult", "VFE")])

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

    def test_full_gp_trace_shows_its_search(self, experiment):
        config, results, _ = experiment
        table = load_csv(config.dataset_path, config.predictor_columns,
                         config.target_column, config.filter_rules)
        for (run, ds, _), fgp in zip(experiment_runs(config, table),
                                     (r for r in results if r.model_id == "FGP")):
            trace = fgp.trace
            # the search starts at the round-tripped log vector, whose noise
            # variance may differ from init_params' in the last bit
            init = config.init_params
            start = log_marginal_likelihood(fit_full(ds.x_train, ds.y_train,
                                                     init.with_log_vector(init.log_vector())))
            assert trace["objective_before"] == trace["history"][0]["objective"] == start
            assert trace["history"][-1]["objective"] == trace["objective"] > start
            assert trace["n_steps"] == len(trace["history"]) - 1 >= 1
            assert trace["stop_reason"] == "converged"
            saved = json.loads((Path(config.output_dir) / "traces"
                                / f"run{run}_FGP.json").read_text())
            assert (saved["n_steps"], saved["stop_reason"]) == (trace["n_steps"], "converged")

    def test_failure_row_recorded_and_flagged(self, tmp_path, monkeypatch):
        def failing_oat_select(*args, **kwargs):
            raise RuntimeError("selection failed")

        monkeypatch.setattr(bench, "oat_select", failing_oat_select)
        csv_path = _synthetic_csv(tmp_path / "data.csv")
        config = _tiny_config(tmp_path, csv_path, [RosterEntry("OBVk", "OAT-BO", "VFE")])
        results, ok = run_experiment(config)
        assert not ok
        assert len(results) == 1
        assert results[0].failed
        assert results[0].error == "selection failed"
        lines = (Path(config.output_dir) / "results.csv").read_text().splitlines()
        assert lines[1].startswith("0,OBVk,,,")

    def test_simult_names_a_source_that_failed_in_the_run(self, tmp_path, monkeypatch):
        def failing_oat_select(*args, **kwargs):
            raise RuntimeError("selection failed")

        monkeypatch.setattr(bench, "oat_select", failing_oat_select)
        csv_path = _synthetic_csv(tmp_path / "data.csv")
        roster = [RosterEntry("OBVk", "OAT-BO", "VFE"), RosterEntry("SVk", "Simult", "VFE"),
                  RosterEntry("SVO", "Simult", "VFE", "from-model:OBVk")]
        results, ok = run_experiment(_tiny_config(tmp_path, csv_path, roster))
        assert not ok and all(r.failed for r in results)
        errors = {r.model_id: r.error for r in results}
        assert errors["OBVk"] == "selection failed"
        for model_id in ("SVk", "SVO"):
            assert errors[model_id] == (f"model {model_id!r} starts from model 'OBVk', "
                                        "which failed in this run")


def _two_flag_source(roster, entry):
    """The knot-count source rule of a k-means Simult entry as a two-flag
    loop: the last earlier OAT-BO entry, preferring one with the same
    approximation. The reference for ``_fit_entry``'s list filters."""
    source_id, same_approximation = None, False
    for other in roster:
        if other.model_id == entry.model_id:
            break
        same = other.approximation == entry.approximation
        if other.knot_selection == "OAT-BO" and (same or not same_approximation):
            source_id, same_approximation = other.model_id, same
    return source_id


class _KnotCount(Exception):
    pass


def test_kmeans_knot_count_source_matches_two_flag_loop(monkeypatch):
    def picked(x, k, seed):
        raise _KnotCount(k)

    monkeypatch.setattr(bench, "kmeans_init", picked)
    kinds = [("OAT-BO", "VFE"), ("OAT-BO", "FIC"), ("OAT-RS", "VFE"), ("OAT-RS", "FIC"),
             ("none", "FullGP"), ("Simult", "VFE"), ("Simult", "FIC")]
    dataset = SimpleNamespace(x_train=np.zeros((4, 1)), y_train=np.zeros(4))
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(400):
        roster = [RosterEntry(f"m{i}", *kinds[j])
                  for i, j in enumerate(rng.integers(len(kinds), size=rng.integers(1, 8)))]
        roster.append(RosterEntry("target", "Simult", str(rng.choice(["VFE", "FIC"]))))
        entry = roster[-1]
        # each earlier entry fitted with probability 0.8, with a knot count
        # that names it
        fitted = {e.model_id: SimpleNamespace(n_knots=i) for i, e in enumerate(roster[:-1])
                  if rng.random() < 0.8}
        expected = _two_flag_source(roster, entry)
        no_source = [e.model_id for e in roster
                     if e.knot_selection == "Simult" and _two_flag_source(roster, e) is None]
        if no_source:
            # a roster with a Simult entry that has no source fails when the
            # config loads, at the first such entry
            with pytest.raises(ValueError, match=rf"^model {no_source[0]!r} needs an "
                                                 "earlier OAT-BO entry"):
                ExperimentConfig("d.csv", ["a"], "y", model_roster=roster)
            outcomes.add("no source")
            continue
        config = ExperimentConfig("d.csv", ["a"], "y", model_roster=roster)
        if expected in fitted:
            with pytest.raises(_KnotCount) as picked_count:
                bench._fit_entry(0, entry, config, dataset, 0, fitted)
            assert roster[picked_count.value.args[0]].model_id == expected
            outcomes.add("fitted")
        else:
            with pytest.raises(ValueError) as missing:
                bench._fit_entry(0, entry, config, dataset, 0, fitted)
            assert f"{expected!r}, which failed in this run" in str(missing.value)
            outcomes.add("source failed")
    assert outcomes == {"fitted", "no source", "source failed"}


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
        outputs = []
        for tag in ("a", "b"):
            config = _tiny_config(tmp_path, csv_path,
                                  [RosterEntry("FGP", "none", "FullGP"),
                                   RosterEntry("OBVk", "OAT-BO", "VFE"),
                                   RosterEntry("SVO", "Simult", "VFE",
                                               "from-model:OBVk")],
                                  record_timing=False)
            config.output_dir = str(tmp_path / f"out_{tag}")
            run_experiment(config)
            out = Path(config.output_dir)
            outputs.append({p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "out")


def _assert_float_cells(path: Path):
    """Every data cell of a headered CSV parses as a number."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row:
            float(cell)


class TestDemos:
    def test_spike_demo_emits_sweep(self, tmp_path):
        result = spike_demo(seed=0, out_dir=tmp_path, n_points=80, n_grid=41)
        _assert_float_cells(tmp_path / "spike.csv")
        _assert_float_cells(tmp_path / "spike_knots.csv")
        assert result["objective"].shape == (41,)
        assert len(result["knots"]) == 5
        # monotonicity: a sixth knot never hurts beyond round-off
        assert np.all(result["objective"] >= result["baseline"] - 1e-8)

    def test_synth_demo_runs_and_refines(self, tmp_path):
        result = synth_demo(seed=0, out_dir=tmp_path, n_points=120, max_knots=7)
        _assert_float_cells(tmp_path / "synth_fit.csv")
        _assert_float_cells(tmp_path / "synth_knots.csv")
        assert (tmp_path / "synth_trace.json").exists()
        refined = result["refinement"]
        assert refined.fun >= result["oat_model"].objective() - 1e-10

    @pytest.mark.parametrize("script", ["01_exact_vs_sparse.py",
                                        "02_knot_selection_walkthrough.py",
                                        "03_duplicate_knot_spikes.py"])
    def test_demo_script_runs(self, tmp_path, capsys, script):
        # 04 runs a whole experiment, about 10 s, and is left out
        copy = tmp_path / script
        shutil.copy(DEMO_DIR / script, copy)
        runpy.run_path(str(copy), run_name="__main__")
        assert capsys.readouterr().out


def _loaded_by_import(module: str) -> bool:
    """Whether importing ``knotgp.bench`` and ``knotgp.cli`` in a fresh
    interpreter loads ``module``."""
    src = str(Path(knotgp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, knotgp.bench, knotgp.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second and 40 MB to import, and nothing needs it
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s and 15 MB to import; the package's
    # own BFGS serves the exact-GP search
    assert not _loaded_by_import("scipy.optimize")


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special", "scipy._lib._array_api",
                                    "numpy.f2py", "numpy.testing"])
def test_import_leaves_scipy_python_layers_unloaded(module):
    # scipy.linalg and scipy.special, with the array-API layer they load
    # (which loads numpy.f2py and numpy.testing), cost about 0.36 s and 26 MB
    # per process; common binds the five compiled routines from their
    # extension modules instead
    assert not _loaded_by_import(module)

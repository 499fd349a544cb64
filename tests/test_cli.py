import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from knotgp import bench
from knotgp.cli import main
from knotgp.selection import oat_select


def _write_dataset(path: Path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    y = np.sin(x1) + 0.5 * x2 + 0.2 * rng.standard_normal(n)
    lines = ["x1,x2,y"] + [f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)]
    path.write_text("\n".join(lines) + "\n")


def _write_config(tmp_path: Path, roster, **overrides) -> Path:
    data = tmp_path / "data.csv"
    _write_dataset(data)
    raw = {
        "dataset_path": str(data),
        "predictor_columns": ["x1", "x2"],
        "target_column": "y",
        "split_fraction": 0.75,
        "n_runs": 1,
        "rng_seed": 0,
        "model_roster": roster,
        "oat": {"initial_knot_count": 3, "max_knots": 5, "rs_subset_size": 5,
                "bo_budget": 5, "bo_initial_design": 2, "improvement_tol": 1e-8},
        "optimizer": {"max_steps": 50},
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_fit_subcommand(tmp_path, capsys):
    config = _write_config(tmp_path, [])
    code = main(["fit", "--config", str(config), "--proposal", "rs",
                 "--objective", "vfe", "--max-knots", "4",
                 "--out", str(tmp_path / "fit-out")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert {"objective", "mnlp", "srmse", "knots", "params"} <= set(report)
    assert (tmp_path / "fit-out" / "fit.json").exists()


@pytest.mark.parametrize("proposal, objective, seed", [("bo", "vfe", None), ("rs", "fic", 5)])
def test_fit_matches_oat_select_on_run_zero_split(tmp_path, capsys, proposal, objective, seed):
    path = _write_config(tmp_path, [])
    flags = ["--proposal", proposal, "--objective", objective]
    if seed is not None:
        flags += ["--seed", str(seed)]
    assert main(["fit", "--config", str(path), *flags]) == 0
    report = json.loads(capsys.readouterr().out)

    config = bench.ExperimentConfig.from_json(path)
    if seed is not None:
        config.rng_seed = seed
    config.oat = replace(config.oat, proposal=proposal, objective=objective,
                         rng_seed=config.rng_seed)
    table = bench.load_csv(config.dataset_path, config.predictor_columns,
                           config.target_column, config.filter_rules)
    _, dataset, _ = next(bench.experiment_runs(config, table))
    model, _ = oat_select(dataset.x_train, dataset.y_train, config.init_params,
                          config.oat, config.optimizer)
    assert report["objective"] == model.objective()
    assert report["knots"] == model.n_knots
    assert report["params"] == {"signal_variance": model.params.signal_variance,
                                "lengthscale": model.params.lengthscale,
                                "noise_variance": model.params.noise_variance}


def test_fit_uses_experiment_run_zero_split(tmp_path, monkeypatch):
    roster = [{"model_id": "ORVk", "knot_selection": "OAT-RS", "approximation": "VFE"}]
    config = _write_config(tmp_path, roster, n_runs=2)
    seen = []
    split = bench.split_and_standardize

    def recording(*args, **kwargs):
        dataset = split(*args, **kwargs)
        seen.append(dataset.train_indices)
        return dataset

    monkeypatch.setattr(bench, "split_and_standardize", recording)
    assert main(["experiment", "--config", str(config), "--max-knots", "4"]) == 0
    assert main(["fit", "--config", str(config), "--proposal", "rs",
                 "--max-knots", "4"]) == 0
    assert len(seen) == 3               # two experiment runs, then fit
    np.testing.assert_array_equal(seen[2], seen[0])
    assert not np.array_equal(seen[1], seen[0])


def test_experiment_subcommand(tmp_path):
    roster = [
        {"model_id": "OBVk", "knot_selection": "OAT-BO", "approximation": "VFE"},
        {"model_id": "ORVk", "knot_selection": "OAT-RS", "approximation": "VFE"},
    ]
    config = _write_config(tmp_path, roster)
    code = main(["experiment", "--config", str(config)])
    assert code == 0
    out = tmp_path / "out"
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3


def test_experiment_exit_code_on_model_failure(tmp_path, monkeypatch):
    def failing_oat_select(*args, **kwargs):
        raise RuntimeError("selection failed")

    monkeypatch.setattr(bench, "oat_select", failing_oat_select)
    roster = [{"model_id": "OBVk", "knot_selection": "OAT-BO", "approximation": "VFE"}]
    config = _write_config(tmp_path, roster)
    code = main(["experiment", "--config", str(config)])
    assert code == 1


def test_experiment_rejects_a_roster_at_load(tmp_path, capsys):
    roster = [{"model_id": "SVk", "knot_selection": "Simult",
               "approximation": "VFE"}]   # no OAT-BO source entry
    config = _write_config(tmp_path, roster)
    assert main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("knotgp experiment: error: model 'SVk' needs an "
                                       "earlier OAT-BO entry to set its knot count\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "experiment"])
def test_unknown_config_key_exits_with_one_line(tmp_path, capsys, command):
    config = _write_config(tmp_path, [], n_knots=5)
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"knotgp {command}: error: ") and "'n_knots'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["fit", "experiment"])
def test_missing_config_file_exits_with_one_line(tmp_path, capsys, command):
    missing = tmp_path / "absent.json"
    assert main([command, "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"knotgp {command}: error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_spike_demo_subcommand(tmp_path, capsys):
    code = main(["spike-demo", "--seed", "0", "--out", str(tmp_path / "spike")])
    assert code == 0
    assert (tmp_path / "spike" / "spike.csv").exists()
    out = capsys.readouterr().out
    assert "baseline objective (5 knots, jitter ratio 0.001)" in out


def test_synth_demo_subcommand(tmp_path, capsys):
    code = main(["synth-demo", "--seed", "0", "--max-knots", "7",
                 "--out", str(tmp_path / "synth")])
    assert code == 0
    assert (tmp_path / "synth" / "synth_fit.csv").exists()
    assert "OAT-BO objective" in capsys.readouterr().out

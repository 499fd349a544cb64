"""The experiment harness: the paper's comparison protocol on a CSV dataset.

``load_csv`` reads the predictor and target columns and applies row filters.
``experiment_runs`` derives each run's seeded train/test split, standardized
by training-set statistics, and one seed per roster entry; every random
choice descends from the experiment seed, so a rerun with the same
configuration reproduces the numbers exactly. ``run_experiment`` fits the
roster (OAT-BO, OAT-RS, simultaneous refinement, full GP) on every run and
scores each model on the original target scale, and ``emit_results`` writes
the results CSV, one trace JSON per run and model, and a summary.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import full_gp, metrics as metrics_mod
from .adadelta import OptimizerConfig
from .common import PredictiveDistribution
from .kernels import KernelParams
from .selection import OATConfig, kmeans_init, oat_select, simultaneous_optimize

logger = logging.getLogger(__name__)

KNOT_SELECTIONS = ("OAT-BO", "OAT-RS", "Simult", "none")
APPROXIMATIONS = ("VFE", "FIC", "FullGP")

RESULT_COLUMNS = ("run", "model_id", "mnlp", "srmse", "aukl", "log10_aukl",
                  "seconds", "knots")


# -- tables and datasets -------------------------------------------------------

@dataclass
class Table:
    columns: dict
    n_rows: int


def load_csv(path, predictor_columns, target_column, filter_rules=()) -> Table:
    """Parse the needed columns of a headered CSV and apply row filters.

    Each filter rule is (column, comparator, value) with comparator one of
    ==, !=, <, <=, >, >=. Non-numeric cells in a used column are reported by
    row and column name.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    needed = list(dict.fromkeys(list(predictor_columns) + [target_column]
                                + [rule[0] for rule in filter_rules]))
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        header = [name.strip() for name in header]
        missing = [name for name in needed if name not in header]
        if missing:
            raise ValueError(f"columns {missing} not found in {path} header {header}")
        positions = {name: header.index(name) for name in needed}
        raw = {name: [] for name in needed}
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            for name, pos in positions.items():
                try:
                    raw[name].append(float(row[pos]))
                except (ValueError, IndexError):
                    cell = row[pos] if pos < len(row) else "<missing>"
                    raise ValueError(
                        f"non-numeric cell {cell!r} at row {row_number}, "
                        f"column {name!r} of {path}"
                    ) from None
    columns = {name: np.asarray(values) for name, values in raw.items()}
    n_rows = len(next(iter(columns.values()))) if columns else 0
    if n_rows == 0:
        raise ValueError(f"{path} contains a header but no data rows")
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"column {name!r} contains non-finite values")

    comparators = {
        "==": np.equal, "!=": np.not_equal, "<": np.less,
        "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    }
    keep = np.ones(n_rows, dtype=bool)
    for column, op, value in filter_rules:
        if op not in comparators:
            raise ValueError(f"unknown comparator {op!r} in filter rule")
        keep &= comparators[op](columns[column], float(value))
    columns = {name: values[keep] for name, values in columns.items()}
    return Table(columns, int(np.sum(keep)))


@dataclass
class Dataset:
    """A standardized train/test split with inverse-transform metadata."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray            # standardized, same transform as y_train
    y_test_original: np.ndarray
    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: float
    y_sd: float
    train_indices: np.ndarray
    test_indices: np.ndarray

    def to_original_scale(self, pred: PredictiveDistribution) -> PredictiveDistribution:
        return PredictiveDistribution(
            pred.latent_mean * self.y_sd + self.y_mean,
            pred.latent_variance * self.y_sd ** 2,
            pred.noisy_variance * self.y_sd ** 2,
        )


def split_and_standardize(table: Table, predictor_columns, target_column,
                          fraction: float, run_seed) -> Dataset:
    """Shuffle, split, and center/scale by training-set statistics."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction}")
    x_all = np.column_stack([table.columns[name] for name in predictor_columns])
    y_all = table.columns[target_column]
    n = table.n_rows
    rng = np.random.default_rng(run_seed)
    perm = rng.permutation(n)
    n_train = int(round(fraction * n))
    if n_train < 2 or n - n_train < 1:
        raise ValueError(f"split fraction {fraction} leaves too few rows on one side")
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    x_mean = x_all[train_idx].mean(axis=0)
    x_sd = x_all[train_idx].std(axis=0)
    for j, name in enumerate(predictor_columns):
        if x_sd[j] <= 1e-12 * (abs(x_mean[j]) + 1.0):
            raise ValueError(f"predictor column {name!r} is constant on the training split")
    y_mean = float(y_all[train_idx].mean())
    y_sd = float(y_all[train_idx].std())
    if y_sd <= 0.0:
        raise ValueError(f"target column {target_column!r} is constant on the training split")

    return Dataset(
        x_train=(x_all[train_idx] - x_mean) / x_sd,
        y_train=(y_all[train_idx] - y_mean) / y_sd,
        x_test=(x_all[test_idx] - x_mean) / x_sd,
        y_test=(y_all[test_idx] - y_mean) / y_sd,
        y_test_original=y_all[test_idx].copy(),
        x_mean=x_mean, x_sd=x_sd, y_mean=y_mean, y_sd=y_sd,
        train_indices=train_idx, test_indices=test_idx,
    )


# -- configuration --------------------------------------------------------------

@dataclass(frozen=True)
class RosterEntry:
    model_id: str
    knot_selection: str            # OAT-BO | OAT-RS | Simult | none
    approximation: str             # VFE | FIC | FullGP
    knot_init: str = "kmeans"      # kmeans | from-model:<id>, Simult only

    def __post_init__(self):
        if self.knot_selection not in KNOT_SELECTIONS:
            raise ValueError(f"unknown knot_selection {self.knot_selection!r}")
        if self.approximation not in APPROXIMATIONS:
            raise ValueError(f"unknown approximation {self.approximation!r}")
        if (self.approximation == "FullGP") != (self.knot_selection == "none"):
            raise ValueError("knot_selection 'none' goes with approximation 'FullGP' "
                             "and only with it")
        if not (self.knot_init == "kmeans" or self.knot_init.startswith("from-model:")):
            raise ValueError(f"unknown knot_init {self.knot_init!r}")
        if self.knot_init != "kmeans" and self.knot_selection != "Simult":
            raise ValueError(f"model {self.model_id!r}: knot_init applies only to "
                             "Simult entries")


@dataclass
class ExperimentConfig:
    dataset_path: str
    predictor_columns: list
    target_column: str
    filter_rules: list = field(default_factory=list)
    split_fraction: float = 0.8
    n_runs: int = 5
    rng_seed: int = 0
    model_roster: list = field(default_factory=list)
    oat: OATConfig = field(default_factory=OATConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_dir: str = "results"
    init_params: KernelParams = field(default_factory=lambda: KernelParams(1.0, 1.0, 0.1))
    record_timing: bool = True

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be at least 1, got {self.n_runs}")
        earlier: dict[str, RosterEntry] = {}
        for entry in self.model_roster:
            if entry.model_id in earlier:
                raise ValueError("model roster ids must be unique")
            if entry.knot_init.startswith("from-model:"):
                ref = entry.knot_init.split(":", 1)[1]
                if ref not in earlier or earlier[ref].approximation == "FullGP":
                    raise ValueError(
                        f"model {entry.model_id!r} references {ref!r}, which is not "
                        "an earlier sparse roster entry"
                    )
            earlier[entry.model_id] = entry

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; an unknown key raises ``TypeError``.
        The OAT seed defaults to the experiment seed."""
        raw = dict(raw)
        init = {"signal_variance": 1.0, "lengthscale": 1.0, "noise_variance": 0.1,
                **raw.pop("init_params", {})}
        nested = dict(
            filter_rules=[tuple(rule) for rule in raw.pop("filter_rules", [])],
            model_roster=[RosterEntry(**entry) for entry in raw.pop("model_roster", [])],
            oat=OATConfig(**{"rng_seed": raw.get("rng_seed", 0), **raw.pop("oat", {})}),
            optimizer=OptimizerConfig(**raw.pop("optimizer", {})),
            init_params=KernelParams(**init),
        )
        return cls(**raw, **nested)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def experiment_runs(config: ExperimentConfig, table: Table):
    """Yield ``(run index, dataset, model seeds)`` for each run of ``config``.

    Run r takes the r-th child of the experiment seed and spawns from it the
    seed of its train/test split, then one seed per roster entry in roster
    order.
    """
    for run_index, run_seq in enumerate(
            np.random.SeedSequence(config.rng_seed).spawn(config.n_runs)):
        split_seed, *model_seqs = run_seq.spawn(1 + len(config.model_roster))
        dataset = split_and_standardize(table, config.predictor_columns,
                                        config.target_column, config.split_fraction,
                                        split_seed)
        yield run_index, dataset, [int(seq.generate_state(1)[0]) for seq in model_seqs]


@dataclass
class RunResult:
    run_index: int
    model_id: str
    metrics: metrics_mod.MetricReport | None
    final_params: KernelParams | None
    final_knots: np.ndarray | None
    trace: dict = field(default_factory=dict)
    failed: bool = False
    error: str | None = None


# -- orchestration ---------------------------------------------------------------

def _fit_entry(entry: RosterEntry, config: ExperimentConfig, dataset: Dataset,
               seed: int, fitted: dict):
    """Fit one roster entry to a run's training split.

    ``fitted`` maps the model ids fitted earlier in the run to their models.
    Returns ``(model, objective, history, selection trace or None)``, where
    ``history`` lists ``{"knots", "objective"}`` from the first objective
    recorded to the last.
    """
    x, y = dataset.x_train, dataset.y_train
    if entry.approximation == "FullGP":
        model, res = full_gp.fit_hyperparameters(x, y, config.init_params, config.optimizer)
        return model, res.fun, [{"knots": 0, "objective": res.fun}], None
    objective = entry.approximation.lower()
    if entry.knot_selection != "Simult":
        proposal = "bo" if entry.knot_selection == "OAT-BO" else "rs"
        oat = replace(config.oat, proposal=proposal, objective=objective, rng_seed=seed)
        model, trace = oat_select(x, y, config.init_params, oat, config.optimizer)
        history = [{"knots": step.knot_count, "objective": step.objective_after}
                   for step in trace.steps]
        return model, model.objective(), history, trace.to_dict()
    if entry.knot_init == "kmeans":
        # the knot count follows the last earlier OAT-BO entry, preferring one
        # with the same approximation
        source_id, same_approximation = None, False
        for other in config.model_roster:
            if other.model_id == entry.model_id:
                break
            same = other.approximation == entry.approximation
            if other.knot_selection == "OAT-BO" and (same or not same_approximation):
                source_id, same_approximation = other.model_id, same
        if source_id not in fitted:
            raise ValueError(
                f"model {entry.model_id!r} needs an earlier OAT-BO entry to set its knot count"
            )
        knots0 = kmeans_init(x, fitted[source_id].n_knots, seed)
        params0 = config.init_params
    else:
        source = fitted[entry.knot_init.split(":", 1)[1]]
        knots0, params0 = source.knots.locations.copy(), source.params
    model, res = simultaneous_optimize(x, y, params0, knots0, objective, config.optimizer)
    history = [{"knots": knots0.shape[0], "objective": float(v)} for v in res.trace]
    return model, res.fun, history, None


def run_experiment(config: ExperimentConfig):
    """Fit the whole roster on every run; returns (results, all_succeeded)."""
    table = load_csv(config.dataset_path, config.predictor_columns,
                     config.target_column, config.filter_rules)
    full_gp_ids = {e.model_id for e in config.model_roster if e.approximation == "FullGP"}
    results: list[RunResult] = []
    for run_index, dataset, seeds in experiment_runs(config, table):
        fitted: dict = {}
        predictions: dict[str, PredictiveDistribution] = {}   # original scale
        for entry, seed in zip(config.model_roster, seeds):
            logger.info("run %d: fitting %s", run_index, entry.model_id)
            try:
                start = time.perf_counter()
                model, objective, history, selection = _fit_entry(entry, config, dataset,
                                                                   seed, fitted)
                seconds = time.perf_counter() - start
                pred = (full_gp.predict_full(model, dataset.x_test)
                        if entry.approximation == "FullGP" else model.predict(dataset.x_test))
            except Exception as err:  # noqa: BLE001 - a failed model must not kill the run
                logger.exception("run %d: model %s failed", run_index, entry.model_id)
                results.append(RunResult(run_index, entry.model_id, None, None, None,
                                         failed=True, error=str(err)))
                continue
            fitted[entry.model_id] = model
            predictions[entry.model_id] = pred = dataset.to_original_scale(pred)
            knots = None if entry.approximation == "FullGP" else model.knots.locations
            report = metrics_mod.MetricReport(
                mnlp=metrics_mod.mnlp(pred, dataset.y_test_original),
                srmse=metrics_mod.srmse(pred, dataset.y_test_original),
                train_seconds=seconds,
                knot_count=0 if knots is None else knots.shape[0],
            )
            trace = {"history": history, "objective": objective,
                     "objective_before": history[0]["objective"]}
            if selection is not None:
                trace["selection"] = selection
            results.append(RunResult(run_index, entry.model_id, report, model.params,
                                     knots, trace))

        reference = next((pred for model_id, pred in predictions.items()
                          if model_id in full_gp_ids), None)
        if reference is not None:
            for result in results:
                if (result.run_index == run_index and result.model_id in predictions
                        and result.model_id not in full_gp_ids):
                    value = metrics_mod.aukl(reference, predictions[result.model_id])
                    result.metrics.aukl = value
                    result.metrics.log10_aukl = float(np.log10(value)) if value > 0 else None

    emit_results(results, config.output_dir, record_timing=config.record_timing)
    return results, not any(result.failed for result in results)


# -- persistence -----------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _scrub_seconds(node):
    if isinstance(node, dict):
        return {key: _scrub_seconds(value) for key, value in node.items()
                if not key.endswith("_seconds")}
    if isinstance(node, list):
        return [_scrub_seconds(item) for item in node]
    return node


def _mean_cell(values) -> str:
    values = [v for v in values if v is not None]
    return f"{np.mean(values):.6g}" if values else "-"


def emit_results(results, output_dir, record_timing: bool = True):
    """Write the flat results CSV, one trace JSON per (run, model), and a
    plain-text summary of per-model means. With ``record_timing`` off the
    seconds cells stay empty so reruns are byte-identical."""
    if not results:
        raise ValueError("no results to emit")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)

    with open(out / "results.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RESULT_COLUMNS)
        for result in results:
            rep = result.metrics
            cells = [None] * 6 if rep is None else [
                rep.mnlp, rep.srmse, rep.aukl, rep.log10_aukl,
                rep.train_seconds if record_timing else None, rep.knot_count]
            writer.writerow([_format_cell(cell)
                             for cell in [result.run_index, result.model_id, *cells]])

    for result in results:
        payload = {"run": result.run_index, "model_id": result.model_id,
                   "failed": result.failed, "error": result.error, **result.trace}
        if not record_timing:
            payload = _scrub_seconds(payload)
        name = f"run{result.run_index}_{result.model_id}.json"
        with open(traces / name, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)

    by_model: dict[str, list] = {}
    for result in results:
        by_model.setdefault(result.model_id, []).append(result)
    lines = ["model_id  runs  mean_mnlp  mean_srmse  mean_aukl  mean_seconds  mean_knots  failures"]
    for model_id, group in by_model.items():
        good = [r.metrics for r in group if r.metrics is not None]
        lines.append("  ".join([
            model_id, str(len(group)),
            _mean_cell([m.mnlp for m in good]),
            _mean_cell([m.srmse for m in good]),
            _mean_cell([m.aukl for m in good]),
            _mean_cell([m.train_seconds for m in good]) if record_timing else "-",
            _mean_cell([float(m.knot_count) for m in good]),
            str(sum(1 for r in group if r.failed)),
        ]))
    (out / "summary.txt").write_text("\n".join(lines) + "\n")

"""The benchmark's workloads: inputs made from a seed, the timed calls, the
output checks, and the metrics one run reports.

Every workload fits a model (``fit_s``) and serves it: ``predict`` over
393,216 seeded held-out rows a pass, in 1,024-row chunks, which gives the
prediction throughput, the chunk latencies and the held-out quality (``mnlp``,
``srmse``) on one large test set. Fits, on fresh seeded problems, alternate
with a serving slot of each fitted model until the run's time is used: one
full pass, then more chunks until the slot has lasted ``SERVE_SECONDS``, so
that throughput is measured over a fixed share of the run spread across all
of it rather than over a few short bursts. Fit times are reported as medians.
Quality is the mean over the first three fits, whose inputs follow from the
run's seed alone, so it is identical on every run of a seed.

Synthetic targets are reported on the Airfoil sound-pressure scale (mean
124.8 dB, standard deviation 6.9 dB), as ``knotgp.bench`` reports metrics on
a dataset's original target scale.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import knotgp
from knotgp import bench, full_gp, metrics, selection
from knotgp.adadelta import OptimizerConfig
from knotgp.common import PredictiveDistribution
from knotgp.kernels import KernelParams
from knotgp.sparse_gp import Approximation, SparseGPModel

from tracing import Tracer

DB_MEAN, DB_SD = 124.8, 6.9
CHUNK_ROWS = 1024
SERVE_ROWS = 384 * CHUNK_ROWS   # one serving pass; three give p99 ten samples beyond
SERVE_SECONDS = 2.5           # least wall time of each serving slot
SETUP_REPEATS = 3
REFERENCE_ROWS = 256          # rows per pass checked against the dense reference
REFERENCE_RTOL = 1e-8
INIT_PARAMS = KernelParams(1.0, 1.0, 0.1)

# The six-entry roster of configs/airfoil.json, kept here so that editing the
# example config cannot change the benchmark.
ROSTER = (
    bench.RosterEntry("FGP", "none", "FullGP"),
    bench.RosterEntry("OBVk", "OAT-BO", "VFE"),
    bench.RosterEntry("ORVk", "OAT-RS", "VFE"),
    bench.RosterEntry("OBFk", "OAT-BO", "FIC"),
    bench.RosterEntry("SVk", "Simult", "VFE"),
    bench.RosterEntry("SVO", "Simult", "VFE", "from-model:OBVk"),
)


# -- inputs ----------------------------------------------------------------------

def airfoil_rows(rng, n: int, d: int = 5):
    """The synthetic Airfoil-scale recipe of acceptance test c09."""
    x = rng.standard_normal((n, d))
    y = (np.sin(x[:, 0]) + 0.6 * np.cos(1.3 * x[:, 1]) + 0.3 * x[:, 2]
         + 0.25 * rng.standard_normal(n))
    return x, y


def rep_seed(seed: int, rep: int) -> int:
    """Seed of a run's rep-th problem; rep 0 is the run's own seed."""
    if rep == 0:
        return seed
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


@dataclass
class Problem:
    """One fit's inputs: standardized training rows (or the experiment's
    config), plus held-out rows with targets on the original scale."""

    seed: int
    x: np.ndarray
    y: np.ndarray
    serve_x: np.ndarray | None = None
    serve_y: np.ndarray | None = None
    knots: np.ndarray | None = None
    config: bench.ExperimentConfig | None = None


@dataclass
class Serving:
    """The model a workload serves, how to score it, and what was checked."""

    model: SparseGPModel
    objective_per_n: float
    x: np.ndarray              # held-out inputs on the model's scale
    y: np.ndarray              # held-out targets on the original scale
    y_mean: float
    y_sd: float
    detail: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def airfoil_problem(seed: int, n_total: int, n_train: int, serve: bool) -> Problem:
    """c09's set: ``n_total`` rows standardized together, the first
    ``n_train`` for training. Held-out rows are fresh draws of the recipe."""
    x, y = airfoil_rows(np.random.default_rng(seed), n_total)
    mean, sd = float(y.mean()), float(y.std())
    problem = Problem(seed, x[:n_train], (y[:n_train] - mean) / sd)
    if serve:
        sx, sy = airfoil_rows(np.random.default_rng([seed, 1]), SERVE_ROWS)
        problem.serve_x, problem.serve_y = sx, DB_MEAN + DB_SD * (sy - mean) / sd
    return problem


def to_original(pred: PredictiveDistribution, mean: float, sd: float):
    return PredictiveDistribution(pred.latent_mean * sd + mean,
                                  pred.latent_variance * sd ** 2,
                                  pred.noisy_variance * sd ** 2)


def exact_lml(x, y, params: KernelParams) -> float:
    return full_gp.log_marginal_likelihood(full_gp.fit_full(x, y, params))


# -- workloads -------------------------------------------------------------------

class OatBo:
    """OAT knot selection, VFE objective, BO proposals (the paper's path)."""

    min_reps = 3
    operations = 1             # operations one fit counts toward fail_frac
    max_knots = 12

    def setup(self, seed: int, work: Path, serve: bool = True) -> Problem:
        return airfoil_problem(seed, 1503, 1202, serve)

    def fit(self, p: Problem):
        config = selection.OATConfig(initial_knot_count=5, max_knots=self.max_knots,
                                     proposal="bo", objective="vfe", rng_seed=p.seed)
        return selection.oat_select(p.x, p.y, INIT_PARAMS, config, OptimizerConfig())

    def check(self, p: Problem, outcome) -> list[str]:
        model, trace = outcome
        value = model.objective()
        bound = exact_lml(p.x, p.y, model.params)
        failures = []
        if not np.isfinite(value) or value > bound + 1e-9 * (abs(bound) + 1.0):
            failures.append(f"VFE objective {value!r} is not a finite lower bound "
                            f"on the exact log marginal likelihood {bound!r}")
        if model.n_knots != self.max_knots:
            failures.append(f"stopped at {model.n_knots} knots "
                            f"({trace.stopped_because})")
        return failures

    def serving(self, p: Problem, outcome) -> Serving:
        model = outcome[0]
        return Serving(model, model.objective() / p.x.shape[0], p.serve_x, p.serve_y,
                       DB_MEAN, DB_SD)


class Simult(OatBo):
    """Simultaneous refinement of 80 k-means knots, VFE objective."""

    n_knots = 80
    max_steps = 300

    def setup(self, seed: int, work: Path, serve: bool = True) -> Problem:
        problem = airfoil_problem(seed, 1503, 1202, serve)
        problem.knots = selection.kmeans_init(problem.x, self.n_knots, seed)
        return problem

    def fit(self, p: Problem):
        return selection.simultaneous_optimize(p.x, p.y, INIT_PARAMS, p.knots, "vfe",
                                               OptimizerConfig(max_steps=self.max_steps))

    def check(self, p: Problem, outcome) -> list[str]:
        model, res = outcome
        bound = exact_lml(p.x, p.y, model.params)
        failures = []
        if not res.fun >= res.trace[0]:
            failures.append(f"best objective {res.fun!r} is below the start {res.trace[0]!r}")
        if not res.fun <= bound + 1e-9 * (abs(bound) + 1.0):
            failures.append(f"objective {res.fun!r} exceeds the exact log marginal "
                            f"likelihood {bound!r}")
        return failures

    def serving(self, p: Problem, outcome) -> Serving:
        model, res = outcome
        return Serving(model, res.fun / p.x.shape[0], p.serve_x, p.serve_y,
                       DB_MEAN, DB_SD)


class Experiment:
    """``run_experiment`` over the six-entry Airfoil roster on a seeded CSV."""

    min_reps = 3
    operations = len(ROSTER)
    n_rows = 400
    max_knots = 8
    max_steps = 200
    columns = ("x1", "x2", "x3", "x4")

    def setup(self, seed: int, work: Path, serve: bool = True) -> Problem:
        x, y = airfoil_rows(np.random.default_rng(seed), self.n_rows, d=4)
        mean, sd = float(y.mean()), float(y.std())
        sound = DB_MEAN + DB_SD * (y - mean) / sd
        path = work / f"data-{seed}.csv"
        with open(path, "w") as handle:
            handle.write(",".join(self.columns) + ",sound\n")
            for row, target in zip(x, sound):
                handle.write(",".join(repr(float(v)) for v in (*row, target)) + "\n")
        problem = Problem(seed, x, sound)
        problem.config = bench.ExperimentConfig(
            dataset_path=str(path), predictor_columns=list(self.columns),
            target_column="sound", split_fraction=0.8, n_runs=1, rng_seed=seed,
            model_roster=list(ROSTER),
            oat=selection.OATConfig(initial_knot_count=5, max_knots=self.max_knots,
                                    improvement_tol=1e-4, rs_subset_size=30,
                                    bo_budget=30, bo_initial_design=10),
            optimizer=OptimizerConfig(max_steps=self.max_steps),
            output_dir=str(work / f"out-{seed}"), init_params=INIT_PARAMS,
            record_timing=False)
        if serve:
            sx, sy = airfoil_rows(np.random.default_rng([seed, 1]), SERVE_ROWS, d=4)
            problem.serve_x, problem.serve_y = sx, DB_MEAN + DB_SD * (sy - mean) / sd
        return problem

    def fit(self, p: Problem):
        return bench.run_experiment(p.config)

    def check(self, p: Problem, outcome) -> list[str]:
        results, ok = outcome
        failures = [f"roster entry {r.model_id} failed: {r.error}"
                    for r in results if r.failed]
        if not ok and not failures:
            failures.append("run_experiment reported a failure")
        by_id = {r.model_id: r for r in results if not r.failed}
        if {"SVO", "OBVk"} <= by_id.keys():
            svo, obvk = by_id["SVO"].trace["objective"], by_id["OBVk"].trace["objective"]
            if not svo >= obvk - 1e-10:
                failures.append(f"SVO objective {svo!r} is below OBVk's {obvk!r}")
        return failures

    def serving(self, p: Problem, outcome) -> Serving:
        """OBVk rebuilt on its training split, which is re-derived the way
        run_experiment derives it; the rebuild must reproduce its objective."""
        results, _ = outcome
        obvk = next(r for r in results if r.model_id == "OBVk" and not r.failed)
        config = p.config
        table = bench.load_csv(config.dataset_path, config.predictor_columns,
                               config.target_column)
        run_seq = np.random.SeedSequence(config.rng_seed).spawn(1)[0]
        split_seed = run_seq.spawn(1 + len(config.model_roster))[0]
        ds = bench.split_and_standardize(table, config.predictor_columns,
                                         config.target_column, config.split_fraction,
                                         split_seed)
        model = SparseGPModel(Approximation.DTC, ds.x_train, ds.y_train,
                              obvk.final_params, obvk.final_knots)
        failures = []
        reported = obvk.trace["objective"]
        if abs(model.objective() - reported) > 1e-9 * (abs(reported) + 1.0):
            failures.append(f"rebuilt OBVk objective {model.objective()!r} differs "
                            f"from the reported {reported!r}")
        sparse = [r.metrics for r in results
                  if not r.failed and r.model_id != "FGP" and r.metrics is not None]
        detail = {
            "roster_mean_mnlp": float(np.mean([m.mnlp for m in sparse])),
            "roster_mean_srmse": float(np.mean([m.srmse for m in sparse])),
            "roster_mean_aukl": float(np.mean([m.aukl for m in sparse])),
            "roster_entries": len(results),
        }
        return Serving(model, reported / ds.x_train.shape[0],
                       (p.serve_x - ds.x_mean) / ds.x_sd, p.serve_y, ds.y_mean, ds.y_sd,
                       detail, failures)


WORKLOADS = {"oat_bo": OatBo, "simult": Simult, "experiment": Experiment}


# -- serving and its checks --------------------------------------------------------

def dense_reference(model: SparseGPModel, xt: np.ndarray):
    """DTC predictive moments from explicit K x K solves, independent of the
    library's factorizations and distance code."""
    params = model.params
    u, x = model.knots.locations, model.x

    def kern(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        return params.signal_variance * np.exp(-0.5 * d2 / params.lengthscale ** 2)

    suu = kern(u, u) + params.latent_jitter * np.eye(u.shape[0])
    s = kern(u, x)
    b = suu + s @ s.T / params.noise_variance
    kt = kern(u, xt)
    resid = model.y - model.mean_constant
    mean = model.mean_constant + kt.T @ np.linalg.solve(b, s @ resid) / params.noise_variance
    var = (params.signal_variance + params.latent_jitter
           - np.einsum("kj,kj->j", kt, np.linalg.solve(suu, kt))
           + np.einsum("kj,kj->j", kt, np.linalg.solve(b, kt)))
    return mean, var


@dataclass
class ServeResult:
    chunk_seconds: list = field(default_factory=list)
    mean: np.ndarray | None = None
    variance: np.ndarray | None = None
    bad_chunks: int = 0
    reference_failures: list = field(default_factory=list)


def serve_pass(model: SparseGPModel, xs: np.ndarray, result: ServeResult, seed: int,
               slot: int = 0, min_seconds: float = 0.0):
    """Predict every row in chunks, timing each chunk, and check the outputs;
    then go on predicting the rows again, chunk by chunk, until the slot has
    lasted ``min_seconds``. Only the first pass is kept for scoring."""
    n = xs.shape[0]
    mean, variance = np.empty(n), np.empty(n)
    slot_start = time.perf_counter()
    start = done = 0
    while done < n or time.perf_counter() - slot_start < min_seconds:
        t0 = time.perf_counter()
        pred = model.predict(xs[start:start + CHUNK_ROWS])
        result.chunk_seconds.append(time.perf_counter() - t0)
        if done < n:
            chunk = slice(start, start + len(pred))
            mean[chunk], variance[chunk] = pred.latent_mean, pred.latent_variance
            done += len(pred)
        if not (np.all(np.isfinite(pred.latent_mean))
                and np.all(np.isfinite(pred.latent_variance))
                and np.all(pred.latent_variance >= 0.0)):
            result.bad_chunks += 1
        start = (start + CHUNK_ROWS) % n
    rows = np.random.default_rng([seed, 2, slot]).choice(n, REFERENCE_ROWS, replace=False)
    ref_mean, ref_var = dense_reference(model, xs[rows])
    scale = model.params.signal_variance + model.params.latent_jitter
    mean_err = np.max(np.abs(mean[rows] - ref_mean) / np.maximum(np.abs(ref_mean), 1.0))
    var_err = np.max(np.abs(variance[rows] - ref_var)) / scale
    if mean_err > REFERENCE_RTOL or var_err > REFERENCE_RTOL:
        result.reference_failures.append(
            f"predictions differ from the dense reference: mean {mean_err:.3g}, "
            f"variance {var_err:.3g} relative")
    result.mean, result.variance = mean, variance


def quality(serving: Serving, served: ServeResult) -> dict:
    """Held-out quality of the last pass's predictions, and the fit's objective."""
    pred = PredictiveDistribution(served.mean, served.variance,
                                  served.variance + serving.model.params.noise_variance)
    pred = to_original(pred, serving.y_mean, serving.y_sd)
    return {"mnlp": metrics.mnlp(pred, serving.y),
            "srmse": metrics.srmse(pred, serving.y),
            "neg_objective_per_n": -serving.objective_per_n}


# -- one run ---------------------------------------------------------------------

def fresh_import_seconds() -> float:
    """Wall time for a new interpreter to start and import the package."""
    src = str(Path(knotgp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import knotgp.bench"], env=env, check=True)
    return time.perf_counter() - start


@dataclass
class RunOutput:
    correct: bool
    attempted: int
    failed: int
    metrics: dict              # name -> (value, unit)
    detail: dict


class _Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def operations(self, count: int, messages: list[str], label: str):
        """``count`` operations, of which one per message failed."""
        self.attempted += count
        self.failed += min(len(messages), count)
        self.messages.extend(f"{label}: {m}" for m in messages)

    def fail(self, messages: list[str], label: str):
        """Failures of operations already counted, one per message."""
        self.failed += len(messages)
        self.messages.extend(f"{label}: {m}" for m in messages)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        spans_path: Path | None = None) -> RunOutput:
    """One benchmark run; ``work`` is a scratch directory inside the checkout.

    Fits and serving slots alternate, so that both kinds of sample are
    spread over the whole run rather than bunched at one end of it. After
    ``min_reps`` fits, another fit and slot start only while their expected
    midpoint, from the mean of those before, falls within ``seconds``, so
    that a run measures for about ``seconds`` rather than up to a whole fit
    and slot longer.
    """
    workload = WORKLOADS[name]()
    work.mkdir(parents=True, exist_ok=True)
    tally = _Tally()

    def problem(rep: int, serve: bool) -> Problem:
        return workload.setup(rep_seed(seed, rep), work, serve)

    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds()
        start = time.perf_counter()
        p0 = problem(0, serve=True)
        setup_seconds.append(imported + time.perf_counter() - start)

    fit_seconds, rep_quality = [], []
    served = ServeResult()
    window_start = time.perf_counter()
    while (len(fit_seconds) < workload.min_reps
           or (time.perf_counter() - window_start) * (1 + 0.5 / len(fit_seconds))
           < seconds):
        rep = len(fit_seconds)
        p = p0 if rep == 0 else problem(rep, serve=True)
        start = time.perf_counter()
        outcome = workload.fit(p)
        fit_seconds.append(time.perf_counter() - start)
        tally.operations(workload.operations, workload.check(p, outcome), f"fit {rep}")
        serving = workload.serving(p, outcome)
        tally.fail(serving.failures, f"serving {rep}")
        serve_pass(serving.model, serving.x, served, seed, rep, SERVE_SECONDS)
        if rep < workload.min_reps:
            rep_quality.append(quality(serving, served))
        if rep == 0:
            first_detail = serving.detail

    chunks = len(served.chunk_seconds)
    tally.operations(chunks, [], "predict")
    tally.fail(served.reference_failures, "predict")
    if served.bad_chunks:
        tally.failed += served.bad_chunks
        tally.messages.append(f"predict: {served.bad_chunks} chunks had non-finite "
                              "or negative variances")
    quality_values = {key: float(np.mean([q[key] for q in rep_quality]))
                      for key in rep_quality[0]}
    chunk_ms = 1e3 * np.asarray(served.chunk_seconds)
    result = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "fit_s": (statistics.median(fit_seconds), "s"),
        "predict_rows_per_s": (chunks * CHUNK_ROWS / float(np.sum(served.chunk_seconds)),
                               "rows/s"),
        "mnlp": (quality_values["mnlp"], "nats"),
        "srmse": (quality_values["srmse"], "ratio"),
        "neg_objective_per_n": (quality_values["neg_objective_per_n"], "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = dict(first_detail)
    detail.update(quality=quality_values, rep_quality=rep_quality,
                  setup_s_all=setup_seconds, fit_s_all=fit_seconds,
                  samples={"setups": SETUP_REPEATS, "fits": len(fit_seconds),
                           "predict_chunks": chunks, "chunk_rows": CHUNK_ROWS},
                  predict_chunk_p50_ms=float(np.percentile(chunk_ms, 50)),
                  predict_chunk_p99_ms=float(np.percentile(chunk_ms, 99)))

    if trace:
        result, traced_detail = _traced_run(workload, seed, p0, first_detail,
                                            rep_quality[0], tally, spans_path)
        detail.update(traced_detail)
    detail.update(failures=tally.messages, fail_frac=tally.failed / tally.attempted)
    return RunOutput(tally.failed == 0, tally.attempted, tally.failed, result, detail)


def _traced_run(workload, seed: int, p0: Problem, untraced_detail: dict,
                untraced_quality: dict, tally: _Tally, spans_path: Path | None):
    """Repeat rep 0's fit and one serving pass with the wrappers installed.

    The traced fit must reproduce the untraced one exactly. The tracing
    overhead is its time minus that of an untraced fit of the same inputs run
    just before it, so that both are warm and close together in time.
    Building the served model and checking outputs are the benchmark's own
    work and stay untraced.
    """
    start = time.perf_counter()
    workload.fit(p0)
    untraced_fit_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        outcome = workload.fit(p0)
        traced_fit_s = time.perf_counter() - start
    traced_serving = workload.serving(p0, outcome)
    served = ServeResult()
    with tracer.installed():
        serve_pass(traced_serving.model, traced_serving.x, served, seed)
    messages = workload.check(p0, outcome) + traced_serving.failures
    traced_quality = quality(traced_serving, served)
    if traced_quality != untraced_quality or traced_serving.detail != untraced_detail:
        messages.append(f"tracing changed the results: {traced_quality} "
                        f"{traced_serving.detail} vs {untraced_quality} {untraced_detail}")
    tally.operations(workload.operations, messages, "traced fit")

    layers, absent = tracer.layer_metrics()
    entry_seconds = {}
    if isinstance(workload, Experiment):
        entry_seconds = {r.model_id: r.metrics.train_seconds
                         for r in outcome[0] if r.metrics is not None}
    for entry in ROSTER:
        key = f"bench.entry.{entry.model_id}.s"
        layers[key] = (entry_seconds.get(entry.model_id, 0.0), "s")
        if entry.model_id not in entry_seconds:
            absent[key] = "no roster on this workload"
    overhead = traced_fit_s - untraced_fit_s
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.overhead_frac"] = (overhead / untraced_fit_s, "ratio")
    if spans_path is not None:
        tracer.save(spans_path)
    return layers, {"absent": absent, "traced_fit_s": traced_fit_s,
                    "untraced_fit_s": untraced_fit_s, "traced_quality": traced_quality}

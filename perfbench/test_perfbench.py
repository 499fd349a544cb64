"""The benchmark's own tests: wrapper coverage, tracing that changes nothing,
output checks that bite, and the entry point's refusal outside a checkout.

Run from the repository root with ``python -m pytest perfbench``. The
workloads are shrunk here (fewer knots, steps and rows) so that each traced
run takes seconds; the code paths are the benchmark's own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

LAYERS = json.loads((HERE / "layer_map.json").read_text())["layers"]
SEED = 7


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one traced run takes a few seconds."""
    monkeypatch.setattr(workloads, "SERVE_ROWS", 16 * workloads.CHUNK_ROWS)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SERVE_SECONDS", 0.0)
    for workload in workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "min_reps", 1)
    monkeypatch.setattr(workloads.OatBo, "max_knots", 7)
    monkeypatch.setattr(workloads.Simult, "max_steps", 20)
    monkeypatch.setattr(workloads.Simult, "n_knots", 10)
    for name, value in {"n_rows": 120, "max_knots": 7, "max_steps": 30}.items():
        monkeypatch.setattr(workloads.Experiment, name, value)


def _run(name, tmp_path, trace, seed=SEED):
    work = tmp_path / f"{name}-{trace}"
    return workloads.run(name, seed, 0.01, trace, work)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_coverage(small, tmp_path, name):
    """Each layer records calls where the map says the workload exercises it
    and none where the map says the workload bypasses it."""
    out = _run(name, tmp_path, trace=True)
    assert out.correct, out.detail["failures"]
    named = {m for layer in LAYERS for m in layer["metrics"]}
    assert named == set(out.metrics), named ^ set(out.metrics)
    for layer in LAYERS:
        if layer["probe"] is None:
            continue
        value = out.metrics[layer["probe"]][0]
        if name in layer["exercised"]:
            assert value >= 1, f"{layer['probe']} recorded nothing on {name}"
        if name in layer["bypassed"]:
            assert value == 0, f"{layer['probe']} = {value} on {name}, which bypasses it"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_results_bit_identical(small, tmp_path, name):
    untraced = _run(name, tmp_path, trace=False)
    traced = _run(name, tmp_path, trace=True)
    assert untraced.correct and traced.correct
    assert traced.detail["traced_quality"] == untraced.detail["rep_quality"][0]
    for metric in ("mnlp", "srmse", "neg_objective_per_n"):
        assert untraced.metrics[metric][0] == traced.detail["quality"][metric]


def test_benchmark_json_lists_what_a_run_prints(small, tmp_path):
    """BENCHMARK.json names every metric a run prints, with the same unit."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        printed = _run("oat_bo", tmp_path, trace=trace).metrics
        listed = {m["name"]: m["unit"] for m in bench[section]}
        assert listed == {name: unit for name, (_, unit) in printed.items()}


def test_wrapper_patched_only_where_defined_is_caught(small):
    """selection.py calls ``maximize`` through its own ``from .adadelta import``
    name; a wrapper left only in knotgp.adadelta records none of those calls,
    which the coverage rule reports."""
    problem = workloads.OatBo().setup(SEED, None, serve=False)
    counts = {}
    for everywhere in (True, False):
        tracer = Tracer()
        with tracer.installed():
            if not everywhere:
                for owner, attr, original, defined_in in tracer.patches:
                    if owner is not defined_in:
                        setattr(owner, attr, original)
            workloads.OatBo().fit(problem)
        counts[everywhere] = tracer.layer_metrics()[0]["selection.inner.evals"][0]
    assert counts[True] >= 1
    assert counts[False] == 0


def test_serve_check_rejects_wrong_predictions(small):
    """A prediction off by one part in 1e6 fails the dense-reference check."""
    problem = workloads.Simult().setup(SEED, None)
    model, _ = workloads.Simult().fit(problem)

    class Skewed:
        params, knots, x, y, mean_constant = (model.params, model.knots, model.x,
                                              model.y, model.mean_constant)

        def predict(self, xs):
            pred = model.predict(xs)
            pred.latent_mean = pred.latent_mean * (1.0 + 1e-6)
            return pred

    good, bad = workloads.ServeResult(), workloads.ServeResult()
    workloads.serve_pass(model, problem.serve_x, good, SEED)
    workloads.serve_pass(Skewed(), problem.serve_x, bad, SEED)
    assert good.reference_failures == [] and good.bad_chunks == 0
    assert len(bad.reference_failures) == 1


def test_output_checks_flag_bad_fits():
    """The oat_bo checks reject too few knots and an objective above the
    exact log marginal likelihood."""
    problem = workloads.OatBo().setup(SEED, None, serve=False)
    five_knots = workloads.SparseGPModel(
        workloads.Approximation.DTC, problem.x, problem.y, workloads.INIT_PARAMS,
        problem.x[:5])

    class Trace:
        stopped_because = "improvement below tolerance"

    class AboveBound:
        params, n_knots = five_knots.params, workloads.OatBo.max_knots

        @staticmethod
        def objective():
            return 0.0     # above any log marginal likelihood of 1,202 rows

    assert len(workloads.OatBo().check(problem, (five_knots, Trace()))) == 1
    assert len(workloads.OatBo().check(problem, (AboveBound(), Trace()))) == 1


def test_refuses_to_run_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the entry point
    exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oat_bo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_follow_the_seed():
    a = workloads.OatBo().setup(3, None, serve=False)
    b = workloads.OatBo().setup(3, None, serve=False)
    c = workloads.OatBo().setup(4, None, serve=False)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)

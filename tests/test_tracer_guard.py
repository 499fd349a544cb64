"""The benchmark's tracer patches knotgp by name (``SparseGPModel._build``,
``objective_grad``, ``predict``, ``fit_full``, ``predict_full``, ...), and
the experiment harness too (``bench.run_experiment``, ``emit_results``,
``load_csv``). Installing it here, read-only from ``perfbench/tracing.py``,
catches a rename that would break every traced benchmark run, or silently
blind the metrics that come from a wrapper, such as the prediction throughput
or the experiment workload's per-layer metrics."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("knotgp_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    from knotgp import bench, full_gp, selection
    from knotgp.sparse_gp import SparseGPModel

    def current():
        return (SparseGPModel._build, SparseGPModel.predict, selection.oat_select,
                full_gp.fit_full, full_gp.predict_full, bench.run_experiment,
                bench.emit_results, bench.load_csv)

    originals = current()
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in tracer.patches}
        assert ("SparseGPModel", "_build") in patched
        assert ("SparseGPModel", "predict") in patched
        assert ("knotgp.selection", "oat_select") in patched
        assert ("knotgp.full_gp", "predict_full") in patched
        assert ("knotgp.bench", "run_experiment") in patched
        assert ("knotgp.bench", "emit_results") in patched
        assert ("knotgp.bench", "load_csv") in patched
        assert all(now is not before for now, before in zip(current(), originals))
    assert not tracer.patches
    assert current() == originals

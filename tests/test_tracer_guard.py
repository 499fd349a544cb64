"""The benchmark's tracer patches knotgp by name (``SparseGPModel._build``,
``objective_grad``, ``fit_full``, ...). Installing it here, read-only from
``perfbench/tracing.py``, catches a rename that would break every traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("knotgp_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    from knotgp import full_gp, selection
    from knotgp.sparse_gp import SparseGPModel

    originals = (SparseGPModel._build, selection.oat_select, full_gp.fit_full)
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in tracer.patches}
        assert ("SparseGPModel", "_build") in patched
        assert ("knotgp.selection", "oat_select") in patched
        assert SparseGPModel._build is not originals[0]
    assert not tracer.patches
    assert (SparseGPModel._build, selection.oat_select, full_gp.fit_full) == originals

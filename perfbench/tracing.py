"""Timing wrappers around knotgp's public functions, installed from outside.

A :class:`Tracer` replaces each wrapped function in every ``knotgp`` module
that holds it under that name. Patching only the defining module would miss
calls made through ``from .adadelta import maximize``-style imports, so the
installer scans every loaded ``knotgp`` module for the original object. The
methods of ``SparseGPModel`` are patched on the class.

Each call records a span (name, start, end, parent). Spans stay in memory in
flat arrays and are written out once, by :meth:`Tracer.save`. A span's self
time is its duration minus the time covered by its child spans. Counters that
need the arguments or the result (rows predicted, N*K^2 work, optimizer stop
reasons, objective evaluations) are kept at the same boundaries.

Nothing here changes an argument's value or a result: the wrappers forward
every call unchanged, apart from handing ``chol_lower`` a diagnostics dict
when the caller passed none, which only counts ridge retries.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Callers that own an adadelta.maximize call, nearest first in the span stack.
_OPTIMIZER_ROLES = {
    "selection.propose_bo": "selection.surrogate",
    "selection.oat_select": "selection.inner",
    "selection.simultaneous_optimize": "selection.simult",
    "bench.run_experiment": "bench.fgp",
}
_PROPOSALS = ("selection.propose_bo", "selection.propose_rs")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[list] = []     # [span index, name, seconds covered by children]
        # (module or class, attribute, original, defining module or class)
        self.patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [index, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_end[index] = end
            duration = end - start
            self.calls[name] += 1
            self.inclusive_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def nearest(self, names) -> str | None:
        """Name of the innermost open span among ``names``."""
        for frame in reversed(self._stack):
            if frame[1] in names:
                return frame[1]
        return None

    def add(self, counter: str, value=1):
        self.counts[counter] += value

    def observe_max(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def save(self, path: Path):
        """Write every span as flat arrays (name id, start, end, parent)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            start=np.frombuffer(self.span_start),
                            end=np.frombuffer(self.span_end),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32))

    # -- installation ---------------------------------------------------------

    def _patch_everywhere(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self.patches.append((owner, attr, original, owner))
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("knotgp"):
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                self.patches.append((module, attr, original, owner))

    def _timed(self, owner, attr: str, name: str):
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patch_everywhere(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function; undo with :meth:`uninstall`."""
        from knotgp import adadelta, bench, common, full_gp, kernels, metrics, selection
        from knotgp.sparse_gp import SparseGPModel

        self._timed(kernels, "squared_distances", "kernels.squared_distances")
        self._timed(common, "as_input_matrix", "common.as_input_matrix")
        self._wrap_chol_lower(common)
        self._wrap_model(SparseGPModel)
        self._wrap_full_gp(full_gp)
        self._wrap_maximize(adadelta)
        for attr in ("oat_select", "simultaneous_optimize", "propose_bo", "propose_rs"):
            self._timed(selection, attr, f"selection.{attr}")
        self._timed(selection, "kmeans_init", "selection.kmeans")
        for attr in ("aukl", "mnlp", "srmse"):
            self._timed(metrics, attr, f"metrics.{attr}")
        self._timed(bench, "load_csv", "bench.load_csv")
        self._timed(bench, "split_and_standardize", "bench.split")
        self._timed(bench, "run_experiment", "bench.run_experiment")
        self._wrap_emit(bench)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    @contextmanager
    def installed(self):
        """The wrappers, installed for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap_chol_lower(self, common):
        original = common.chol_lower

        def chol_lower(matrix, *args, **kwargs):
            # chol_lower(matrix, escalations, diagnostics, label)
            args = list(args)
            if len(args) >= 2:
                args[1] = diagnostics = {} if args[1] is None else args[1]
            else:
                if kwargs.get("diagnostics") is None:
                    kwargs["diagnostics"] = {}
                diagnostics = kwargs["diagnostics"]
            before = diagnostics.get("near_singular_factorizations", 0)
            try:
                return self.call("common.chol_lower", original, matrix, *args, **kwargs)
            finally:
                self.add("common.chol_lower.retries",
                         diagnostics.get("near_singular_factorizations", 0) - before)

        self._patch_everywhere(common, "chol_lower", chol_lower)

    def _wrap_model(self, cls):
        build = cls.__dict__["_build"]
        grad = cls.__dict__["objective_grad"]
        gain = cls.__dict__["objective_with_added_knot"]
        predict = cls.__dict__["predict"]

        def _build(model):
            self.add("sparse_gp.work_nk2", model.x.shape[0] * len(model.knots) ** 2)
            return self.call("sparse_gp.build", build, model)

        def objective_grad(model, active_knot_index=None, all_knots=False):
            if all_knots:
                name = "sparse_gp.grad_all"
            elif active_knot_index is not None:
                name = "sparse_gp.grad_one"
            else:
                name = "sparse_gp.grad_params"
            return self.call(name, grad, model, active_knot_index, all_knots)

        def objective_with_added_knot(model, location):
            scored = self.nearest(_PROPOSALS) is not None
            value = -np.inf
            try:
                value = self.call("sparse_gp.gain", gain, model, location)
                return value
            finally:
                if scored:
                    self.add("selection.gains.candidates")
                    self.add("selection.gains.finite", int(np.isfinite(value)))

        def predict_(model, test_inputs):
            before = model.diagnostics.get("negative_variance_clamps", 0)
            result = self.call("sparse_gp.predict", predict, model, test_inputs)
            self.add("sparse_gp.predict.rows", len(result))
            self.add("sparse_gp.predict.clamps",
                     model.diagnostics.get("negative_variance_clamps", 0) - before)
            return result

        self._patch_everywhere(cls, "_build", _build)
        self._patch_everywhere(cls, "objective_grad", objective_grad)
        self._patch_everywhere(cls, "objective_with_added_knot", objective_with_added_knot)
        self._patch_everywhere(cls, "predict", predict_)

    def _wrap_full_gp(self, full_gp):
        fit = full_gp.fit_full
        lml = full_gp.log_marginal_likelihood

        def fit_full(*args, **kwargs):
            model = self.call("full_gp.fit", fit, *args, **kwargs)
            self.observe_max("full_gp.max_n", model.n_train)
            return model

        def log_marginal_likelihood(model, with_grad=False):
            name = "full_gp.lml_grad" if with_grad else "full_gp.lml"
            return self.call(name, lml, model, with_grad)

        self._patch_everywhere(full_gp, "fit_full", fit_full)
        self._patch_everywhere(full_gp, "log_marginal_likelihood", log_marginal_likelihood)
        self._timed(full_gp, "predict_full", "full_gp.predict")

    def _wrap_maximize(self, adadelta):
        original = adadelta.maximize

        def maximize(objective_with_grad, *args, **kwargs):
            role = _OPTIMIZER_ROLES.get(self.nearest(_OPTIMIZER_ROLES), "adadelta.other")
            evals = [0]

            def counted(vec):
                evals[0] += 1
                return objective_with_grad(vec)

            start = time.perf_counter()
            try:
                result = self.call("adadelta.maximize", original, counted, *args, **kwargs)
            except Exception:
                self.add("adadelta.stop.raised")
                raise
            finally:
                self.add(f"{role}.evals", evals[0])
                self.add(f"{role}.s", time.perf_counter() - start)
            reason = result.stop_reason
            self.add("adadelta.stop." + ("non_finite" if reason.startswith("non_finite")
                                         else reason))
            trace = np.asarray(result.trace)
            best_before = np.maximum.accumulate(trace)[:-1]
            self.add("adadelta.steps", trace.size - 1)
            self.add("adadelta.improving_steps", int(np.sum(trace[1:] > best_before)))
            return result

        self._patch_everywhere(adadelta, "maximize", maximize)

    def _wrap_emit(self, bench):
        original = bench.emit_results

        def emit_results(results, output_dir, *args, **kwargs):
            out = self.call("bench.emit", original, results, output_dir, *args, **kwargs)
            self.add("bench.emit.bytes", sum(p.stat().st_size
                                             for p in Path(output_dir).rglob("*")
                                             if p.is_file()))
            return out

        self._patch_everywhere(bench, "emit_results", emit_results)

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """Every per-layer metric as {name: (value, unit)}, plus the reason
        each zero reading has, keyed by metric name."""
        out: dict = {}
        absent: dict = {}

        def span(name: str, *fields):
            for field in fields:
                if field == "calls":
                    out[f"{name}.calls"] = (self.calls[name], "count")
                elif field == "self_s":
                    out[f"{name}.self_s"] = (self.self_s[name], "s")
                else:
                    out[f"{name}.s"] = (self.inclusive_s[name], "s")
                if not self.calls[name]:
                    absent[f"{name}.{field}"] = "no call recorded"

        def count(name: str, unit: str = "count", source: str | None = None):
            out[name] = (self.counts[source or name], unit)
            if not self.counts[source or name]:
                absent[name] = "no event recorded"

        def ratio(name: str, numerator: str, denominator: str):
            den = self.counts[denominator]
            out[name] = (self.counts[numerator] / den if den else 0.0, "ratio")
            if not den:
                absent[name] = f"undefined: {denominator} is 0"

        span("kernels.squared_distances", "calls", "self_s")
        span("common.as_input_matrix", "calls", "self_s")
        span("common.chol_lower", "calls")
        count("common.chol_lower.retries")
        span("sparse_gp.build", "calls", "self_s")
        count("sparse_gp.work_nk2")
        for layer in ("grad_params", "grad_one", "grad_all", "gain"):
            span(f"sparse_gp.{layer}", "calls", "self_s")
        span("sparse_gp.predict", "calls", "self_s")
        count("sparse_gp.predict.rows", "rows")
        count("sparse_gp.predict.clamps")
        for layer in ("fit", "lml_grad", "predict"):
            span(f"full_gp.{layer}", "calls", "self_s")
        out["full_gp.max_n"] = (self.maxima.get("full_gp.max_n", 0), "rows")
        if "full_gp.max_n" not in self.maxima:
            absent["full_gp.max_n"] = "no call recorded"
        span("adadelta.maximize", "calls", "self_s")
        for reason in ("converged", "max_steps", "non_finite", "raised"):
            count(f"adadelta.stop.{reason}")
        ratio("adadelta.improving_frac", "adadelta.improving_steps", "adadelta.steps")
        for role in ("selection.surrogate", "selection.inner", "selection.simult"):
            count(f"{role}.evals")
            count(f"{role}.s", "s")
        count("bench.fgp.evals")
        calls, seconds, rounds = self.proposal_totals()
        out["selection.propose.calls"] = (calls, "count")
        out["selection.propose.s"] = (seconds, "s")
        out["selection.rounds"] = (rounds, "count")
        if not calls:
            absent.update({f"selection.{m}": "no proposal recorded"
                           for m in ("propose.calls", "propose.s", "rounds")})
        span("selection.kmeans", "calls", "self_s")
        count("selection.gains.candidates")
        ratio("selection.gains.finite_frac", "selection.gains.finite",
              "selection.gains.candidates")
        span("metrics.aukl", "calls", "s")
        span("metrics.mnlp", "s")
        span("metrics.srmse", "s")
        for name in ("load_csv", "split", "emit"):
            span(f"bench.{name}", "s")
        count("bench.emit.bytes", "bytes")
        return out, absent

    def proposal_totals(self) -> tuple[int, float, int]:
        """(calls, inclusive seconds, rounds) over outermost proposal spans.

        A proposal nested in another (BO falling back to random subset) is
        counted once; a round is an outermost proposal issued by oat_select.
        """
        ids = {self._name_ids[n] for n in _PROPOSALS if n in self._name_ids}
        oat = self._name_ids.get("selection.oat_select")
        calls = rounds = 0
        seconds = 0.0
        for i, name_id in enumerate(self.span_name):
            if name_id not in ids:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] not in ids \
                    and self.span_name[parent] != oat:
                parent = self.span_parent[parent]
            if parent >= 0 and self.span_name[parent] in ids:
                continue
            calls += 1
            seconds += self.span_end[i] - self.span_start[i]
            rounds += int(parent >= 0)
        return calls, seconds, rounds

"""Span tracer that wraps resamplerec's public functions from outside the package.

Nothing in resamplerec is edited. `Tracer.install()` replaces every module
binding of each wrapped function (the defining module, the package
re-exports and every `from ... import` copy in other modules) with a
recording wrapper, and `uninstall()` restores the originals. Pools are
traced by wrapping `ProcessPoolExecutor.__init__`/`shutdown` on the class,
so every import binding of the class is covered.

A span is (id, parent, name, start_ns, end_ns, pid, ok, phase, attrs).
`perf_counter_ns` is CLOCK_MONOTONIC on Linux, so spans from forked pool
workers share the parent's time axis. Workers exit without running
`atexit`, so a worker appends its spans to `spans-<pid>.jsonl` each time
one of its top-level wrapped calls returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from concurrent.futures.process import ProcessPoolExecutor
from pathlib import Path

# (defining module, function, span name). Span names are `<layer>.<name>`;
# several functions may share one name (e.g. both tree builders).
WRAPPED = [
    ("resamplerec.cli", "main", "cli.main"),
    ("resamplerec.pipeline", "cmd_gen", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_grid", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_meta", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_train", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_recommend", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_assess", "pipeline.cmd"),
    ("resamplerec.pipeline", "cmd_report", "pipeline.cmd"),
    ("resamplerec.data", "generate_mixture", "data.generate_mixture"),
    ("resamplerec.data", "write_csv", "data.write_csv"),
    ("resamplerec.data", "ingest_csv", "data.ingest_csv"),
    ("resamplerec.resampling", "resample", "resampling.resample"),
    ("resamplerec.resampling", "random_oversample", "resampling.ros"),
    ("resamplerec.resampling", "random_undersample", "resampling.rus"),
    ("resamplerec.resampling", "smote", "resampling.smote"),
    ("resamplerec.learners", "fit_arrays", "learners.fit"),
    ("resamplerec.learners", "predict_scores", "learners.predict"),
    ("resamplerec.learners.tree", "build_classification_tree", "learners.tree_build"),
    ("resamplerec.learners.tree", "build_regression_tree", "learners.tree_build"),
    ("resamplerec.learners.boost", "fit_boosted_classifier", "learners.boost"),
    ("resamplerec.learners.boost", "fit_boosted_regressor", "learners.boost"),
    ("resamplerec.learners.logreg", "fit_logreg_l1", "learners.logreg"),
    ("resamplerec.learners.knn", "knn_scores", "learners.knn"),
    ("resamplerec.evaluation", "quality_grid", "evaluation.quality_grid"),
    ("resamplerec.evaluation", "cv_quality", "evaluation.cv_quality"),
    ("resamplerec.evaluation", "pr_auc", "evaluation.pr_auc"),
    ("resamplerec.evaluation", "save_grid", "evaluation.save_grid"),
    ("resamplerec.evaluation", "load_grid", "evaluation.load_grid"),
    ("resamplerec.metafeatures", "compute_meta_features", "metafeatures.compute"),
    ("resamplerec.qualityvars", "compute_quality_variables", "qualityvars.compute"),
    ("resamplerec.recommender", "train_approach1", "recommender.train"),
    ("resamplerec.recommender", "train_approach2", "recommender.train"),
    ("resamplerec.recommender", "recommend", "recommender.recommend"),
    ("resamplerec.recommender", "load_recommender", "recommender.load"),
    ("resamplerec.assessment", "assess_bank", "assessment.assess_bank"),
    # the unit of work each process pool runs; private, wrapped only if present
    ("resamplerec.evaluation", "_grid_cell_task", "evaluation.pool_task"),
    ("resamplerec.pipeline", "_grid_pool_task", "pipeline.pool_task"),
    ("resamplerec.assessment", "_static_cells_task", "assessment.pool_task"),
]

# span names reported as per-layer `<name>.calls`, `.s` and `.self_s`
REPORTED = [
    "cli.main", "pipeline.cmd",
    "data.generate_mixture", "data.write_csv", "data.ingest_csv",
    "resampling.ros", "resampling.rus", "resampling.smote",
    "learners.fit", "learners.tree_build", "learners.boost", "learners.logreg",
    "learners.knn", "learners.predict",
    "evaluation.quality_grid", "evaluation.cv_quality", "evaluation.pr_auc",
    "evaluation.save_grid", "evaluation.load_grid",
    "metafeatures.compute", "qualityvars.compute",
    "recommender.train", "recommender.recommend", "recommender.load",
    "assessment.assess_bank",
]
POOL_SITES = ["evaluation", "pipeline", "assessment"]


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _quality_grid_attrs(fn, args, kwargs, grid) -> dict:
    pre = _bound(fn, args, kwargs)["precomputed"] or {}
    computed = sum(1 for key in grid.cells if key not in pre)
    return {"cells_computed": computed,
            "cells_skipped": sum(1 for key in grid.skips if key not in pre),
            "cells_cached": sum(1 for key in pre if key in grid.cells or key in grid.skips),
            "expected_fits": computed * grid.k}


def _cv_quality_attrs(fn, args, kwargs, scores) -> dict:
    return {"folds": int(len(scores))}


def _resample_attrs(fn, args, kwargs, result) -> dict:
    return {"rows_out": int(result.n)}


def _fit_attrs(fn, args, kwargs, model) -> dict | None:
    return {"knn_fits": 1} if model.spec.kind == "knn" else None


def _train_attrs(fn, args, kwargs, model) -> dict:
    models = list(model.a1_models.values()) + list(model.a2_classifiers.values()) \
        + list(model.a2_regressors.values())
    return {"meta_fits": sum(1 for m in models if m.constant_score is None)}


ATTRS = {
    "evaluation.quality_grid": _quality_grid_attrs,
    "evaluation.cv_quality": _cv_quality_attrs,
    "resampling.resample": _resample_attrs,
    "learners.fit": _fit_attrs,
    "recommender.train": _train_attrs,
}


class Tracer:
    """Records spans while active; `install()` once, then toggle `active`."""

    def __init__(self, trace_dir: Path, workload: str, run_id: str):
        self.trace_dir = Path(trace_dir)
        self.workload = workload
        self.run_id = run_id
        self.active = False
        self.phase = ""
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []  # open (span id, name), innermost last
        self.in_worker = False
        self.base_depth = 0
        self._seq = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---- installation -------------------------------------------------
    def install(self) -> None:
        import resamplerec
        for info in pkgutil.walk_packages(resamplerec.__path__, "resamplerec."):
            importlib.import_module(info.name)
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "resamplerec" or name.startswith("resamplerec.")]
        for mod_name, fn_name, span in WRAPPED:
            original = getattr(importlib.import_module(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        self._patch(ProcessPoolExecutor, "__init__", self._wrap_pool_init(ProcessPoolExecutor.__init__))
        self._patch(ProcessPoolExecutor, "shutdown", self._wrap_pool_shutdown(ProcessPoolExecutor.shutdown))
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---- recording ----------------------------------------------------
    def _next_id(self) -> int:
        self._seq += 1
        return (os.getpid() << 32) | self._seq

    def _wrap(self, fn, span):
        tracer = self
        attrs_fn = ATTRS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id()
            parent = tracer.stack[-1][0] if tracer.stack else 0
            tracer.stack.append((sid, span))
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                attrs = attrs_fn(fn, args, kwargs, result) if ok and attrs_fn else None
                tracer._record(sid, parent, span, start, end, ok, attrs)
        return wrapper

    def _record(self, sid, parent, span, start, end, ok, attrs) -> None:
        self.spans.append((sid, parent, span, start, end, os.getpid(), ok, self.phase, attrs))
        if self.in_worker and len(self.stack) <= self.base_depth:
            self.flush_worker()

    def _wrap_pool_init(self, original):
        tracer = self

        @functools.wraps(original)
        def __init__(executor, *args, **kwargs):
            original(executor, *args, **kwargs)
            if tracer.active:
                # the pool belongs to the layer of the innermost open span
                site = tracer._open_layer()
                sid = tracer._next_id()
                parent = tracer.stack[-1][0] if tracer.stack else 0
                span = f"{site}.pool"
                executor._bench_span = (sid, parent, span, time.perf_counter_ns(),
                                        executor._max_workers)
                tracer.stack.append((sid, span))
        return __init__

    def _wrap_pool_shutdown(self, original):
        tracer = self

        @functools.wraps(original)
        def shutdown(executor, *args, **kwargs):
            try:
                return original(executor, *args, **kwargs)
            finally:
                opened = executor.__dict__.pop("_bench_span", None)
                if opened is not None:
                    sid, parent, span, start, workers = opened
                    if (sid, span) in tracer.stack:
                        tracer.stack.remove((sid, span))
                    tracer._record(sid, parent, span, start, time.perf_counter_ns(), True,
                                   {"workers": workers})
        return shutdown

    def _open_layer(self) -> str:
        return self.stack[-1][1].split(".")[0] if self.stack else "unknown"

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.in_worker = True
        self.spans = []
        self.base_depth = len(self.stack)

    def flush_worker(self) -> None:
        if not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with (self.trace_dir / f"spans-{os.getpid()}.jsonl").open("a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def all_spans(self) -> list[tuple]:
        """The parent's spans plus every span flushed by pool workers."""
        spans = list(self.spans)
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with path.open("r", encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans

    def write(self, path: Path, spans: list[tuple]) -> None:
        """One JSON object per span, with the workload and run id."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, pid, ok, phase, attrs in spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end, "pid": pid, "ok": ok, "phase": phase, "attrs": attrs,
                    "workload": self.workload, "run_id": self.run_id}) + "\n")


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of `intervals`."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def layer_metrics(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from one set of spans, plus the raw sums the checks use.

    `.s` is inclusive time summed over the outermost span of each name (a
    span nested in one of the same name is not counted twice); `.self_s`
    subtracts the part of each span that its child spans cover, children
    in pool workers included.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def ancestors(s):
        parent = by_id.get(s[1])
        while parent is not None:
            yield parent[2]
            parent = by_id.get(parent[1])

    metrics: dict[str, float] = {}
    for name in REPORTED:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.s"] = 0.0
        metrics[f"{name}.self_s"] = 0.0
    sums: dict[str, int] = defaultdict(int)
    busy = defaultdict(int)
    capacity = defaultdict(int)
    for s in spans:
        sid, _, name, start, end, _, ok, _, attrs = s
        for key, value in (attrs or {}).items():
            sums[f"{name}:{key}"] += value
        kids = [(c[3], c[4]) for c in children.get(sid, ())]
        if name.endswith(".pool"):
            site = name.split(".")[0]
            per_worker = defaultdict(list)
            for c in children.get(sid, ()):
                per_worker[c[5]].append((c[3], c[4]))
            busy[site] += sum(_covered_ns(start, end, iv) for iv in per_worker.values())
            capacity[site] += attrs["workers"] * (end - start)
        if name == "evaluation.cv_quality" and ok:
            above = list(ancestors(s))
            if any(a.startswith("assessment.") for a in above) \
                    and "evaluation.quality_grid" not in above:
                sums["on_demand_cells"] += 1
                sums["on_demand_fits"] += attrs["folds"]
        if f"{name}.calls" not in metrics:
            continue
        metrics[f"{name}.calls"] += 1
        if name not in ancestors(s):
            metrics[f"{name}.s"] += (end - start) / 1e9
        metrics[f"{name}.self_s"] += (end - start - _covered_ns(start, end, kids)) / 1e9
    metrics["resampling.rows_out"] = sums["resampling.resample:rows_out"]
    for key in ("cells_computed", "cells_cached", "cells_skipped"):
        metrics[f"evaluation.{key}"] = sums[f"evaluation.quality_grid:{key}"]
    metrics["recommender.meta_fits"] = sums["recommender.train:meta_fits"]
    metrics["assessment.on_demand_cells"] = sums["on_demand_cells"]
    for site in POOL_SITES:
        metrics[f"{site}.pool_util"] = busy[site] / capacity[site] if capacity[site] else 0.0
    return metrics, dict(sums)

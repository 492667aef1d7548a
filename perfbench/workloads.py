"""The three benchmark workloads, driven through resamplerec's public CLI.

Each workload has a `setup(rep)` that builds its inputs in `setup<rep>/`
and a `run_pass(index, batch, traced)` that runs the timed operations of
one pass over input batch `batch` and checks their outputs. An operation
("op") is one `cli.main` call run in-process; it fails on a non-zero exit,
an `error` line on stderr, an output that fails its check, or an artifact
digest that differs from the reference for that seed and batch: the first
digests recorded for it, in this run or in an earlier run of the same
checkout (`Workload.stored`).

Every batch draws new data from (seed, batch). Input shapes (rows,
features, minority fraction) follow fixed designs, so the amount of work
depends little on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import resamplerec.cli as rcli
import resamplerec.data as rdata
import resamplerec.evaluation as revaluation
import resamplerec.qualityvars as rqualityvars
import resamplerec.recommender as rrecommender
from resamplerec.config import MultiplierGrid

PAPER_METHODS = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]


def cpu_seconds() -> float:
    """User+sys time of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def blake2b(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def tree_digest(root: Path, base: Path | None = None, mask: bytes = b"") -> dict[str, str]:
    """blake2b of every file under `root`, keyed by path relative to `base`;
    occurrences of `mask` (a run-specific directory name) are blanked first."""
    base = base or root
    if not root.exists():
        return {}
    return {str(p.relative_to(base)): blake2b(p.read_bytes().replace(mask, b"<dir>")
                                              if mask else p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


@dataclass
class Op:
    name: str
    wall_s: float
    cpu_s: float
    stdout: str = ""
    failure: str | None = None
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class PassResult:
    index: int
    traced: bool
    ops: list[Op]
    headline: float  # the value trace overhead is reported on
    fit_count_delta: int = 0  # resamplerec.learners.fit_count() moved by this pass

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)


class Workload:
    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, size: str, workers: int, workdir: Path, tracer=None):
        self.seed = seed
        self.size = size
        self.workers = workers
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.stored: dict = {}  # str(batch) -> per-op digests from earlier runs
        self.reference: dict[str, list[dict[str, str]]] = {}  # this run's first digests
        self.setup_digests: list[dict[str, str]] = []

    def inputs_key(self) -> str:
        """Names the inputs a seed produces, so references are never mixed up."""
        doc = json.dumps([self.name, self.size, self.SIZES[self.size]], sort_keys=True)
        return f"{self.name}-{self.size}-seed{self.seed}-{blake2b(doc.encode())[:12]}"

    def batch_seed(self, batch: int) -> int:
        return int(blake2b(f"{self.seed}:{batch}".encode())[:8], 16)

    def run_op(self, name: str, argv: list[str], traced: bool) -> Op:
        """One in-process CLI call; only this region is traced."""
        out, err = io.StringIO(), io.StringIO()
        failure = None
        if traced:
            self.tracer.active = True
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rcli.main(argv)
        except Exception:  # an op that crashes is counted as failed, with its traceback
            code = -1
            failure = "raised " + traceback.format_exc()[-600:]
        finally:
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if traced:
                self.tracer.active = False
        stderr = err.getvalue()
        if failure is None and code != 0:
            failure = f"exit {code}: {stderr.strip()[:200]}"
        elif failure is None and any(line.startswith("error") for line in stderr.splitlines()):
            failure = f"error line: {stderr.strip()[:200]}"
        return Op(name, wall, cpu, out.getvalue(), failure)

    def compare_to_reference(self, batch: int, ops: list[Op]) -> None:
        """The first digests seen for a batch are its reference; later ones must match."""
        digests = [op.digests for op in ops]
        ref = self.reference.get(str(batch)) or self.stored.get(str(batch))
        if ref is None:
            if not any(op.failure for op in ops):
                self.reference[str(batch)] = digests
            return
        self.reference.setdefault(str(batch), ref)
        if len(ops) != len(ref):
            ops[-1].failure = f"{len(ops)} ops where the reference has {len(ref)}"
        for op, want in zip(ops, ref):
            if op.failure is None and op.digests != want:
                changed = sorted(k for k in set(op.digests) | set(want)
                                 if op.digests.get(k) != want.get(k))
                op.failure = f"digest mismatch vs reference: {changed[:3]}"

    def record_setup(self, setup_dir: Path) -> None:
        self.setup_digests.append(tree_digest(setup_dir, mask=str(setup_dir).encode()))

    def setup_consistent(self) -> bool:
        return all(d == self.setup_digests[0] for d in self.setup_digests)


def _config(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def _grid_problems(grid_path: Path, methods: list[str], multipliers: list[float],
                   k: int) -> list[str]:
    """Every cell present once, as k finite PR-AUC values in [0, 1] or a skip."""
    grid = revaluation.load_grid(grid_path)
    problems = []
    expected = {revaluation.BASELINE_KEY} | {(m, float(x)) for m in methods for x in multipliers}
    if set(grid.cells) | set(grid.skips) != expected or set(grid.cells) & set(grid.skips):
        problems.append(f"{grid_path.name}: cell keys differ from the grid definition")
    for key, scores in grid.cells.items():
        if len(scores) != k or not np.all(np.isfinite(scores)) \
                or scores.min() < 0.0 or scores.max() > 1.0:
            problems.append(f"{grid_path.name}: cell {key} has bad scores")
    return problems


# ---------------------------------------------------------------------------
class DeskPipeline(Workload):
    """gen -> grid -> grid (every cell cached) -> meta -> train -> assess -> report.

    The desk config of scripts/run_desk_scale.py (decision tree; ROS, RUS,
    SMOTE-5 x 1.5..4.0; k=10; k'=5) on a bank of default-mixture datasets
    of one fixed shape. Each pass runs a new bank (master seed drawn from
    seed and batch) in a fresh directory.
    """

    name = "desk-pipeline"
    SIZES = {"full": {"count": 6, "rows": 200, "dim": 8, "minor": [0.05, 0.35]},
             "tiny": {"count": 6, "rows": 80, "dim": 4, "minor": [0.15, 0.35]}}
    METHODS = ["ros", "rus", "smote5"]
    MULTIPLIERS = {"min": 1.5, "max": 4.0, "step": 0.5}
    K = 10

    def setup(self, rep: int) -> None:
        size = self.SIZES[self.size]
        self.setup_dir = self.workdir / f"setup{rep}"
        self.cfg = _config(self.setup_dir / "desk.json", {
            "seed": self.seed, "learner": {"kind": "decision_tree"},
            "methods": self.METHODS, "multipliers": self.MULTIPLIERS,
            "k": self.K, "k_prime": 5, "alpha": 0.05, "epsilon": 0.75,
            "count": size["count"], "workers": self.workers,
            "mixture": {"dim_range": [size["dim"], size["dim"]],
                        "size_range": [size["rows"], size["rows"]],
                        "minor_fraction_range": size["minor"]},
            "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"}})
        self.record_setup(self.setup_dir)

    def run_pass(self, index: int, batch: int, traced: bool) -> PassResult:
        out = self.workdir / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        ops = []
        artifacts = {"gen": "datasets", "grid": "grids", "grid-resume": "grids",
                     "meta": None, "train": "models", "assess": "report", "report": None}
        seed = str(self.batch_seed(batch))
        for name in artifacts:
            command = "grid" if name == "grid-resume" else name
            op = self.run_op(name, [command, "--config", self.cfg, "--out", str(out),
                                    "--seed", seed], traced)
            sub = artifacts[name]
            if name == "meta":
                op.digests = {p: blake2b((out / p).read_bytes())
                              for p in ("meta.csv", "meta.meta.json") if (out / p).exists()}
            elif sub:
                op.digests = tree_digest(out / sub, out)
            op.digests["stdout"] = blake2b(op.stdout.replace(str(out), "<out>").encode())
            ops.append(op)
        try:
            self._check(out, {op.name: op for op in ops})
        except (OSError, ValueError, KeyError) as exc:
            ops[-1].failure = f"output check raised {type(exc).__name__}: {exc}"
        self.compare_to_reference(batch, ops)
        shutil.rmtree(out, ignore_errors=True)
        return PassResult(index, traced, ops, headline=ops[1].wall_s)

    def _check(self, out: Path, ops: dict[str, Op]) -> None:
        if any(op.failure for op in ops.values()):
            return
        count = self.SIZES[self.size]["count"]
        multipliers = MultiplierGrid(**self.MULTIPLIERS).values()
        if "0 cells computed" not in ops["grid-resume"].stdout:
            ops["grid-resume"].failure = "resume pass recomputed cells"
        if ops["grid-resume"].digests != {**ops["grid"].digests,
                                          "stdout": ops["grid-resume"].digests["stdout"]}:
            ops["grid-resume"].failure = "resume pass changed the grids"
        grids = [g for g in sorted((out / "grids").glob("*.csv"))
                 if not g.name.endswith(".skips.csv")]
        problems = [] if len(grids) == count else [f"{len(grids)} grids for {count} datasets"]
        for g in grids:
            problems += _grid_problems(g, self.METHODS, multipliers, self.K)
        if problems:
            ops["grid"].failure = "; ".join(problems[:3])
        with (out / "meta.csv").open(encoding="utf-8") as fh:
            if sum(1 for _ in fh) != count + 1:
                ops["meta"].failure = "meta.csv row count differs from the bank"
        for approach in ("a1", "a2"):
            rrecommender.load_recommender(out / "models" / f"{approach}.json")
        report = json.loads((out / "report" / "summary.json").read_text(encoding="utf-8"))
        if not all(0.0 <= v <= 1.0 for v in report["ara"].values()):
            ops["assess"].failure = "mean RA outside [0, 1]"
        # rows with equal mean RA may come in another order
        table = ops["assess"].stdout.splitlines()[:-1]
        if sorted(ops["report"].stdout.splitlines()) != sorted(table):
            ops["report"].failure = "report table differs from the assess table"

    def detail(self, passes: list[PassResult]) -> dict:
        def stage(name):
            return [op.wall_s for p in passes for op in p.ops if op.name == name]
        return {
            "grid_s": summary(stage("grid"), "s"),
            "grid_resume_s": summary(stage("grid-resume"), "s"),
            "assess_s": summary(stage("assess"), "s"),
            "pipeline_s": summary([p.wall_s - p.ops[2].wall_s for p in passes], "s"),
        }


# ---------------------------------------------------------------------------
class PaperGrid(Workload):
    """The paper-default grid (6 methods x 36 multipliers + baseline, k=20,
    L1 logistic regression) on one dataset per `grid` call, so the per-cell
    pool runs. The bank's shapes span the mixture's range, up to a minority
    class of 100+ rows for SMOTE's quadratic neighbour table."""

    name = "paper-grid"
    # (rows, features, minority fraction)
    SIZES = {"full": {"shapes": [(250, 8, 0.12), (440, 22, 0.3)],
                      "multipliers": {"min": 1.25, "max": 10.0, "step": 0.25}, "k": 20},
             "tiny": {"shapes": [(80, 4, 0.3)],
                      "multipliers": {"min": 1.5, "max": 2.0, "step": 0.5}, "k": 4}}

    BATCHES = 6  # input batches made in set-up; later passes reuse them in turn

    def setup(self, rep: int) -> None:
        size = self.SIZES[self.size]
        self.setup_dir = self.workdir / f"setup{rep}"
        self.cfgs = []
        for batch in range(self.BATCHES):
            seed = self.batch_seed(batch)
            self.cfgs.append([])
            for i, (rows, dim, minor) in enumerate(size["shapes"]):
                mixture = rdata.MixtureConfig(dim_range=(dim, dim), size_range=(rows, rows),
                                              minor_fraction_range=(minor, minor), seed=seed)
                s = rdata.generate_mixture(mixture, i)
                csv_dir = self.setup_dir / f"inputs{batch}-{i}"
                rdata.write_csv(s, csv_dir / f"{s.id}.csv")
                self.cfgs[batch].append(_config(self.setup_dir / f"grid{batch}-{i}.json", {
                    "seed": seed, "learner": {"kind": "logreg_l1"},
                    "methods": PAPER_METHODS, "multipliers": size["multipliers"],
                    "k": size["k"], "csv_dir": str(csv_dir), "workers": self.workers}))
        self.record_setup(self.setup_dir)

    def run_pass(self, index: int, batch: int, traced: bool) -> PassResult:
        size = self.SIZES[self.size]
        multipliers = MultiplierGrid(**size["multipliers"]).values()
        batch %= self.BATCHES
        ops = []
        for i, cfg in enumerate(self.cfgs[batch]):
            out = self.workdir / f"pass{index}" / f"ds{i}"
            op = self.run_op("grid", ["grid", "--config", cfg, "--out", str(out)], traced)
            op.digests = tree_digest(out / "grids", out)
            if op.failure is None:
                grids = [g for g in (out / "grids").glob("*.csv")
                         if not g.name.endswith(".skips.csv")]
                problems = [] if len(grids) == 1 else ["expected one grid"]
                for g in grids:
                    problems += _grid_problems(g, PAPER_METHODS, multipliers, size["k"])
                op.failure = "; ".join(problems[:3]) or None
            ops.append(op)
        self.compare_to_reference(batch, ops)
        shutil.rmtree(self.workdir / f"pass{index}", ignore_errors=True)
        return PassResult(index, traced, ops, headline=sum(op.wall_s for op in ops))

    def detail(self, passes: list[PassResult]) -> dict:
        return {"grid_s": summary([p.wall_s for p in passes], "s")}


# ---------------------------------------------------------------------------
class Recommend(Workload):
    """A closed loop with one caller: `resamplerec recommend` on distinct
    query CSVs, alternating between an approach-1 model (one meta-classifier
    per cell of the paper-default grid) and an approach-2 model. Setup trains
    both through the CLI from small datasets."""

    name = "recommend"
    SIZES = {"full": {"train_count": 4, "multipliers": {"min": 1.25, "max": 10.0, "step": 0.25},
                      "k": 4, "queries": 32},
             "tiny": {"train_count": 4, "multipliers": {"min": 1.5, "max": 2.0, "step": 0.5},
                      "k": 4, "queries": 8}}
    CHECK_EVERY = 4  # calls whose answer is recomputed through the library

    def setup(self, rep: int) -> None:
        size = self.SIZES[self.size]
        self.setup_dir = self.workdir / f"setup{rep}"
        out = self.setup_dir / "out"
        cfg = _config(self.setup_dir / "train.json", {
            "seed": self.seed, "learner": {"kind": "knn"}, "methods": PAPER_METHODS,
            "multipliers": size["multipliers"], "k": size["k"],
            "count": size["train_count"], "workers": self.workers, "out": str(out),
            "mixture": {"dim_range": [3, 5], "size_range": [80, 140],
                        "minor_fraction_range": [0.15, 0.35]}})
        for command in ("gen", "grid", "meta", "train"):
            op = self.run_op(command, [command, "--config", cfg], traced=False)
            if op.failure:
                raise RuntimeError(f"setup `{command}` failed: {op.failure}")
        self.models = {a: str(out / "models" / f"{a}.json") for a in ("a1", "a2")}
        self.loaded = None
        self.record_setup(self.setup_dir)

    def _shapes(self) -> list[tuple[int, int, float]]:
        """Fixed Latin-hypercube design over the default mixture's ranges."""
        n = self.SIZES[self.size]["queries"] // 2
        rng = np.random.default_rng(20170607)  # the design, not the data
        u = [(rng.permutation(n) + 0.5) / n for _ in range(3)]
        return [(int(round(200 + 800 * u[0][j])), int(round(6 + 34 * u[1][j])),
                 0.05 + 0.30 * u[2][j]) for j in range(n)]

    def run_pass(self, index: int, batch: int, traced: bool) -> PassResult:
        qdir = self.workdir / f"pass{index}"
        queries = []
        for j, (rows, dim, minor) in enumerate(self._shapes()):
            for approach in ("a1", "a2"):
                mixture = rdata.MixtureConfig(dim_range=(dim, dim), size_range=(rows, rows),
                                              minor_fraction_range=(minor, minor),
                                              seed=self.seed)
                s = rdata.generate_mixture(mixture, batch * 100000 + len(queries))
                path = qdir / f"{s.id}.csv"
                rdata.write_csv(s, path)
                queries.append((approach, s, path))
        if self.loaded is None:  # the reference copies, loaded outside any op
            self.loaded = {a: rrecommender.load_recommender(p) for a, p in self.models.items()}
        ops = []
        for j, (approach, s, path) in enumerate(queries):
            op = self.run_op("recommend", ["recommend", "--model", self.models[approach],
                                           "--data", str(path)], traced)
            op.digests = {"stdout": blake2b(op.stdout.encode())}
            if op.failure is None:
                op.failure = self._check(op.stdout, approach, s, j % self.CHECK_EVERY == 0)
            ops.append(op)
        self.compare_to_reference(batch, ops)
        shutil.rmtree(qdir, ignore_errors=True)
        return PassResult(index, traced, ops,
                          headline=statistics.median(op.wall_s for op in ops) * 1000.0)

    def _check(self, stdout: str, approach: str, s, recompute: bool) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != 2:
            return f"expected 2 output lines, got {len(lines)}"
        try:
            doc = json.loads(lines[1])
            doc["method"], doc["multiplier"]
        except (ValueError, KeyError, TypeError):
            return "second line is not the JSON record"
        model = self.loaded[approach]
        if lines[0] != f"{doc['method']},{rqualityvars.format_multiplier(doc['multiplier'])}":
            return "first line disagrees with the JSON record"
        if doc["method"] != "none" and (doc["method"] not in model.methods
                                        or float(doc["multiplier"]) not in model.multipliers):
            return f"recommended {lines[0]} is not a grid cell of the model"
        if recompute:
            rec = rrecommender.recommend(model, s)
            want = json.loads(json.dumps({"method": rec.spec.method,
                                          "multiplier": rec.spec.multiplier,
                                          "provenance": rec.provenance,
                                          "details": rec.details}))
            if doc != want:
                return "answer differs from the library's recommendation"
        return None

    def detail(self, passes: list[PassResult]) -> dict:
        calls = [op.wall_s * 1000.0 for p in passes for op in p.ops]
        return {"recommend_ms_p50": summary(calls, "ms"),
                "recommend_ms_p90": summary(calls, "ms", q=0.9)}


def summary(values: list[float], unit: str, q: float = 0.5) -> dict:
    """A quantile (the median by default) with its unit and sample count."""
    value = float(np.quantile(values, q)) if values else math.nan
    return {"value": value, "unit": unit, "samples": len(values)}


WORKLOADS = {w.name: w for w in (DeskPipeline, PaperGrid, Recommend)}

"""Acceptance criteria.

Each test prints one `[acceptance] criterion N (...): PASS/FAIL` line
(visible with `pytest -s` or `-v` on failures). The desk-scale criterion
runs the full 60-dataset pipeline once per session; set
RESAMPLEREC_TEST_WORKERS to control its parallelism (default: the CPU count).
"""

import functools
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import resamplerec.assessment as assessment
import resamplerec.evaluation as evaluation
from resamplerec.assessment import assess_bank, format_ara_table, recommendation_accuracy
from resamplerec.cli import main as cli_main
from resamplerec.data import (Dataset, MixtureConfig, generate_mixture,
                              imbalance_ratio, stratified_folds)
from resamplerec.evaluation import pr_auc, quality_grid
from resamplerec.learners import DEFAULT_LEARNERS, fit_count
from resamplerec.parallel import parallel_map
from resamplerec.qualityvars import binarize_targets, compute_quality_variables
from resamplerec.recommender import PRESETS, build_meta_dataset, recommend, train
from resamplerec.resampling import ResamplingSpec, resample

from conftest import make_dataset, random_cell
from oracles import (point_on_some_smote_segment, pr_auc_step_curve,
                     student_t_sf_quadrature)
from test_qualityvars import random_grid, row_pvalue

WORKERS = int(os.environ.get("RESAMPLEREC_TEST_WORKERS", os.cpu_count() or 1))
DESK_SEED = 11
DESK_MULTS = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
DESK_METHODS = ["ros", "rus", "smote5"]
TREE = DEFAULT_LEARNERS["decision_tree"]


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS", flush=True)


def test_criterion_1_pr_auc_oracle():
    with criterion(1, "PR-AUC oracle equivalence"):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            labels = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
            labels[rng.integers(0, n)] = 1  # at least one positive
            # mix continuous scores and heavy ties
            if rng.uniform() < 0.5:
                scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            else:
                scores = rng.uniform(size=n)
            assert abs(pr_auc(labels, scores) - pr_auc_step_curve(labels, scores)) <= 1e-12


def test_criterion_2_ttest_oracle():
    with criterion(2, "paired t-test oracle"):
        rng = np.random.default_rng(1002)
        for _ in range(100):
            base = rng.uniform(0.1, 0.9, size=20)
            res = np.clip(base + rng.normal(0.0, 0.08, size=20), 0.0, 1.0)
            d = res - base
            if d.std(ddof=1) == 0:
                continue
            t = d.mean() / (d.std(ddof=1) / np.sqrt(20))
            expected = student_t_sf_quadrature(t, 19)
            assert abs(row_pvalue(res, base) - expected) <= 1e-8
        base = rng.uniform(0.2, 0.8, size=20)
        assert row_pvalue(base, base) == 0.5
        assert row_pvalue(base + 0.05, base) == 0.0
        assert row_pvalue(base - 0.05, base) == 1.0


def test_criterion_3_resampling_invariants():
    with criterion(3, "resampling invariants"):
        rng = np.random.default_rng(1003)
        for _ in range(500):
            n_minor = int(rng.integers(4, 14))
            n_major = int(rng.integers(n_minor, 8 * n_minor))
            s = make_dataset(n_major, n_minor, dim=int(rng.integers(1, 4)),
                             seed=int(rng.integers(0, 10**6)))
            ir = imbalance_ratio(s)
            method = ["ros", "rus", "smote3"][int(rng.integers(0, 3))]
            if method == "rus":
                m = float(rng.uniform(1.0, ir))
            elif method == "smote3":
                m = float(rng.uniform(1.0, 4.0))
            else:
                m = float(rng.uniform(1.0, 6.0))
            seed = int(rng.integers(0, 10**6))
            out = resample(s, ResamplingSpec(method, m), seed)
            # imbalance ratio contract (slack relative to the target ratio)
            got = out.n_major / out.n_minor
            slack = (ir / m) * (1.0 / out.n_minor + 1.0 / s.n_minor)
            assert abs(got - ir / m) <= slack + 1e-12
            if method == "ros":
                added = out.features[s.n:]
                originals = {tuple(r) for r in s.features[s.labels == 1].tolist()}
                assert all(tuple(r.tolist()) in originals for r in added)
            elif method == "rus":
                kept = {tuple(r) for r in out.features.tolist()}
                pool = {tuple(r) for r in s.features.tolist()}
                assert kept <= pool
                assert np.array_equal(out.features[out.labels == 1],
                                      s.features[s.labels == 1])
            else:
                assert np.array_equal(out.features[out.labels == 0],
                                      s.features[s.labels == 0])
                minors = s.features[s.labels == 1]
                for x in out.features[s.n:]:
                    assert point_on_some_smote_segment(x, minors, k=3)


def test_criterion_4_quality_variable_identities():
    with criterion(4, "quality-variable identities"):
        for seed in range(50):
            grid = random_grid(seed, methods=("ros", "rus", "smote5"),
                               multipliers=(1.5, 2.0, 2.5, 3.0), k=8,
                               skip={("rus", 3.0)} if seed % 3 == 0 else frozenset())
            qv = compute_quality_variables(grid, epsilon=0.75)
            targets = binarize_targets(qv, alpha=0.2)
            for method in qv.methods:
                cells = qv.method_cells(method)
                if not cells:
                    continue
                ys = [targets.y_rm[(method, m)] for m, _ in cells]
                assert targets.y_r[method] == max(ys)
                for m, cv in cells:
                    assert cv.q_pvalw >= cv.q_pval
                    window = [c.q_pval for m2, c in cells if abs(m2 - m) < 0.75]
                    assert cv.q_pvalw == max(window)
                brute = min(cells, key=lambda item: (item[1].q_pvalw, item[0]))[0]
                assert qv.per_method[method].m_star == brute


class TestCriterion5Protocol:
    def test_folds_never_resampled(self, monkeypatch):
        with criterion(5, "protocol: test folds never resampled"):
            s = make_dataset(120, 30, seed=5)
            folds = stratified_folds(s, 5, seed=2)
            eval_counts = []
            real_pr_auc = evaluation.pr_auc

            def spy(labels, scores):
                eval_counts.append((int((labels == 0).sum()), int((labels == 1).sum())))
                return real_pr_auc(labels, scores)

            monkeypatch.setattr(evaluation, "pr_auc", spy)
            evaluation.cv_quality(s, TREE, ResamplingSpec("smote3", 3.0), folds, seed=4)
            for j in range(5):
                mask = folds.test_mask(j)
                assert eval_counts[j] == (int((s.labels[mask] == 0).sum()),
                                          int((s.labels[mask] == 1).sum()))

    def test_meta_cv_zero_leakage(self, desk_run):
        with criterion(5, "protocol: meta-level CV id leakage"):
            folds = desk_run["report"].metadata["meta_cv_folds"]
            all_test = []
            for fold in folds:
                assert not set(fold["train_ids"]) & set(fold["test_ids"])
                all_test.extend(fold["test_ids"])
            assert sorted(all_test) == sorted(d.id for d in desk_run["datasets"])

    def test_recommend_fits_nothing(self, desk_run):
        with criterion(5, "protocol: recommend executes zero fits"):
            model = desk_run["model_a1"]
            held_out = desk_run["held_out"]
            before = fit_count()
            recommend(model, held_out)
            assert fit_count() == before


def _desk_grid(context, s):
    return quality_grid(s, TREE, DESK_METHODS, DESK_MULTS, k=10, seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_run():
    """60-dataset desk-scale pipeline (criterion 6 config) plus a held-out dataset."""
    cfg = MixtureConfig(seed=DESK_SEED)
    datasets = [generate_mixture(cfg, i) for i in range(60)]
    held_out = generate_mixture(cfg, 60)
    grids = parallel_map(_desk_grid, datasets, WORKERS)
    bank = list(zip(datasets, grids))
    recommender_cfgs = [("rec1", PRESETS["rs1-dtree"]), ("rec2", PRESETS["rs2-dtree"])]
    static_cells = []

    def keep_static_cells(*args):  # assess_bank's one map: each dataset's static cells
        out = parallel_map(*args)
        static_cells.extend(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assessment, "parallel_map", keep_static_cells)
        report = assess_bank(bank, recommender_cfgs, k_prime=5, seed=DESK_SEED, learner=TREE,
                             epsilon=0.75, workers=WORKERS)
    # the random-cell baseline, normalised on the pool assess_bank used for
    # every other strategy: grid cells plus the static cells
    random_cell_ra = [recommendation_accuracy(grid, random_cell(grid, DESK_SEED),
                                              extra_cells=dict(cells.values()))
                      for grid, cells in zip(grids, static_cells)]
    meta = build_meta_dataset(bank, epsilon=0.75)
    model_a1 = train(meta, PRESETS["rs1-dtree"])
    return {"datasets": datasets, "grids": grids, "report": report,
            "random_cell_ara": float(np.mean(random_cell_ra)),
            "model_a1": model_a1, "held_out": held_out}


def test_criterion_6_desk_scale_direction(desk_run):
    with criterion(6, "desk-scale directional reproduction"):
        ara = {**desk_run["report"].ara, "random-cell": desk_run["random_cell_ara"]}
        print()
        print(format_ara_table(ara), flush=True)
        for rec in ("rec1", "rec2"):
            assert ara[rec] > ara["no-resample"]
            assert ara[rec] > ara["random-cell"]
            assert ara[rec] >= 0.55
        # sanity on the harness itself: random-cell RA is on-grid and bounded
        for _, grid in zip(desk_run["datasets"], desk_run["grids"]):
            key = random_cell(grid, seed=DESK_SEED)
            assert 0.0 <= recommendation_accuracy(grid, key) <= 1.0


def test_criterion_7_recommend_speed(desk_run):
    with criterion(7, "recommendation speed vs exhaustive search"):
        held_out = desk_run["held_out"]
        model = desk_run["model_a1"]
        t0 = time.perf_counter()
        quality_grid(held_out, TREE, DESK_METHODS, DESK_MULTS, k=10, seed=DESK_SEED)
        grid_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        recommend(model, held_out)
        rec_time = time.perf_counter() - t0
        print(f"\nexhaustive grid {grid_time:.2f}s vs recommend {rec_time * 1000:.0f}ms",
              flush=True)
        assert rec_time <= grid_time / 10.0


def _pipeline_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "end-to-end determinism across worker counts"):
        trees = []
        for run, workers in (("w1", 1), ("w8", 8)):
            out = tmp_path / run
            config = {
                "seed": 5,
                "out": str(out),
                "learner": {"kind": "decision_tree", "max_depth": 3, "min_leaf": 2},
                "methods": ["ros", "rus"],
                "multipliers": {"min": 1.5, "max": 2.5, "step": 0.5},
                "k": 4,
                "k_prime": 2,
                "count": 8,
                "workers": workers,
                "mixture": {"dim_range": [3, 5], "size_range": [60, 100],
                            "minor_fraction_range": [0.15, 0.3]},
                "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"},
            }
            cfg_path = tmp_path / f"cfg-{run}.json"
            cfg_path.write_text(json.dumps(config))
            for command in ("gen", "grid", "meta", "train", "assess"):
                assert cli_main([command, "--config", str(cfg_path)]) == 0, command
            trees.append(_pipeline_tree(out))
        assert trees[0].keys() == trees[1].keys()
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], f"{name} differs between worker counts"

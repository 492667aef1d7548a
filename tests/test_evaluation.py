import csv
import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import resamplerec.evaluation as evaluation
from resamplerec.assessment import STATIC_STRATEGIES, _static_cells_task
from resamplerec.config import MultiplierGrid
from resamplerec.data import Dataset, imbalance_ratio
from resamplerec.evaluation import (CellInfeasible, FoldSplits, GridDef, GridFileError,
                                    cell_seed, cv_quality, load_grid, pr_auc, quality_grid,
                                    save_grid)
from resamplerec.learners import LearnerSpec
from resamplerec.resampling import ResamplingSpec
from resamplerec.rng import derive_seed

from conftest import assert_as_validated, make_dataset
from oracles import pr_auc_step_curve

TREE = LearnerSpec("decision_tree", max_depth=3, min_leaf=2)
LOGREG = LearnerSpec("logreg_l1", l1_strength=0.05, max_iter=50)
KNN = LearnerSpec("knn", k=3)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc(np.array([1, 0]), np.array([0.9, 0.1])) == 1.0

    def test_single_positive_at_rank_two(self):
        labels, scores = np.array([0, 1]), np.array([0.9, 0.1])
        expected = pr_auc_step_curve(labels, scores)
        assert expected == 0.5
        assert pr_auc(labels, scores) == expected

    def test_all_positive(self):
        assert pr_auc(np.ones(4, dtype=int), np.array([0.1, 0.9, 0.5, 0.5])) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="PR-AUC undefined"):
            pr_auc(np.zeros(3, dtype=int), np.array([0.1, 0.2, 0.3]))

    def test_matches_step_curve_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 21))
            labels = np.zeros(n, dtype=int)
            labels[rng.integers(0, n)] = 1
            extra = rng.uniform(size=n) < 0.4
            labels = np.maximum(labels, extra.astype(int))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # force ties
            assert pr_auc(labels, scores) == pytest.approx(
                pr_auc_step_curve(labels, scores), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        labels = (rng.uniform(size=n) < 0.5).astype(int)
        labels[rng.integers(0, n)] = 1
        scores = rng.normal(size=n)
        transformed = np.exp(3.0 * scores) + 1.0  # strictly monotone
        assert pr_auc(labels, scores) == pytest.approx(pr_auc(labels, transformed), abs=1e-12)

    def test_tie_permutation_invariance(self):
        rng = np.random.default_rng(5)
        labels = np.array([1, 0, 1, 0, 1, 0, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.2, 0.2, 0.8, 0.8, 0.8])
        base = pr_auc(labels, scores)
        for _ in range(10):
            perm = rng.permutation(8)
            assert pr_auc(labels[perm], scores[perm]) == pytest.approx(base, abs=1e-15)


class TestCvQuality:
    def test_deterministic(self, tiny_imbalanced):
        spec = ResamplingSpec("ros", 2.0)
        a = cv_quality(FoldSplits(tiny_imbalanced, 5, seed=3), TREE, spec, seed=11)
        b = cv_quality(FoldSplits(tiny_imbalanced, 5, seed=3), TREE, spec, seed=11)
        assert np.array_equal(a, b)

    def test_vector_length_is_k(self):
        s = make_dataset(120, 40, seed=2)
        scores = cv_quality(FoldSplits(s, 20, seed=1), TREE, ResamplingSpec("none"), seed=5)
        assert scores.shape == (20,)
        assert np.all((scores > 0.0) & (scores <= 1.0))

    def test_test_folds_never_resampled(self, tiny_imbalanced, monkeypatch):
        """The labels scored per fold must be the original fold labels."""
        splits = FoldSplits(tiny_imbalanced, 5, seed=3)
        seen_eval_counts = []
        seen_train_counts = []
        real_pr_auc = evaluation.pr_auc
        real_fit = evaluation.fit_arrays

        def spy_pr_auc(labels, scores):
            seen_eval_counts.append((int((labels == 0).sum()), int((labels == 1).sum())))
            return real_pr_auc(labels, scores)

        def spy_fit(spec, x, y):
            seen_train_counts.append((int((y == 0).sum()), int((y == 1).sum())))
            return real_fit(spec, x, y)

        monkeypatch.setattr(evaluation, "pr_auc", spy_pr_auc)
        monkeypatch.setattr(evaluation, "fit_arrays", spy_fit)
        cv_quality(splits, TREE, ResamplingSpec("ros", 2.0), seed=7)
        for j in range(5):
            mask = splits.folds.test_mask(j)
            original = (int((tiny_imbalanced.labels[mask] == 0).sum()),
                        int((tiny_imbalanced.labels[mask] == 1).sum()))
            assert seen_eval_counts[j] == original
        # training splits WERE resampled: minors doubled
        for c0, c1 in seen_train_counts:
            assert c1 == 2 * 16  # 16 original minors per training split, doubled

    @given(st.integers(2, 6), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_splits_are_frozen_valid_and_built_once(self, k, seed):
        """Training splits skip the validating copy but are what `Dataset(...)`
        would make of them; held-out blocks are read-only and sliced once."""
        splits = FoldSplits(make_dataset(30, 12, seed=seed % 50), k, seed)
        for j in range(k):
            assert_as_validated(splits.train(j))
            x, y = splits.test(j)
            assert not x.flags.writeable and not y.flags.writeable
            assert splits.test(j)[0] is x and splits.train(j) is splits.train(j)

    def test_infeasible_raises_cell_signal(self):
        s = make_dataset(40, 20, seed=3)  # IR = 2
        with pytest.raises(CellInfeasible):
            cv_quality(FoldSplits(s, 4, seed=1), TREE, ResamplingSpec("rus", 3.0), seed=2)


class TestQualityGrid:
    def test_paper_grid_cell_count(self):
        grid = MultiplierGrid()  # 1.25..10.0 step 0.25
        assert len(grid.values()) == 36
        methods = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]
        # 6 methods x 36 multipliers + the no-resampling cell
        assert len(methods) * len(grid.values()) + 1 == 217

    def test_rus_cells_skipped_above_ir(self):
        s = make_dataset(40, 20, seed=4)  # IR = 2
        g = quality_grid(s, GridDef.of(TREE, ["rus"], [1.5, 2.5], k=4, seed=9))
        assert ("rus", 1.5) in g.cells
        assert ("rus", 2.5) in g.skips
        assert "exceeds IR" in g.skips[("rus", 2.5)]

    def test_baseline_always_present(self):
        s = make_dataset(40, 20, seed=4)
        g = quality_grid(s, GridDef.of(TREE, ["ros"], [2.0], k=4, seed=9))
        assert ("none", 1.0) in g.cells

    def test_baseline_independent_of_multiplier_list(self):
        s = make_dataset(60, 20, seed=5)
        a = quality_grid(s, GridDef.of(TREE, ["ros"], [1.5], k=4, seed=9))
        b = quality_grid(s, GridDef.of(TREE, ["ros", "rus"], [1.5, 2.0], k=4, seed=9))
        assert np.array_equal(a.baseline, b.baseline)

    def test_folds_shared_across_cells(self, monkeypatch):
        s = make_dataset(60, 20, seed=5)
        calls = []
        real = evaluation.stratified_folds

        def spy(ds, k, seed):
            calls.append(seed)
            return real(ds, k, seed)

        monkeypatch.setattr(evaluation, "stratified_folds", spy)
        quality_grid(s, GridDef.of(TREE, ["ros", "rus"], [1.5, 2.0], k=4, seed=9))
        assert calls == [derive_seed(9, s.id, "folds")]

    def test_parallel_matches_sequential(self):
        s = make_dataset(60, 20, seed=6)
        seq = quality_grid(s, GridDef.of(TREE, ["ros", "smote3"], [1.5, 2.0], k=4, seed=3))
        par = quality_grid(s, GridDef.of(TREE, ["ros", "smote3"], [1.5, 2.0], k=4, seed=3),
                           workers=2)
        assert seq.cells.keys() == par.cells.keys()
        for key in seq.cells:
            assert np.array_equal(seq.cells[key], par.cells[key])

    def test_each_worker_builds_each_neighbor_order_once(self, tmp_path, monkeypatch):
        """The grid's FoldSplits reaches each pool worker once and serves all of
        its cells, so no worker builds a fold's SMOTE neighbour order twice."""
        log = tmp_path / "orders.log"
        real = evaluation.smote_neighbor_order

        def logged(train):  # forked workers inherit the patch and append to one file
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {train.id}\n")
            return real(train)

        monkeypatch.setattr(evaluation, "smote_neighbor_order", logged)
        s = make_dataset(60, 20, seed=6)
        quality_grid(s, GridDef.of(TREE, ["smote1", "smote3"], [1.5, 2.0, 2.5], k=4, seed=3),
                     workers=2)
        built = log.read_text().splitlines()
        assert built and len(built) == len(set(built))
        assert {line.split()[1] for line in built} == {f"{s.id}#train{j}" for j in range(4)}

    @pytest.mark.parametrize("cached", [0, 22])
    def test_cells_reach_workers_in_a_few_runs(self, tmp_path, monkeypatch, cached):
        """A one-dataset grid at workers=2 sends its pending cells as at most 8
        runs per worker, never more runs than cells, and scores them as at
        workers=1."""
        log = tmp_path / "runs.log"
        real = evaluation._grid_cell_task

        def logged(context, run):  # forked workers inherit the patch and append to one file
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {len(run)}\n")
            return real(context, run)

        s = make_dataset(40, 12, seed=6)
        definition = GridDef.of(TREE, ["ros", "rus", "smote3"],
                                [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.25, 3.5], k=4, seed=3)
        serial = quality_grid(s, definition)
        precomputed = dict(list({**serial.cells, **serial.skips}.items())[:cached])
        monkeypatch.setattr(evaluation, "_grid_cell_task", logged)
        pooled = quality_grid(s, definition, workers=2, precomputed=precomputed)
        runs = [line.split() for line in log.read_text().splitlines()]
        pending = len(serial.cell_keys()) - cached  # 25 cells
        assert len(runs) <= min(8 * 2, pending)
        assert sum(int(size) for _, size in runs) == pending
        assert len({pid for pid, _ in runs}) <= 2 and str(os.getpid()) not in runs[0]
        assert [(key, v.tobytes()) for key, v in pooled.cells.items()] == \
            [(key, v.tobytes()) for key, v in serial.cells.items()]
        assert pooled.skips == serial.skips

    @given(n_minor=st.integers(5, 12), n_dup=st.integers(0, 3), k=st.integers(2, 5),
           learner=st.sampled_from([TREE, KNN, LOGREG]), seed=st.integers(0, 2**16))
    @example(n_minor=8, n_dup=0, k=4, learner=LOGREG, seed=1)  # every smote7 cell is skipped
    @example(n_minor=10, n_dup=2, k=5, learner=KNN, seed=3)  # rus at IR 2.5 on some folds only
    @settings(max_examples=10, deadline=None)
    def test_shared_splits_match_per_cell_cv_quality(self, n_minor, n_dup, k, learner, seed):
        """Grid cells (at workers 1 and 2) and static cells equal those of the
        validated path: checked copies of every derived dataset, classes
        recounted, fresh fold splits per cell. Multipliers include 1.01 (no row
        added or dropped) and the dataset's own IR (RUS at its boundary), and
        duplicated minority rows tie SMOTE's neighbour distances."""
        s = make_dataset(30, n_minor, seed=seed % 50)
        dup = s.minor_rows[:n_dup]
        s = Dataset(id=s.id, features=np.vstack([s.features, s.features[dup]]),
                    labels=np.concatenate([s.labels, s.labels[dup]]))
        methods = ["ros", "rus", "smote1", "smote3", "smote5", "smote7"]
        multipliers = sorted({1.01, 1.5, imbalance_ratio(s), 3.0})
        definition = GridDef.of(learner, methods, multipliers, k=k, seed=seed)
        grids = [quality_grid(s, definition, workers=w) for w in (1, 2)]
        for method, m in grids[0].cell_keys():
            index = multipliers.index(m) if method != "none" else -1
            try:
                expected = oracles.cv_quality(s, k, seed, learner, ResamplingSpec(method, m),
                                              cell_seed(seed, s.id, method, index)).tobytes()
            except CellInfeasible as exc:
                expected = exc.reason
            for g in grids:
                got = g.skips.get((method, m)) or g.cells[(method, m)].tobytes()
                assert got == expected
        assert _static_cells_task(learner, (s, grids[0])) == \
            oracles.static_cells(learner, s, grids[0], STATIC_STRATEGIES)

    def test_precomputed_cells_reused(self):
        s = make_dataset(60, 20, seed=6)
        full = quality_grid(s, GridDef.of(TREE, ["ros"], [1.5, 2.0], k=4, seed=3))
        fake = dict(full.cells)
        fake[("ros", 1.5)] = np.zeros(4)  # a wrong value proves it is not recomputed
        resumed = quality_grid(s, GridDef.of(TREE, ["ros"], [1.5, 2.0], k=4, seed=3),
                               precomputed=fake)
        assert np.array_equal(resumed.cells[("ros", 1.5)], np.zeros(4))
        assert np.array_equal(resumed.cells[("ros", 2.0)], full.cells[("ros", 2.0)])

    def test_any_cached_subset_in_any_order_gives_the_full_grid(self):
        """Cells and skips supplied as precomputed, any subset in any order, at
        workers 1 and 2, leave a grid equal to the uncached one, byte for byte."""
        s = make_dataset(30, 8, seed=11)  # IR 3.75: rus@4.0 and every smote7 cell skip
        definition = GridDef.of(TREE, ["ros", "rus", "smote7"], [1.5, 3.0, 4.0], k=4, seed=2)
        full = quality_grid(s, definition)
        assert full.cells and full.skips
        known = {**full.cells, **full.skips}

        @given(st.permutations(list(known)), st.data(), st.sampled_from([1, 2]))
        @settings(max_examples=8, deadline=None)
        def check(order, data, workers):
            cached = {key: known[key] for key in order[:data.draw(st.integers(0, len(order)))]}
            g = quality_grid(s, definition, workers=workers, precomputed=cached)
            assert [(key, v.tobytes()) for key, v in g.cells.items()] == \
                [(key, v.tobytes()) for key, v in full.cells.items()]
            assert list(g.skips.items()) == list(full.skips.items())

        check()

    def test_save_load_bit_exact(self, tmp_path):
        s = make_dataset(44, 22, seed=7)
        g = quality_grid(s, GridDef.of(TREE, ["ros", "rus"], [1.5, 3.0], k=4, seed=13))
        save_grid(g, tmp_path / "g.csv")
        back = load_grid(tmp_path / "g.csv")
        assert back.dataset_id == g.dataset_id and back.definition == g.definition
        assert back.cells.keys() == g.cells.keys()
        for key in g.cells:
            assert np.array_equal(back.cells[key], g.cells[key])
        assert back.skips == g.skips

    def test_rows_and_columns_in_any_order_load_the_same_grid(self, tmp_path):
        s = make_dataset(40, 20, seed=4)  # IR = 2: ('rus', 2.5) is skipped
        g = quality_grid(s, GridDef.of(TREE, ["ros", "rus"], [1.5, 2.5], k=4, seed=9))
        save_grid(g, tmp_path / "g.csv")
        header, *rows = list(csv.reader((tmp_path / "g.csv").read_text().splitlines()))
        order = np.random.default_rng(0).permutation(len(header))
        rows = [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]
        out = io.StringIO()
        csv.writer(out).writerows([[r[i] for i in order] for r in [header] + rows])
        (tmp_path / "g.csv").write_text(out.getvalue())
        back = load_grid(tmp_path / "g.csv")
        assert [(key, v.tobytes()) for key, v in back.cells.items()] == \
            [(key, v.tobytes()) for key, v in g.cells.items()]
        assert back.skips == g.skips


def _drop_last_row(lines):
    return lines[:-1]


def _set_last_field(index, value):
    def corrupt(lines):
        fields = next(csv.reader(lines[-1:]))
        fields[index] = value
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(fields)
        return lines[:-1] + [out.getvalue()]
    return corrupt


class TestGridFile:
    """load_grid refuses a grid that save_grid could not have written whole."""

    @pytest.fixture
    def saved(self, tmp_path):
        s = make_dataset(40, 20, seed=4)  # IR = 2: ('rus', 2.5) is skipped
        save_grid(quality_grid(s, GridDef.of(TREE, ["ros", "rus"], [1.5, 2.5], k=4, seed=9)),
                  tmp_path / "g.csv")
        return tmp_path / "g.csv"

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_last_row, r"\('rus', 1.5\) has 3 fold rows"),
        (lambda lines: lines + lines[-1:], "has 5 fold rows"),
        (lambda lines: [ln for ln in lines if ",rus,1.5," not in ln], "has 0 fold rows"),
        (_set_last_field(5, "1.5"), "score outside"),
        (_set_last_field(5, "nan"), "score outside"),
        (_set_last_field(5, "-0.25"), "score outside"),
        (_set_last_field(4, "4"), "fold rows"),
        (_set_last_field(2, "smote9"), "not in its definition"),
        (_set_last_field(3, "1.75"), "not in its definition"),
        (_set_last_field(0, "other"), "another dataset"),
        (lambda lines: lines[:-1] + [lines[-1][:lines[-1].rindex(",")]], "field count"),
        (lambda lines: lines[:-1] + [lines[-1].replace(",", ";")], "field count"),
    ], ids=["truncated", "duplicate-row", "missing-cell", "score-above-1", "score-nan",
            "score-negative", "fold-out-of-range", "unknown-method", "unknown-multiplier",
            "other-dataset", "short-row", "bad-separator"])
    def test_corrupt_csv_rejected(self, saved, corrupt, message):
        lines = saved.read_text().splitlines()
        saved.write_text("\n".join(corrupt(lines)) + "\n")
        with pytest.raises(GridFileError, match=message):
            load_grid(saved)

    @pytest.mark.parametrize("sidecar, text, message", [
        (".skips.csv", None, "cannot read grid"),
        (".skips.csv", "dataset_id,learner,method,multiplier,reason\n", r"\('rus', 2.5\) has 0"),
        (".meta.json", None, "cannot read grid"),
        (".meta.json", "{", "cannot read grid"),
    ], ids=["skips-missing", "skips-empty", "meta-missing", "meta-corrupt"])
    def test_corrupt_sidecar_rejected(self, saved, sidecar, text, message):
        path = saved.with_suffix(sidecar)
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        with pytest.raises(GridFileError, match=message):
            load_grid(saved)

import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resamplerec import pipeline
from resamplerec.cli import build_parser, main
from resamplerec.config import (MAX_MULTIPLIERS, ConfigError, MultiplierGrid, RunConfig,
                                config_from_dict, load_config)
from resamplerec.data import MixtureConfig, csv_text, generate_mixture
from resamplerec.learners import LearnerSpec

import oracles
from oracles import count_multipliers, walk_multipliers


def tiny_config(tmp_path: Path, **extra) -> Path:
    doc = {
        "seed": 5,
        "out": str(tmp_path / "out"),
        "learner": {"kind": "decision_tree", "max_depth": 3, "min_leaf": 2},
        "methods": ["ros", "rus"],
        "multipliers": {"min": 1.5, "max": 2.5, "step": 0.5},
        "k": 4,
        "k_prime": 2,
        "count": 6,
        "mixture": {"dim_range": [3, 4], "size_range": [60, 90],
                    "minor_fraction_range": [0.15, 0.3]},
        "presets": {"a1": "rs1-dtree", "a2": "rs2-dtree"},
    }
    doc.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


@st.composite
def multiplier_grid_bounds(draw) -> tuple[float, float, float]:
    """(min, max, step) of a valid grid, with spans and steps near the value
    cap and near the 10 decimals the values are rounded to."""
    low = draw(st.sampled_from([1.0, 1.25, 1.5]) | st.floats(1.0, 50.0))
    span = draw(st.sampled_from([0.0, 1e-10, 1.0, 8.75, 999.0, 1000.0])
                | st.floats(0.0, 1e4))
    step = draw(st.sampled_from([4e-11, 1e-10, 0.25, 1.0]) | st.floats(1e-12, 100.0)
                | st.integers(990, 1010).map(lambda n: span / n if span / n > 0 else 1.0))
    return low, low + span, step


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_defaults_are_paper_constants(self):
        cfg = RunConfig()
        assert cfg.k == 20 and cfg.k_prime == 10
        assert cfg.alpha == 0.05 and cfg.epsilon == 0.75
        assert len(cfg.grid.multipliers) == 36
        assert cfg.methods == ("ros", "rus", "smote1", "smote3", "smote5", "smote7")

    def test_paper_scale_count_supported(self):
        cfg = config_from_dict({"count": 1000})
        assert cfg.count == 1000

    def test_overrides_beat_file(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg = load_config(path, {"seed": 99, "workers": 3})
        assert cfg.seed == 99 and cfg.workers == 3

    def test_mixture_seed_follows_master(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg = load_config(path, {"seed": 42})
        assert cfg.mixture.seed == 42

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            MultiplierGrid(min=0.5, max=2.0, step=0.25)

    @given(multiplier_grid_bounds())
    @example((1.25, 1e12, 0.25))  # about 4e12 values
    @example((1.5, 1.5000000001, 4e-11))  # 1.5 twice at 10 decimals
    @example((1.0, 1000.0, 1.0))  # exactly the cap
    @example((1.0, 1.0, 1e-300))  # 1.0 at every step for about 1e291 steps
    @settings(max_examples=300, deadline=None)
    def test_grid_that_loads_lists_the_walked_values(self, bounds):
        """A grid loads exactly when walking it gives at most 1000 distinct
        values, and then it lists those values."""
        walked = list(itertools.islice(walk_multipliers(*bounds), 1001))
        try:
            values = MultiplierGrid(*bounds).values()
        except ConfigError as exc:
            assert str(exc).startswith("config key 'multipliers' must list ")
            assert len(walked) > 1000 or len(set(walked)) < len(walked)
        else:
            assert values == walked and len(set(values)) == len(values)

    @given(multiplier_grid_bounds())
    @example((1.25, 1e12, 0.25))
    @example((1.0, 1000.0, 1.0))
    @example((1.0, 1.0, 1e-300))
    @settings(max_examples=300, deadline=None)
    def test_listing_stops_where_the_count_formula_says(self, bounds):
        """The bounded listing is as long as the closed-form count; both stop
        at MAX_MULTIPLIERS + 1 for a longer grid."""
        low, high, step = bounds
        # `values` of any bounds, whether or not a grid of them would load
        listed = MultiplierGrid.values(SimpleNamespace(min=low, max=high, step=step))
        assert len(listed) == count_multipliers(low, high, step, MAX_MULTIPLIERS)

    def test_preset_resolution(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        assert cfg.preset_for("a1") == "rs1-dtree"
        cfg2 = config_from_dict({"learner": "knn"})
        assert cfg2.preset_for("a2") == "rs2-knn"


_REAL_GRID_TASK = pipeline._grid_pool_task


def _grid_task_dying_on_synth_5_1(context, item):
    """The grid pool task, except that the worker handed dataset synth-5-1 dies at once."""
    if item[0].id == "synth-5-1":
        os._exit(3)
    return _REAL_GRID_TASK(context, item)


class TestPipelineCommands:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "out"
        for command in ("gen", "grid", "meta", "train", "assess", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        captured = capsys.readouterr()
        assert "cache hits" in captured.out
        assert "mean RA" in captured.out
        assert (out / "datasets" / "manifest.json").exists()
        assert (out / "meta.csv").exists()
        assert (out / "models" / "a1.json").exists()
        assert (out / "models" / "a2.json").exists()
        assert (out / "report" / "summary.json").exists()

        # recommend on one of the generated datasets
        data = next((out / "datasets").glob("synth-*.csv"))
        assert main(["recommend", "--config", str(cfg_path),
                     "--model", str(out / "models" / "a1.json"),
                     "--data", str(data)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        method, multiplier = lines[0].split(",")
        assert method in ("none", "ros", "rus")
        float(multiplier)
        detail = json.loads(lines[1])
        assert "p_hat" in detail["details"]

    def test_gen_deterministic(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg_path)]) == 0
        first = read_tree(out)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert read_tree(out) == first

    def test_grid_second_run_fully_cached(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["grid", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path)]) == 0
        assert "(100.0% cache hits)" in capsys.readouterr().out

    def test_grid_counts_the_cells_of_the_grid_it_saved(self, tmp_path, capsys):
        """"none" in `methods` is the baseline cell, not three more cells: 1 +
        2 methods x 3 multipliers = 7 cells per grid, computed once, then cached."""
        cfg_path = tiny_config(tmp_path, methods=["none", "ros", "rus"], count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "grid synth-5-0: 7 computed, 0 cached" in out
        assert "grid: 14 cells computed, 0 cached" in out
        assert main(["grid", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "grid synth-5-0: 0 computed, 7 cached" in out
        assert "grid: 0 cells computed, 14 cached (100.0% cache hits)" in out

    def test_cache_mismatch_refused(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["grid", "--config", str(cfg_path)]) == 0
        data = next((tmp_path / "out" / "datasets").glob("synth-*.csv"))
        data.write_text(data.read_text() + "\n")
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0  # single line
        assert err.startswith("error E_CACHE_MISMATCH:")

    def test_cache_mismatch_in_pool_worker_is_one_error_line(self, tmp_path, capsys):
        """A PipelineError raised in a pool worker reaches the parent whole."""
        cfg_path = tiny_config(tmp_path, count=4)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["grid", "--config", str(cfg_path)]) == 0
        tiny_config(tmp_path, count=4, k=5)
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path), "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error E_CACHE_MISMATCH: ")

    def test_one_dataset_grid_shares_workers_byte_identically(self, tmp_path, monkeypatch):
        """A lone dataset's cells run on the grid's workers; the files equal a serial run's."""
        pools = []
        real_init = ProcessPoolExecutor.__init__

        def counting_init(pool, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            real_init(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            cfg_path = tiny_config(tmp_path, count=1, out=str(out),
                                   methods=["ros", "rus", "smote3"])
            assert main(["gen", "--config", str(cfg_path)]) == 0
            assert main(["grid", "--config", str(cfg_path), "--workers", workers]) == 0
            trees.append(read_tree(out / "grids"))
        assert pools == [2]
        assert len(trees[0]) == 4 and trees[0] == trees[1]

    def test_truncated_grid_refused(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["grid", "--config", str(cfg_path)]) == 0
        grid_csv = sorted((tmp_path / "out" / "grids").glob("synth-*[0-9].csv"))[0]
        lines = grid_csv.read_text().splitlines(keepends=True)
        grid_csv.write_text("".join(lines[:-1]))
        before = grid_csv.read_bytes()
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error E_GRID_CORRUPT: grid {grid_csv}: cell ")
        assert "has 3 fold rows" in err
        assert grid_csv.read_bytes() == before  # refused, not overwritten

    def test_missing_artifact_error(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["assess", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error E_MISSING_INPUT:")

    @pytest.mark.parametrize("extra, message", [
        ({"kk": 3}, "config has unknown key 'kk'"),
        ({"mixture": {"dimrange": [2, 3]}}, "config has unknown key 'mixture.dimrange'"),
        ({"multipliers": {"min": 1.5, "max": 2.5, "step": 0.5, "stp": 1}},
         "config has unknown key 'multipliers.stp'"),
        ({"multipliers": {"min": 1.5}}, "config has no key 'multipliers.max'"),
        ({"learner": {"kind": "decision_tree", "maxdepth": 3}},
         "config has unknown key 'learner.maxdepth'"),
        ({"mixture": {"minor_cov_scale_range": [1.0, 2.0]}},
         "config key 'mixture.minor_cov_scale_range' is not supported"),
        ({"learner": 5}, "config key 'learner' must be a string or an object, not 5"),
        ([{"k": 4}], "config is not a JSON object"),
        ({"mixture": {"dim_range": [3]}},
         "config key 'mixture.dim_range' must be an array of integers of shape [2], not [3]"),
        ({"k": "ten"}, 'config key \'k\' must be an integer, not "ten"'),
        ({"seed": True}, "config key 'seed' must be an integer, not true"),
        ({"learner": {"kind": "knn", "k": 2.5}},
         "config key 'learner.k' must be an integer, not 2.5"),
        ({"multipliers": {"min": "1.5", "max": 2.5, "step": 0.5}},
         'config key \'multipliers.min\' must be a number, not "1.5"'),
        ({"mixture": {"size_range": [60.5, 90]}},
         "config key 'mixture.size_range[0]' must be an integer, not 60.5"),
        ({"methods": ["ros", "smote0"]}, "unknown resampling method 'smote0' in 'methods[1]'"),
        ({"methods": ["smote5", "smote05"]},
         "unknown resampling method 'smote05' in 'methods[1]'"),
        ({"presets": {"a1": 1}}, "config key 'presets.a1' must be a string, not 1"),
        ({"count": -1}, "config key 'count' must be an integer >= 1, not -1"),
        ({"k": 1}, "config key 'k' must be an integer >= 2, not 1"),
        ({"k_prime": 1}, "config key 'k_prime' must be an integer >= 2, not 1"),
        ({"workers": 0}, "config key 'workers' must be an integer >= 1, not 0"),
        ({"alpha": 2}, "config key 'alpha' must be a number in (0, 1), not 2"),
        ({"epsilon": -1}, "config key 'epsilon' must be a number > 0, not -1"),
        ({"approaches": ["a1", "a3"]}, "unknown approach 'a3' in 'approaches[1]'"),
        ({"methods": []}, "config key 'methods' must name a method other than 'none'"),
        ({"multipliers": {"min": 0.5, "max": 2.5, "step": 0.5}},
         "config key 'multipliers' must have 1 <= min <= max and step > 0, "
         "got min 0.5, max 2.5, step 0.5"),
        ({"mixture": {"dim_range": [4, 3]}},
         "config key 'mixture' is invalid: dim_range is empty: 4 > 3"),
        ({"multipliers": {"min": 1.5, "max": float("inf"), "step": 0.5}},
         "config key 'multipliers.max' must be a number, not Infinity"),
        ({"epsilon": float("nan")}, "config key 'epsilon' must be a number, not NaN"),
        ({"alpha": 10**400}, "config key 'alpha' must be a number, not " + "1" + "0" * 36 + "..."),
        ({"mixture": {"mean_range": [-float("inf"), 1.0]}},
         "config key 'mixture.mean_range[0]' must be a number, not -Infinity"),
        ({"presets": {"a3": "rs9-nothing"}}, "config has unknown key 'presets.a3'"),
        ({"presets": {"a1": "rs2-dtree"}},
         'config key \'presets.a1\' must be a string in (rs1-dtree, rs1-knn, rs1-logreg), '
         'not "rs2-dtree"'),
        ({"presets": {"a2": "rs9-nothing"}},
         'config key \'presets.a2\' must be a string in (rs2-dtree, rs2-knn, rs2-logreg), '
         'not "rs9-nothing"'),
        ({"multipliers": {"min": 1.25, "max": 1e12, "step": 0.25}},
         "config key 'multipliers' must list at most 1000 values, "
         "got min 1.25, max 1000000000000.0, step 0.25"),
        ({"multipliers": {"min": 1.5, "max": 1.5000000001, "step": 4e-11}},
         "config key 'multipliers' must list distinct values at 10 decimals, "
         "got min 1.5, max 1.5000000001, step 4e-11"),
        ({"methods": ["ros", "rus", "ros"]}, "config key 'methods' must name each method once"),
        ({"methods": ["none"]}, "config key 'methods' must name a method other than 'none'"),
    ], ids=["top", "mixture", "multipliers", "multipliers-missing", "learner",
            "minor-cov-scale", "learner-type", "document-type", "range-length", "int-type",
            "bool-is-not-int", "learner-field-type", "multiplier-type", "range-item-type",
            "unknown-method", "smote-leading-zero", "preset-type", "count-range", "k-range",
            "k-prime-range", "workers-range", "alpha-range", "epsilon-range", "approach",
            "methods-empty", "multiplier-range", "mixture-range", "infinite-multiplier",
            "nan-epsilon", "huge-alpha", "infinite-mean", "preset-approach",
            "preset-of-the-other-approach", "unknown-preset", "multiplier-count",
            "multiplier-repeats", "methods-repeated", "methods-only-none"])
    def test_config_key_error(self, tmp_path, capsys, extra, message):
        if isinstance(extra, dict):
            cfg_path = tiny_config(tmp_path, **extra)
        else:  # the whole document
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(extra))
        assert main(["gen", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error E_CONFIG: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "config key 'workers' must be an integer >= 1, not 0"),
        ("--count", "0", "config key 'count' must be an integer >= 1, not 0"),
    ])
    def test_override_range_error(self, tmp_path, capsys, flag, value, message):
        assert main(["gen", "--config", str(tiny_config(tmp_path)), flag, value]) == 1
        assert capsys.readouterr().err == f"error E_CONFIG: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_grid_resumes_after_crash_mid_save(self, tmp_path, monkeypatch, capsys):
        """A save that dies after moving its first file leaves no grid a later run trusts."""
        import os

        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["grid", "--config", str(cfg_path)]) == 0
        whole = read_tree(tmp_path / "out")
        assert not [name for name in whole if Path(name).name.startswith(".")]  # no temp files

        shutil.rmtree(tmp_path / "out" / "grids")
        real_replace = os.replace
        moved = []

        def replace_then_crash(src, dst):
            if moved:
                raise OSError("disk gone")
            moved.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_then_crash)
        assert main(["grid", "--config", str(cfg_path)]) == 1
        monkeypatch.setattr(os, "replace", real_replace)
        assert capsys.readouterr().err == "error E_FAILED: disk gone\n"
        grids = tmp_path / "out" / "grids"
        assert [p.name for p in grids.iterdir()] == [moved[0].name]  # no temp file left
        assert moved[0].suffix == ".csv" and not moved[0].name.startswith(".")

        assert main(["grid", "--config", str(cfg_path)]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert read_tree(tmp_path / "out") == whole

    def test_grid_resumes_after_a_pool_worker_dies(self, tmp_path, monkeypatch, capsys):
        """A worker that dies abruptly ends `grid` in one error line; a rerun
        resumes to the bytes of a run that was never interrupted."""
        trees = []
        for run in ("whole", "interrupted"):
            cfg_path = tiny_config(tmp_path, count=3, out=str(tmp_path / run / "out"))
            assert main(["gen", "--config", str(cfg_path)]) == 0
            if run == "interrupted":
                monkeypatch.setattr(pipeline, "_grid_pool_task", _grid_task_dying_on_synth_5_1)
                capsys.readouterr()
                assert main(["grid", "--config", str(cfg_path), "--workers", "2"]) == 1
                assert one_error_line(capsys) == (
                    "error E_FAILED: a worker process of 2 died before its tasks finished; "
                    "rerun the command to resume\n")
                monkeypatch.undo()
            assert main(["grid", "--config", str(cfg_path), "--workers", "2"]) == 0
            trees.append(read_tree(tmp_path / run / "out"))
        assert trees[0] == trees[1]

    def test_meta_reruns_after_crash_mid_save(self, tmp_path, monkeypatch, capsys):
        """A meta save that dies after moving meta.csv leaves no sidecar and no
        temp file. `train` and `assess` rebuild the meta-dataset from the
        datasets and grids, so they neither need nor read the export: their
        outputs equal an uninterrupted run's, with the export half written or
        gone. Re-running `meta` restores the whole tree."""
        import os

        cfg_path = tiny_config(tmp_path, count=2)
        for command in ("gen", "grid", "meta", "train", "assess"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        out = tmp_path / "out"
        whole = read_tree(out)

        def outputs_of_train_and_assess():
            shutil.rmtree(out / "models")
            shutil.rmtree(out / "report")
            for command in ("train", "assess"):
                assert main([command, "--config", str(cfg_path)]) == 0, command
            return {name: data for name, data in read_tree(out).items()
                    if name.startswith(("models", "report"))}

        trained = {name: data for name, data in whole.items()
                   if name.startswith(("models", "report"))}
        (out / "meta.csv").unlink()
        (out / "meta.meta.json").unlink()
        real_replace = os.replace
        moved = []

        def replace_then_crash(src, dst):
            if moved:
                raise OSError("disk gone")
            moved.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_then_crash)
        assert main(["meta", "--config", str(cfg_path)]) == 1
        monkeypatch.setattr(os, "replace", real_replace)
        assert capsys.readouterr().err == "error E_FAILED: disk gone\n"
        assert [p.name for p in moved] == ["meta.csv"]
        assert sorted(p.name for p in out.iterdir()) == [
            "datasets", "grids", "meta.csv", "models", "report"]

        assert outputs_of_train_and_assess() == trained
        (out / "meta.csv").unlink()
        assert outputs_of_train_and_assess() == trained
        assert capsys.readouterr().err == ""
        assert main(["meta", "--config", str(cfg_path)]) == 0
        assert read_tree(out) == whole

    def test_train_without_grids_is_missing_input(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error E_MISSING_INPUT: grid missing ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "models").exists()

    @pytest.mark.parametrize("change, named", [
        ({"multipliers": {"min": 1.5, "max": 3.0, "step": 0.5}}, "multipliers"),
        ({"methods": ["ros"]}, "methods"),
        ({"k": 5, "learner": {"kind": "knn"}}, "learner, k"),
    ], ids=["wider-multipliers", "fewer-methods", "learner-and-k"])
    def test_grids_of_another_definition_refused(self, tmp_path, capsys, change, named):
        """meta, train and assess refuse grids computed for another grid
        definition with one line naming the fields, and write nothing."""
        cfg_path = tiny_config(tmp_path, count=4)
        for command in ("gen", "grid"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        tiny_config(tmp_path, count=4, **change)
        for command in ("meta", "train", "assess"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg_path)]) == 1, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error E_CACHE_MISMATCH: grid for synth-5-0 was computed "
                                  f"with another {named} than the config"), err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["datasets", "grids"]

    def test_meta_targets_follow_the_windowed_switch(self, tmp_path):
        """With `use_windowed_pval_for_targets`, the y, yr and zr columns of
        meta.csv are the windowed targets that `train` fits."""
        import csv

        from resamplerec.pipeline import load_grids
        from resamplerec.qualityvars import binarize_targets, quality_row
        from resamplerec.recommender import build_meta_dataset

        cfg_path = tiny_config(tmp_path, use_windowed_pval_for_targets=True, alpha=0.3)
        for command in ("gen", "grid", "meta"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        cfg = load_config(cfg_path)
        records = build_meta_dataset(load_grids(cfg), cfg.epsilon)
        with (tmp_path / "out" / "meta.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["dataset_id"] for row in rows] == [rec.dataset_id for rec in records]
        differs = False
        for row, rec in zip(rows, records):
            windowed = quality_row(rec.qv, binarize_targets(rec.qv, 0.3, True))
            plain = quality_row(rec.qv, binarize_targets(rec.qv, 0.3))
            targets = [name for name in windowed if name.startswith(("y", "zr"))]
            assert targets
            assert {name: row[name] for name in targets} == \
                {name: windowed[name] for name in targets}
            differs |= any(windowed[name] != plain[name] for name in targets)
        assert differs  # the switch matters on this bank

    def test_recommend_tiny_variance_column(self, tmp_path, capsys):
        """A class column whose variance underflows in m2 ** 1.5 is answered
        as a zero-variance column, not with a traceback."""
        from resamplerec.data import Dataset, ingest_csv, write_csv

        cfg_path = tiny_config(tmp_path)
        for command in ("gen", "grid", "meta", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        s = ingest_csv(next((tmp_path / "out" / "datasets").glob("synth-*.csv")))
        x = s.features.copy()
        x[:, 0] = 0.0
        x[np.flatnonzero(s.labels == 1)[0], 0] = 4.7e-136
        query = tmp_path / "tiny.csv"
        write_csv(Dataset(id="tiny", features=x, labels=s.labels), query)
        capsys.readouterr()
        code = main(["recommend", "--config", str(cfg_path),
                     "--model", str(tmp_path / "out" / "models" / "a1.json"),
                     "--data", str(query)])
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == 2
        else:
            assert captured.err.startswith("error ") and captured.err.count("\n") == 1

    def test_recommend_huge_variance_column(self, tmp_path, capsys):
        """A column whose m2 ** 2 overflows has no finite kurtosis. The a1 model
        reads a kurtosis p-value, so it ends in one error line naming the
        column, not in an OverflowError traceback; the a2 model reads no
        moment of the column and answers."""
        from resamplerec.data import Dataset, ingest_csv, write_csv

        cfg_path = tiny_config(tmp_path)
        for command in ("gen", "grid", "meta", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        s = ingest_csv(next((tmp_path / "out" / "datasets").glob("synth-*.csv")))
        x = s.features.copy()
        x[:, 0] *= 1e80
        query = tmp_path / "huge.csv"
        write_csv(Dataset(id="huge", features=x, labels=s.labels), query)
        capsys.readouterr()
        assert main(["recommend", "--config", str(cfg_path),
                     "--model", str(tmp_path / "out" / "models" / "a1.json"),
                     "--data", str(query)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error E_FAILED: feature column 0: variance ")
        assert captured.err.count("\n") == 1
        assert main(["recommend", "--config", str(cfg_path),
                     "--model", str(tmp_path / "out" / "models" / "a2.json"),
                     "--data", str(query)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 2

    def test_recommend_missing_model(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        assert main(["recommend", "--config", str(cfg_path),
                     "--model", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path / "nope.csv")]) == 1
        assert capsys.readouterr().err.startswith("error E_MISSING_INPUT:")

    def test_count_override(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        assert main(["gen", "--config", str(cfg_path), "--count", "3"]) == 0
        manifest = json.loads((tmp_path / "out" / "datasets" / "manifest.json").read_text())
        assert len(manifest["datasets"]) == 3

    def test_csv_dir_source(self, tmp_path):
        from resamplerec.config import load_config
        from resamplerec.data import MixtureConfig, generate_mixture, write_csv
        from resamplerec.pipeline import load_bank

        csv_dir = tmp_path / "external"
        for i in range(2):
            s = generate_mixture(MixtureConfig(dim_range=(3, 3), size_range=(40, 60),
                                               minor_fraction_range=(0.2, 0.3), seed=9), i)
            write_csv(s, csv_dir / f"{s.id}.csv")
        cfg_path = tiny_config(tmp_path, csv_dir=str(csv_dir))
        bank = load_bank(load_config(cfg_path))
        assert [s.id for s, _ in bank] == ["synth-9-0", "synth-9-1"]


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(args)
    return status, out.getvalue(), err.getvalue()


# the learner of `gridded`, and the learner fields that the decision tree's
# token leaves out, at their defaults
_TRUST_LEARNER = {"kind": "decision_tree", "max_depth": 3, "min_leaf": 2}
_OUTSIDE_TOKEN = {name: value for name, value in LearnerSpec("decision_tree").to_dict().items()
                  if name not in ("kind", "max_depth", "min_leaf")}


def trust_config(root: Path, **extra) -> Path:
    """The config of `gridded` under root, with `extra` keys: its datasets are
    the two csv_dir files of `inputs/`."""
    return tiny_config(root, csv_dir=str(root / "inputs"), **extra)


@pytest.fixture(scope="module")
def gridded(tmp_path_factory) -> Path:
    """The directory of a tiny run through `grid` on two csv_dir datasets, each
    with two 0/1 columns: `label`, the config's label, and `other`."""
    root = tmp_path_factory.mktemp("gridded")
    for i in range(2):
        s = generate_mixture(MixtureConfig(dim_range=(3, 4), size_range=(60, 90),
                                           minor_fraction_range=(0.15, 0.3), seed=5), i)
        other = np.random.default_rng(i).permutation(s.labels)
        rows = [[repr(float(v)) for v in row] + [int(a), int(b)]
                for row, a, b in zip(s.features, s.labels, other)]
        (root / "inputs").mkdir(exist_ok=True)
        (root / "inputs" / f"{s.id}.csv").write_text(
            csv_text([f"f{j}" for j in range(s.dim)] + ["label", "other"], rows), newline="")
    assert main(["grid", "--config", str(trust_config(root))]) == 0
    return root


def copy_of(gridded, tmp: Path) -> Path:
    """A copy of the gridded run's `inputs/` and `out/` under tmp; returns tmp."""
    for name in ("inputs", "out"):
        shutil.copytree(gridded / name, tmp / name)
    return tmp


def _multiplier_grids():
    return st.builds(dict, min=st.sampled_from([1.0, 1.25, 1.5]),
                     max=st.sampled_from([2.0, 2.5, 3.0]), step=st.sampled_from([0.5, 1.0])) \
        .filter(lambda m: MultiplierGrid(**m).values() != [1.5, 2.0, 2.5])


@st.composite
def grid_input_changes(draw) -> tuple[dict, int | None, str]:
    """One change of a grid input: (config keys to set, index of a dataset file
    to append a blank line to or None, the cause the error line gives)."""
    choice = draw(st.sampled_from(["seed", "learner", "label_column", "dataset", "k", "methods",
                                   "multipliers"]))
    named = "was computed with another {} than the config"
    if choice == "seed":
        return {"seed": draw(st.integers(0, 2**31).filter(lambda v: v != 5))}, None, \
            named.format("seed")
    if choice == "learner":  # a field that the learner token leaves out
        field = draw(st.sampled_from(sorted(_OUTSIDE_TOKEN)))
        default = _OUTSIDE_TOKEN[field]
        value = draw((st.integers(1, 1000) if isinstance(default, int)
                      else st.floats(1e-9, 10.0)).filter(lambda v: v != default))
        return {"learner": {**_TRUST_LEARNER, field: value}}, None, named.format("learner")
    if choice == "label_column":  # the other 0/1 column of the same file bytes
        return {"label_column": "other"}, None, named.format("label_column")
    if choice == "dataset":
        return {}, draw(st.integers(0, 1)), "was computed before the dataset file changed"
    if choice == "k":
        return {"k": draw(st.sampled_from([2, 3, 5]))}, None, named.format("k")
    if choice == "methods":
        methods = draw(st.lists(st.sampled_from(["ros", "rus", "smote1"]), min_size=1,
                                unique=True).filter(lambda ms: ms != ["ros", "rus"]))
        return {"methods": methods}, None, named.format("methods")
    return {"multipliers": draw(_multiplier_grids())}, None, named.format("multipliers")


_CRASH_CONFIG = {"count": 3, "methods": ["ros"],
                 "multipliers": {"min": 1.5, "max": 2.0, "step": 0.5}, "k": 3, "k_prime": 2,
                 "mixture": {"dim_range": [2, 2], "size_range": [40, 40],
                             "minor_fraction_range": [0.2, 0.3]}}


class TestCrashAnywhere:
    """Every file is written to a temp file by one `Path.write_text` and moved
    into place by one `os.replace`. For each n, make the n-th write or move of
    the six commands fail: each command then succeeds or prints one error
    line, the first failure is the injected one, no temp file is left, and
    rerunning the six commands gives the `out/` tree of an uninterrupted run,
    byte for byte."""

    def run_all(self, cfg_path: Path, capsys) -> list[str]:
        """The error line of each failed command of `gen` through `report`."""
        errors = []
        for command in ("gen", "grid", "meta", "train", "assess", "report"):
            code = main([command, "--config", str(cfg_path)])
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (code == 1 and err.startswith("error E_")
                                              and err.count("\n") == 1), (command, err)
            errors += [err] if code else []
        return errors

    def fail_each_call_in_turn(self, tmp_path, capsys, calls: list, fail: SimpleNamespace,
                               error: str) -> int:
        """Run the six commands whole, then once with each call of `calls` made to
        fail (`fail.at`, 1-based) and once more; returns the whole run's call count."""
        cfg_path = tiny_config(tmp_path, **_CRASH_CONFIG)
        out = tmp_path / "out"
        calls.clear()  # the config's own write
        assert self.run_all(cfg_path, capsys) == []
        whole = read_tree(out)
        n_calls = len(calls)
        for n in range(1, n_calls + 1):
            shutil.rmtree(out)
            calls.clear()
            fail.at = n
            errors = self.run_all(cfg_path, capsys)
            assert errors and errors[0] == error, n
            assert not list(out.rglob(".*.tmp")), n
            fail.at = None
            assert self.run_all(cfg_path, capsys) == []
            assert read_tree(out) == whole, n
        return n_calls

    def test_a_failed_move_anywhere_resumes_to_the_same_tree(self, tmp_path, monkeypatch,
                                                             capsys):
        real_replace = os.replace
        moves, fail = [], SimpleNamespace(at=None)

        def replace(src, dst):
            moves.append(dst)
            if len(moves) == fail.at:
                raise OSError("disk gone")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert self.fail_each_call_in_turn(tmp_path, capsys, moves, fail,
                                           "error E_FAILED: disk gone\n") == 29

    def test_a_failed_temp_file_write_anywhere_resumes_to_the_same_tree(
            self, tmp_path, monkeypatch, capsys):
        """The failing write leaves half its text in the temp file."""
        real_write_text = Path.write_text
        writes, fail = [], SimpleNamespace(at=None)

        def write_text(path, text, *args, **kwargs):
            writes.append(path)
            if len(writes) == fail.at:
                real_write_text(path, text[:len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return real_write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        assert self.fail_each_call_in_turn(tmp_path, capsys, writes, fail,
                                           "error E_FAILED: disk full\n") == 29


class TestGridTrust:
    """`grid`, `meta`, `train` and `assess` trust a saved grid by one rule: its
    `.meta.json` holds the config's whole grid definition (learner spec,
    `label_column`, methods but "none", multipliers, `k`, `seed`), and its
    `.cache.json` marker the content hash of the dataset file. Any other grid
    is refused in one E_CACHE_MISMATCH line that names every field that
    differs, and the command writes nothing."""

    COMMANDS = ("grid", "meta", "train", "assess")

    def assert_refused_by_every_command(self, root: Path, cfg_path: Path, line: str) -> None:
        out = root / "out"
        before = read_tree(out)
        for command in self.COMMANDS:
            status, stdout, err = run_cli([command, "--config", str(cfg_path)])
            assert (status, stdout) == (1, ""), command
            assert err == f"error E_CACHE_MISMATCH: {line}; delete {out / 'grids'} and rerun " \
                          "`grid`\n", command
            assert read_tree(out) == before, command

    @given(grid_input_changes())
    @example(({"seed": 7}, None, "was computed with another seed than the config"))
    @example(({"learner": {**_TRUST_LEARNER, "tol": 1e-4}}, None,
              "was computed with another learner than the config"))
    @example(({"label_column": "other"}, None,
              "was computed with another label_column than the config"))
    @settings(max_examples=25, deadline=None)
    def test_a_changed_input_is_refused_by_every_command(self, gridded, change):
        """Each command exits 1 with one E_CACHE_MISMATCH line and writes nothing."""
        updates, dataset, cause = change
        with tempfile.TemporaryDirectory() as tmp:
            root = copy_of(gridded, Path(tmp))
            ids = [f"synth-5-{i}" for i in range(2)]
            if dataset is not None:
                path = root / "inputs" / f"{ids[dataset]}.csv"
                path.write_bytes(path.read_bytes() + b"\r\n")
            first = ids[dataset] if dataset is not None else ids[0]  # the first refused
            self.assert_refused_by_every_command(
                root, trust_config(root, **updates), f"grid for {first} {cause}")

    def test_a_grid_an_older_version_wrote_is_stale(self, gridded, tmp_path):
        """A grid whose `.cache.json` and `.meta.json` are in the parent format
        (the marker hashed the file and the definition, the `.meta.json` named
        the learner by its token) is refused as stale, not as corrupt."""
        root = copy_of(gridded, tmp_path)
        cfg_path = trust_config(root)
        cfg = load_config(cfg_path)
        for i in range(2):
            data = (root / "inputs" / f"synth-5-{i}.csv").read_bytes()
            grids = root / "out" / "grids"
            assert (grids / f"synth-5-{i}.cache.json").read_text() == json.dumps(
                {"dataset_hash": hashlib.blake2b(data, digest_size=16).hexdigest()})
            (grids / f"synth-5-{i}.cache.json").write_text(oracles.parent_grid_marker(cfg, data))
            (grids / f"synth-5-{i}.meta.json").write_text(
                json.dumps(oracles.parent_grid_meta_doc(cfg, f"synth-5-{i}"), sort_keys=True))
        self.assert_refused_by_every_command(
            root, cfg_path, "grid for synth-5-0 was written by an older version of resamplerec")

    @given(st.sampled_from(["alpha", "epsilon", "k_prime", "workers",
                            "use_windowed_pval_for_targets", "methods"]), st.data())
    @settings(max_examples=8, deadline=None)
    def test_a_setting_outside_the_grid_keeps_it(self, gridded, key, data):
        """A key outside the grid definition, or "none" anywhere in `methods`,
        leaves `out/` byte-identical to a fresh run with that key."""
        value = data.draw({"alpha": st.sampled_from([0.1, 0.3]),
                           "epsilon": st.sampled_from([0.5, 1.0]),
                           "k_prime": st.just(2), "workers": st.just(2),
                           "use_windowed_pval_for_targets": st.just(True),
                           "methods": st.sampled_from([["none", "ros", "rus"],
                                                       ["ros", "none", "rus"],
                                                       ["ros", "rus", "none"]])}[key])
        with tempfile.TemporaryDirectory() as tmp:
            root = copy_of(gridded, Path(tmp))
            cfg_path = trust_config(root, **{key: value})
            for command in self.COMMANDS:
                assert run_cli([command, "--config", str(cfg_path)])[0] == 0, command
            fresh = root / "fresh"
            for command in self.COMMANDS:
                status = run_cli([command, "--config", str(cfg_path), "--out", str(fresh)])[0]
                assert status == 0, command
            assert read_tree(root / "out") == read_tree(fresh)

    def test_a_second_grid_writes_nothing(self, gridded, tmp_path, monkeypatch, capsys):
        """`grid` over trusted grids moves no file into place and leaves every
        grid file as it was, to the nanosecond."""
        grids = copy_of(gridded, tmp_path) / "out" / "grids"
        cfg_path = trust_config(tmp_path)
        before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in grids.iterdir()}
        moves = []
        monkeypatch.setattr(os, "replace", lambda src, dst: moves.append(dst))
        assert main(["grid", "--config", str(cfg_path)]) == 0
        assert "grid: 0 cells computed, 14 cached (100.0% cache hits)" in capsys.readouterr().out
        assert moves == []
        assert {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in grids.iterdir()} == before

    def test_a_deleted_marker_is_a_missing_grid(self, gridded, tmp_path, capsys):
        """`grid` computes a grid without its marker afresh, to the same bytes;
        `meta`, `train` and `assess` stop with E_MISSING_INPUT."""
        out = copy_of(gridded, tmp_path) / "out"
        cfg_path = trust_config(tmp_path)
        (out / "grids" / "synth-5-1.cache.json").unlink()
        before = read_tree(out)
        for command in ("meta", "train", "assess"):
            assert main([command, "--config", str(cfg_path)]) == 1, command
            assert one_error_line(capsys) == ("error E_MISSING_INPUT: grid missing for "
                                              "synth-5-1: run `grid` first\n")
            assert read_tree(out) == before
        assert main(["grid", "--config", str(cfg_path)]) == 0
        assert "grid synth-5-1: 7 computed, 0 cached" in capsys.readouterr().out
        assert read_tree(out) == read_tree(gridded / "out")

    @pytest.mark.parametrize("text, problem", [
        ("[]", "grid marker {} is not a JSON object"),
        ("{}", "grid marker {} has no key 'dataset_hash'"),
        ('{"dataset_hash": 7}', "grid marker {} key 'dataset_hash' must be a string, not 7"),
        ('{"dataset_hash": "0f', "cannot read grid marker {}: Unterminated string"),
    ], ids=["list", "empty-object", "number-hash", "truncated"])
    def test_a_broken_marker_is_refused(self, gridded, tmp_path, capsys, text, problem):
        out = copy_of(gridded, tmp_path) / "out"
        cfg_path = trust_config(tmp_path)
        marker = out / "grids" / "synth-5-0.cache.json"
        marker.write_text(text)
        before = read_tree(out)
        for command in self.COMMANDS:
            assert main([command, "--config", str(cfg_path)]) == 1, command
            err = one_error_line(capsys)
            assert err.startswith(f"error E_GRID_CORRUPT: {problem.format(marker)}"), err
            assert read_tree(out) == before


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny run through `train`: (config path, a1 model path, a dataset CSV)."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = tiny_config(root)
    for command in ("gen", "grid", "meta", "train"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    data = next((root / "out" / "datasets").glob("synth-*.csv"))
    return cfg_path, root / "out" / "models" / "a1.json", data


def one_error_line(capsys) -> str:
    """The stderr of a failed command, checked to be one `error <CODE>: ...` line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error E_") and captured.err.count("\n") == 1
    return captured.err


class TestBrokenInputs:
    """Each broken input ends in exit status 1 and one error line that says
    what is wrong, not in a traceback."""

    @pytest.mark.parametrize("text, problem", [
        ("dataset_id,strategy,ra\r\nd0,rec1,0.5\r\nd1,rec1\r\n",
         "ra.csv row 2 has the wrong field count"),
        ("dataset_id,strategy,score\r\nd0,rec1,0.5\r\n", "ra.csv has no column 'ra'"),
        ("", "ra.csv is empty"),
        ("dataset_id,strategy,ra\r\n", "ra.csv has no rows"),
        ("dataset_id,strategy,ra\r\nd0,rec1,0.5\r\nd1," + "x" * 131073 + ",0.5\r\n",
         "ra.csv line 3: field larger than field limit (131072)"),
    ], ids=["truncated-row", "missing-column", "empty-file", "no-rows", "oversized-field"])
    def test_report_refuses_a_broken_ra_csv(self, tmp_path, capsys, text, problem):
        ra_path = tmp_path / "out" / "report" / "ra.csv"
        ra_path.parent.mkdir(parents=True)
        ra_path.write_bytes(text.encode())
        assert main(["report", "--out", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys) == \
            f"error E_FAILED: cannot read {ra_path}: {problem}; rerun `assess`\n"

    def test_recommend_refuses_an_oversized_csv_field(self, trained, tmp_path, capsys):
        cfg_path, model, _ = trained
        query = tmp_path / "q.csv"
        query.write_text("f0,label\n1.0,0\n" + "2" * 131073 + ",1\n")
        assert main(["recommend", "--config", str(cfg_path), "--model", str(model),
                     "--data", str(query)]) == 1
        assert one_error_line(capsys) == \
            "error E_FAILED: line 3: field larger than field limit (131072)\n"

    def test_recommend_refuses_a_header_only_csv(self, trained, tmp_path, capsys):
        """No data row: one error line, and no loadtxt warning on stderr."""
        cfg_path, model, _ = trained
        query = tmp_path / "q.csv"
        query.write_text("f0,f1,label\n")
        assert main(["recommend", "--config", str(cfg_path), "--model", str(model),
                     "--data", str(query)]) == 1
        assert one_error_line(capsys) == "error E_FAILED: not binary: 0 distinct labels\n"

    def test_grid_refuses_smote_rows_that_overflow(self, tmp_path, capsys):
        """Minority rows near -1.7e308 beside one near +1.7e308: SMOTE's
        segments between them overflow, and the non-finite rows end `grid` in
        one error line, although derived datasets are not validated again.
        No numpy warning comes with it (pytest would turn one into an error)."""
        from resamplerec.data import Dataset, write_csv

        rng = np.random.default_rng(0)
        minors = np.column_stack([-1.7e308 + rng.uniform(0.0, 1e306, 12), rng.normal(size=12)])
        minors[0, 0] = 1.7e308
        write_csv(Dataset(id="huge", features=np.vstack([rng.normal(size=(40, 2)), minors]),
                          labels=np.array([0] * 40 + [1] * 12)), tmp_path / "csv" / "huge.csv")
        cfg_path = tiny_config(tmp_path, csv_dir=str(tmp_path / "csv"), methods=["smote3"],
                               multipliers={"min": 1.5, "max": 2.0, "step": 0.5})
        assert main(["grid", "--config", str(cfg_path)]) == 1
        assert one_error_line(capsys) == "error E_FAILED: features contain non-finite values\n"

    @pytest.mark.parametrize("learner, methods, split_past_max", [
        *[(learner, methods, False)
          for learner in ({"kind": "decision_tree", "max_depth": 3, "min_leaf": 2},
                          {"kind": "knn", "k": 3}, {"kind": "logreg_l1"})
          for methods in (["ros", "rus"], ["smote1"])],
        ({"kind": "decision_tree"}, ["ros", "rus", "smote1"], True),
    ], ids=[f"{kind}-{methods}" for kind in ("decision_tree", "knn", "logreg_l1")
            for methods in ("ros-rus", "smote1")] + ["default-tree-split-past-max"])
    def test_grid_on_near_overflow_rows_prints_no_warning(self, tmp_path, learner, methods,
                                                          split_past_max):
        """Minority rows at +-1.7e308 overflow SMOTE's distances and new rows,
        kNN's distances and logreg's products; majority rows at 1.6e308 beside
        minority rows at 1.7e308 put a tree split's midpoint past the float
        maximum (an unbounded tree once recursed without end). `grid` answers,
        or refuses SMOTE's non-finite rows in one error line; numpy prints
        nothing. A subprocess shows what reaches stderr: in-process, pytest
        would turn the first warning into an error."""
        from resamplerec.data import Dataset, write_csv

        rng = np.random.default_rng(0)
        if split_past_max:
            features = np.column_stack([[1.6e308] * 40 + [1.7e308] * 10, rng.normal(size=50)])
        else:
            minors = rng.choice([-1.7e308, 1.7e308], size=(10, 2))
            features = np.vstack([rng.normal(size=(40, 2)), minors])
        write_csv(Dataset(id="huge", features=features, labels=np.array([0] * 40 + [1] * 10)),
                  tmp_path / "csv" / "huge.csv")
        cfg_path = tiny_config(tmp_path, csv_dir=str(tmp_path / "csv"), learner=learner,
                               methods=methods, k=3)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "resamplerec.cli", "grid", "--config", str(cfg_path)],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default"),
            capture_output=True, text=True, timeout=300)
        if proc.returncode == 0:
            assert proc.stderr == ""
        else:
            assert proc.returncode == 1
            assert proc.stderr.startswith("error E_FAILED: ") and proc.stderr.count("\n") == 1, \
                proc.stderr

    @pytest.mark.parametrize("approach, problem", [
        ("a1", "feature column 0: variance "), ("a2", "meta-features must be finite")])
    def test_recommend_refuses_an_overflowing_column_without_a_warning(
            self, trained, tmp_path, capsys, approach, problem):
        """Finite values near the float maximum overflow the class means and
        moments: one error line, and no numpy warning on stderr."""
        from resamplerec.data import Dataset, ingest_csv, write_csv

        cfg_path, model, data = trained
        s = ingest_csv(data)
        x = s.features.copy()
        x[:, 0] *= 1e307
        query = tmp_path / "q.csv"
        write_csv(Dataset(id="q", features=x, labels=s.labels), query)
        assert main(["recommend", "--config", str(cfg_path),
                     "--model", str(model.with_name(f"{approach}.json")),
                     "--data", str(query)]) == 1
        assert one_error_line(capsys).startswith(f"error E_FAILED: {problem}")

    @pytest.mark.parametrize("change, problem", [
        (lambda doc: [1, 2], "recommender is not a JSON object"),
        (lambda doc: {**doc, "models": None},
         "recommender key 'models' must be an object, not null"),
        (lambda doc: {**doc, "features": doc["features"] + ["n_rows"]},
         "recommender key 'features' names no meta-feature: 'n_rows'"),
        (lambda doc: {**doc, "models": {**doc["models"], "ros@1.5": None}},
         "recommender key 'models' entry 'ros@1.5': not a model document"),
        (lambda doc: {**doc, "classifier_spec": {**doc["classifier_spec"], "depht": 3}},
         "recommender has unknown key 'classifier_spec.depht'"),
        (lambda doc: {**doc, "models": {**doc["models"], "ros@1.5": {
            **doc["models"]["ros@1.5"],
            "spec": {**doc["models"]["ros@1.5"]["spec"], "depht": 3}}}},
         "recommender key 'models' entry 'ros@1.5': model has unknown key 'spec.depht'"),
        (lambda doc: {**doc, "models": {**doc["models"], "ros@1.5": {
            **doc["models"]["ros@1.5"],
            "spec": {**doc["models"]["ros@1.5"]["spec"], "min_leaf": 5.0}}}},
         "recommender key 'models' entry 'ros@1.5': "
         "model key 'spec.min_leaf' must be an integer, not 5.0"),
        (lambda doc: {**doc, "approach": "a3"},
         "recommender key 'approach' must be 'a1' or 'a2', not 'a3'"),
    ], ids=["list-document", "null-models", "unknown-feature", "null-model-entry",
            "unknown-classifier-spec-field", "unknown-model-spec-field",
            "model-spec-float-equal-to-the-shared-integer", "unknown-approach"])
    def test_recommend_refuses_a_malformed_model_file(self, trained, tmp_path, capsys,
                                                     change, problem):
        cfg_path, model, data = trained
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(change(json.loads(model.read_text()))))
        assert main(["recommend", "--config", str(cfg_path), "--model", str(broken),
                     "--data", str(data)]) == 1
        # the line names the file after the document
        named = problem.replace("recommender", f"recommender {broken}", 1)
        assert one_error_line(capsys) == f"error E_FAILED: {named}\n"


    @pytest.mark.parametrize("edit, problem", [
        (lambda entry: entry["spec"].update(kind="logreg_l1"), "model has no key 'coef'"),
        (lambda entry: entry.update(n_features=4.7),
         "model key 'n_features' must be an integer, not 4.7"),
        (lambda entry: entry["stages"][0]["tree"].update(value="0.5"),
         'tree node key \'value\' must be a number, not "0.5"'),
    ], ids=["spec-of-another-kind", "fractional-width", "string-leaf"])
    def test_recommend_names_a_bad_payload_key(self, trained, tmp_path, capsys, edit, problem):
        """A fitted entry with a missing or wrong-typed payload key is one
        error line that names the entry and the key."""
        cfg_path, model, data = trained
        doc = json.loads(model.read_text())
        token = min(t for t, entry in doc["models"].items() if "constant_score" not in entry)
        stages = doc["models"][token]["stages"]
        stages[0]["tree"] = {"value": 0.5, "n": 3}  # a leaf, for the string-leaf edit
        edit(doc["models"][token])
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(doc))
        assert main(["recommend", "--config", str(cfg_path), "--model", str(broken),
                     "--data", str(data)]) == 1
        assert one_error_line(capsys) == \
            f"error E_FAILED: recommender {broken} key 'models' entry {token!r}: {problem}\n"

    @pytest.mark.parametrize("manifest, problem", [
        ([], "is not a JSON object"),
        ({"datasets": {}}, "key 'datasets' must be an array of objects, not {}"),
        ({"datasets": [{"id": "synth-5-0"}]}, "has no key 'datasets[0].file'"),
        ({"datasets": [{"id": "synth-5-0", "file": 3}]},
         "key 'datasets[0].file' must be a non-empty string, not 3"),
        ({"datasets": [{"id": "synth-5-0", "file": "synth-5-0.csv"}, {"file": "x.csv"}]},
         "has no key 'datasets[1].id'"),
        ({"datasets": [{"id": "", "file": "synth-5-0.csv"}]},
         'key \'datasets[0].id\' must be a non-empty string, not ""'),
        ({"datasets": ["synth-5-0.csv"]},
         'key \'datasets[0]\' must be an object, not "synth-5-0.csv"'),
    ], ids=["list", "object-datasets", "no-file", "number-file", "no-id", "empty-id",
            "string-entry"])
    def test_a_malformed_manifest_is_one_error_line(self, tmp_path, capsys, manifest, problem):
        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        path = tmp_path / "out" / "datasets" / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("grid", "meta", "train", "assess"):
            assert main([command, "--config", str(cfg_path)]) == 1, command
            assert one_error_line(capsys) == f"error E_FAILED: manifest {path} {problem}\n"

    def test_a_manifest_that_is_not_json_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        path = tmp_path / "out" / "datasets" / "manifest.json"
        path.write_text('{"datasets": [')
        capsys.readouterr()
        assert main(["grid", "--config", str(cfg_path)]) == 1
        assert one_error_line(capsys).startswith(
            f"error E_FAILED: cannot read manifest {path}: ")

    def test_a_missing_dataset_file_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        gone = tmp_path / "out" / "datasets" / "synth-5-0.csv"
        gone.unlink()
        capsys.readouterr()
        for command in ("grid", "meta", "train", "assess"):
            assert main([command, "--config", str(cfg_path)]) == 1, command
            assert one_error_line(capsys) == \
                f"error E_MISSING_INPUT: dataset file missing: {gone}\n"

    def test_a_dataset_file_rewritten_during_grid_leaves_no_trusted_grid(
            self, tmp_path, capsys, monkeypatch):
        """`grid` hashes the bytes it parsed a dataset from. A file rewritten
        after the bank is read leaves a grid of the old rows under the old
        bytes' hash, which the next `meta` refuses."""
        cfg_path = tiny_config(tmp_path, count=2)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        datasets = tmp_path / "out" / "datasets"
        real = pipeline.load_bank

        def load_then_rewrite(cfg):
            bank = real(cfg)
            shutil.copyfile(datasets / "synth-5-1.csv", datasets / "synth-5-0.csv")
            return bank

        monkeypatch.setattr(pipeline, "load_bank", load_then_rewrite)
        assert main(["grid", "--config", str(cfg_path)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["meta", "--config", str(cfg_path)]) == 1
        assert one_error_line(capsys) == (
            "error E_CACHE_MISMATCH: grid for synth-5-0 was computed before the dataset file "
            f"changed; delete {tmp_path / 'out' / 'grids'} and rerun `grid`\n")

    def test_a_dataset_id_that_names_two_files_is_refused(self, tmp_path, capsys):
        """A csv_dir file named like a manifest dataset stops every command
        that reads the bank before any grid work, in one line naming both."""
        twin = tmp_path / "csv" / "synth-5-0.csv"
        twin.parent.mkdir()
        cfg_path = tiny_config(tmp_path, count=3, csv_dir=str(twin.parent))
        assert main(["gen", "--config", str(cfg_path)]) == 0
        datasets = tmp_path / "out" / "datasets"
        shutil.copyfile(datasets / "synth-5-1.csv", twin)
        capsys.readouterr()
        for command in ("grid", "meta", "train", "assess"):
            assert main([command, "--config", str(cfg_path)]) == 1, command
            assert one_error_line(capsys) == ("error E_FAILED: dataset id synth-5-0 names two "
                                              f"files: {datasets / 'synth-5-0.csv'} and {twin}\n")
        assert not (tmp_path / "out" / "grids").exists()

    @pytest.mark.parametrize("offset", [3, 10000])
    def test_an_undecodable_byte_is_named_by_its_offset_in_the_file(
            self, trained, tmp_path, capsys, offset):
        """`grid` (through csv_dir) and `recommend` decode a file whole, so
        the error names the bad byte's offset in the file."""
        from resamplerec.data import MixtureConfig, generate_mixture, write_csv

        cfg_path, model, _ = trained
        path = tmp_path / "csv" / "d.csv"
        write_csv(generate_mixture(MixtureConfig(dim_range=(4, 4), size_range=(300, 300),
                                                 minor_fraction_range=(0.2, 0.3), seed=9)), path)
        raw = bytearray(path.read_bytes())
        raw[offset] = 0xFF
        path.write_bytes(raw)
        problem = (f"error E_FAILED: 'utf-8' codec can't decode byte 0xff in position {offset}: "
                   "invalid start byte\n")
        grid_cfg = tiny_config(tmp_path, csv_dir=str(path.parent))
        assert main(["grid", "--config", str(grid_cfg)]) == 1
        assert one_error_line(capsys) == problem
        assert main(["recommend", "--config", str(cfg_path), "--model", str(model),
                     "--data", str(path)]) == 1
        assert one_error_line(capsys) == problem


_INTEGER_FIELDS = ("min_leaf", "k", "max_iter", "n_estimators")
_NUMBER_FIELDS = ("l1_strength", "tol", "learning_rate")


@st.composite
def wrong_typed_spec_fields(draw) -> tuple[str, object]:
    """A learner spec field and a JSON value of a type the field does not take."""
    floats = st.floats(allow_nan=False)
    strings = st.text(max_size=4)
    field = draw(st.sampled_from(("kind", "max_depth") + _INTEGER_FIELDS + _NUMBER_FIELDS))
    if field == "kind":
        values = st.none() | st.booleans() | st.integers() | floats
    elif field == "max_depth":
        values = st.booleans() | floats | strings
    elif field in _INTEGER_FIELDS:
        values = st.none() | st.booleans() | floats | strings
    else:
        values = st.none() | st.booleans() | strings
    return field, draw(values)


class TestSpecValueTypes:
    @given(wrong_typed_spec_fields(), st.sampled_from(["classifier_spec", "entry"]))
    @example(("k", 5.0), "entry")  # equal to the shared spec's 5 as a Python value
    @example(("learning_rate", True), "entry")  # equal to the shared spec's 1.0
    @example(("k", "5"), "classifier_spec")
    @settings(max_examples=40, deadline=None)
    def test_recommend_names_a_wrong_typed_field(self, trained, field_value, where):
        """A model file whose top-level or entry spec holds a value of the
        wrong JSON type ends in one error line that names the field."""
        cfg_path, model, data = trained
        field, value = field_value
        doc = json.loads(model.read_text())
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "model.json"
            if where == "classifier_spec":
                doc["classifier_spec"][field] = value
                problem = f"recommender {broken} key 'classifier_spec.{field}'"
            else:
                token = min(doc["models"])
                doc["models"][token]["spec"][field] = value
                problem = f"recommender {broken} key 'models' entry {token!r}: " \
                    f"model key 'spec.{field}'"
            broken.write_text(json.dumps(doc))
            with redirect_stdout(out), redirect_stderr(err):
                status = main(["recommend", "--config", str(cfg_path),
                               "--model", str(broken), "--data", str(data)])
        assert status == 1 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(f"error E_FAILED: {problem} must be ")


class TestParserReuse:
    """`main` builds its parser once per process, and no call's arguments
    or errors reach the next call."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_count_of_one_call_does_not_stick(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        manifest = tmp_path / "out" / "datasets" / "manifest.json"
        assert main(["gen", "--config", str(cfg_path), "--count", "3"]) == 0
        assert len(json.loads(manifest.read_text())["datasets"]) == 3
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert len(json.loads(manifest.read_text())["datasets"]) == 6

    def test_usage_error_then_a_valid_call(self, trained, capsys):
        cfg_path, model, data = trained
        with pytest.raises(SystemExit) as info:
            main(["recommend", "--config", str(cfg_path), "--data", str(data)])
        assert info.value.code == 2
        assert "the following arguments are required: --model" in capsys.readouterr().err
        assert main(["recommend", "--config", str(cfg_path), "--model", str(model),
                     "--data", str(data)]) == 0
        assert capsys.readouterr().out.count("\n") == 2


_IMPORT_BOUNDARY_SCRIPT = """
import sys

def check(step):
    loaded = [name for name in ("scipy", "multiprocessing") if name in sys.modules]
    assert not loaded, f"{step} loaded {loaded}"

import resamplerec.cli as cli
check("import resamplerec.cli")
cfg, model, data, out = sys.argv[1:]
assert cli.main(["gen", "--config", cfg, "--workers", "1", "--out", out]) == 0
check("gen")
assert cli.main(["grid", "--config", cfg, "--workers", "1", "--out", out]) == 0
check("grid")
assert cli.main(["recommend", "--config", cfg, "--workers", "1",
                 "--model", model, "--data", data]) == 0
check("recommend")
"""


class TestImportBoundary:
    def test_cli_import_gen_recommend_load_neither_scipy_nor_pool(self, tmp_path):
        """Only `meta`, `train` and `assess` need scipy (they build quality
        variables) and only parallel commands need a process pool, so neither
        is imported by the CLI itself, `gen`, a one-worker `grid` or
        `recommend`.
        A fresh interpreter is needed: this process imported scipy already."""
        cfg_path = tiny_config(tmp_path)
        for command in ("gen", "grid", "meta", "train"):
            assert main([command, "--config", str(cfg_path), "--workers", "1"]) == 0, command
        out = tmp_path / "out"
        data = next((out / "datasets").glob("synth-*.csv"))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_BOUNDARY_SCRIPT, str(cfg_path),
             str(out / "models" / "a1.json"), str(data), str(tmp_path / "fresh")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from resamplerec.cli import main
from resamplerec.config import MultiplierGrid, RunConfig, config_from_dict, load_config


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


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_defaults_are_paper_constants(self):
        cfg = RunConfig()
        assert cfg.k == 20 and cfg.k_prime == 10
        assert cfg.alpha == 0.05 and cfg.epsilon == 0.75
        assert len(cfg.multiplier_values()) == 36
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

    def test_preset_resolution(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        assert cfg.preset_for("a1") == "rs1-dtree"
        cfg2 = config_from_dict({"learner": "knn"})
        assert cfg2.preset_for("a2") == "rs2-knn"


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
        ({"kk": 3}, "unknown config key 'kk'"),
        ({"mixture": {"dimrange": [2, 3]}}, "unknown config key 'mixture.dimrange'"),
        ({"multipliers": {"min": 1.5, "max": 2.5, "step": 0.5, "stp": 1}},
         "unknown config key 'multipliers.stp'"),
        ({"multipliers": {"min": 1.5}}, "missing config key 'multipliers.max'"),
        ({"learner": {"kind": "decision_tree", "maxdepth": 3}},
         "unknown config key 'learner.maxdepth'"),
        ({"mixture": {"minor_cov_scale_range": [1.0, 2.0]}},
         "config key 'mixture.minor_cov_scale_range' is not supported"),
        ({"learner": 5}, "config key 'learner' must be a string or an object, got 5"),
        ([{"k": 4}], "a config document must be a JSON object"),
        ({"mixture": {"dim_range": [3]}},
         "config key 'mixture.dim_range' must be [low, high], got [3]"),
        ({"k": "ten"}, 'config key \'k\' must be an integer, got "ten"'),
        ({"seed": True}, "config key 'seed' must be an integer, got true"),
        ({"learner": {"kind": "knn", "k": 2.5}},
         "config key 'learner.k' must be an integer, got 2.5"),
        ({"multipliers": {"min": "1.5", "max": 2.5, "step": 0.5}},
         'config key \'multipliers.min\' must be a number, got "1.5"'),
        ({"mixture": {"size_range": [60.5, 90]}},
         "config key 'mixture.size_range[0]' must be an integer, got 60.5"),
        ({"methods": ["ros", "smote0"]}, "unknown resampling method 'smote0' in 'methods[1]'"),
        ({"presets": {"a1": 1}}, "config key 'presets.a1' must be a string, got 1"),
        ({"count": -1}, "config key 'count' must be >= 1, got -1"),
        ({"k": 1}, "config key 'k' must be >= 2, got 1"),
        ({"k_prime": 1}, "config key 'k_prime' must be >= 2, got 1"),
        ({"workers": 0}, "config key 'workers' must be >= 1, got 0"),
        ({"alpha": 2}, "config key 'alpha' must be in (0, 1), got 2"),
        ({"epsilon": -1}, "config key 'epsilon' must be positive, got -1"),
        ({"approaches": ["a1", "a3"]}, "unknown approach 'a3' in 'approaches[1]'"),
        ({"methods": []}, "config key 'methods' must be non-empty"),
        ({"multipliers": {"min": 0.5, "max": 2.5, "step": 0.5}},
         "config key 'multipliers' must have 1 <= min <= max and step > 0, "
         "got min 0.5, max 2.5, step 0.5"),
        ({"mixture": {"dim_range": [4, 3]}},
         "config key 'mixture' is invalid: dim_range is empty: 4 > 3"),
    ], ids=["top", "mixture", "multipliers", "multipliers-missing", "learner",
            "minor-cov-scale", "learner-type", "document-type", "range-length", "int-type",
            "bool-is-not-int", "learner-field-type", "multiplier-type", "range-item-type",
            "unknown-method", "preset-type", "count-range", "k-range", "k-prime-range",
            "workers-range", "alpha-range", "epsilon-range", "approach", "methods-empty",
            "multiplier-range", "mixture-range"])
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
        ("--workers", "0", "config key 'workers' must be >= 1, got 0"),
        ("--count", "0", "config key 'count' must be >= 1, got 0"),
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

        from resamplerec.pipeline import load_bank, load_grids
        from resamplerec.qualityvars import binarize_targets, quality_row
        from resamplerec.recommender import build_meta_dataset

        cfg_path = tiny_config(tmp_path, use_windowed_pval_for_targets=True, alpha=0.3)
        for command in ("gen", "grid", "meta"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        cfg = load_config(cfg_path)
        bank = load_bank(cfg)
        records = build_meta_dataset(list(zip(bank, load_grids(cfg, bank))), cfg.epsilon)
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
        assert [s.id for s in bank] == ["synth-9-0", "synth-9-1"]


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
        (lambda doc: [1, 2], "recommender document is not a JSON object"),
        (lambda doc: {**doc, "models": None}, "recommender key 'models' must be a JSON object"),
        (lambda doc: {**doc, "features": doc["features"] + ["n_rows"]},
         "recommender key 'features' names no meta-feature: 'n_rows'"),
        (lambda doc: {**doc, "models": {**doc["models"], "ros@1.5": None}},
         "recommender key 'models' entry 'ros@1.5': not a model document"),
        (lambda doc: {**doc, "classifier_spec": {**doc["classifier_spec"], "depht": 3}},
         "recommender key 'classifier_spec': learner spec has unknown field 'depht'"),
        (lambda doc: {**doc, "models": {**doc["models"], "ros@1.5": {
            **doc["models"]["ros@1.5"],
            "spec": {**doc["models"]["ros@1.5"]["spec"], "depht": 3}}}},
         "recommender key 'models' entry 'ros@1.5': learner spec has unknown field 'depht'"),
        (lambda doc: {**doc, "approach": "a3"},
         "recommender key 'approach' must be 'a1' or 'a2', not 'a3'"),
    ], ids=["list-document", "null-models", "unknown-feature", "null-model-entry",
            "unknown-classifier-spec-field", "unknown-model-spec-field", "unknown-approach"])
    def test_recommend_refuses_a_malformed_model_file(self, trained, tmp_path, capsys,
                                                     change, problem):
        cfg_path, model, data = trained
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(change(json.loads(model.read_text()))))
        assert main(["recommend", "--config", str(cfg_path), "--model", str(broken),
                     "--data", str(data)]) == 1
        assert one_error_line(capsys) == f"error E_FAILED: {problem}\n"


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

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import resamplerec.data as data
from resamplerec.data import (Dataset, MixtureConfig, generate_mixture, imbalance_ratio,
                              ingest_csv, round_half_up, stratified_folds, write_csv)

from conftest import make_dataset


def write_raw_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


class TestIngest:
    def test_minority_remapped_to_one(self, tmp_path):
        rows = [[0.1, "neg"]] * 80 + [[0.2, "pos"]] * 20
        f = tmp_path / "d.csv"
        write_raw_csv(f, ["a", "label"], rows)
        s = ingest_csv(f)
        assert s.n_major == 80 and s.n_minor == 20
        assert imbalance_ratio(s) == 4.0

    def test_three_labels_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_raw_csv(f, ["a", "label"], [[1, "x"], [2, "y"], [3, "z"]])
        with pytest.raises(ValueError, match="not binary"):
            ingest_csv(f)

    def test_tie_maps_lexicographically_larger_to_one(self, tmp_path):
        f = tmp_path / "d.csv"
        write_raw_csv(f, ["a", "label"], [[1, "neg"], [2, "pos"], [3, "neg"], [4, "pos"]])
        s = ingest_csv(f)
        # "pos" > "neg", so the two "pos" rows are class 1
        assert s.labels.tolist() == [0, 1, 0, 1]

    def test_non_numeric_feature_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_raw_csv(f, ["a", "label"], [["oops", "x"], [2, "y"], [1, "x"]])
        with pytest.raises(ValueError, match="non-numeric"):
            ingest_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            ingest_csv(tmp_path / "absent.csv")

    def test_custom_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_raw_csv(f, ["cls", "a"], [["n", 1.0], ["n", 2.0], ["p", 3.0]])
        s = ingest_csv(f, label_column="cls")
        assert s.n_minor == 1 and s.dim == 1

    def test_round_trip_is_exact(self, tmp_path):
        s = generate_mixture(MixtureConfig(dim_range=(3, 3), size_range=(40, 40),
                                           minor_fraction_range=(0.2, 0.3), seed=5))
        f = tmp_path / "rt.csv"
        write_csv(s, f)
        back = ingest_csv(f, dataset_id=s.id)
        assert np.array_equal(s.labels, back.labels)
        assert np.max(np.abs(s.features - back.features)) <= 1e-12


    def test_byte_order_mark_ingests_like_plain_file(self, tmp_path):
        """Excel's "CSV UTF-8" export starts with a byte-order mark, which must
        not become part of the first column's name (here the label)."""
        rows = [["neg", 0.5, -1.25], ["neg", 2.0, 3.0], ["pos", 1e-3, 7.5], ["neg", 4.0, 0.0]]
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_raw_csv(plain, ["label", "a", "b"], rows)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        ours, want = ingest_csv(bom, dataset_id="d"), ingest_csv(plain, dataset_id="d")
        assert ours.features.tobytes() == want.features.tobytes()
        assert ours.labels.tobytes() == want.labels.tobytes()

    def test_write_csv_leaves_the_old_file_when_the_move_fails(self, tmp_path, monkeypatch):
        import resamplerec.data as data

        s = make_dataset(8, 4, dim=2)
        path = tmp_path / "d.csv"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(data.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_csv(s, path)
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert path.read_text() == "old"


class TestIngestOracle:
    """ingest_csv equals the per-cell reference in tests/oracles.py."""

    @given(n=st.integers(2, 40), dim=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           label_pos=st.integers(0, 5), tokens=st.sampled_from([("0", "1"), ("pos", "neg"),
                                                                 ("b", "a")]),
           blank_after=st.sets(st.integers(0, 40), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_equals_oracle(self, tmp_path_factory, n, dim, seed, label_pos, tokens,
                                      blank_after):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 8)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(Dataset(id="rt", features=x, labels=labels), path)
        # move the label column (written last) to label_pos, rename the raw
        # labels and add blank rows
        lines = []
        for i, line in enumerate(path.read_text().splitlines()):
            cells = line.split(",")
            label = cells.pop()
            cells.insert(min(label_pos, dim), label if i == 0 else tokens[int(label)])
            lines.append(",".join(cells))
            if i in blank_after:
                lines.append("")
        path.write_text("\n".join(lines) + "\n")
        ours, theirs = ingest_csv(path), oracles.ingest_csv(path)
        assert ours.id == theirs.id
        assert ours.features.tobytes() == theirs.features.tobytes()
        assert ours.labels.tobytes() == theirs.labels.tobytes()
        assert ours.features.shape == (n, dim)

    @pytest.mark.parametrize("text", [
        "a,label,b\n1,x,2\n3,y\n",
        "a,label,b\n1,x,2\n\n3,y,oops\n",
        "a,label,b\n1,x,1_000\n3,y,2\n",
        "a,label\n1,x\n2,y\n3,z\n",
        "a,label\n1,x\n2,x\n",
        "a,label,b\n",
        "",
        "a,b\n1,2\n",
        "label\nx\ny\n",
    ], ids=["short-row", "non-numeric", "underscore-digits", "three-labels", "one-label",
            "header-only", "empty", "no-label-column", "no-features"])
    def test_same_result_or_error_as_oracle(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        outcomes = []
        for ingest in (ingest_csv, oracles.ingest_csv):
            try:
                s = ingest(path)
                outcomes.append((s.features.tobytes(), s.labels.tobytes()))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# pieces of CSV text where the C reader and csv.reader may part ways
_PIECES = ('"', "\r", "\n", "\0", " ", "\t", "_", "\u0661", "e", "+", "-", "nan", "inf",
           "1", "0.5", "2e3", ".", "x", "\xa0", "\x0c")
_NUMBER = st.one_of(st.floats(width=64).map(repr), st.integers(-99, 99).map(str),
                    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"))
_JUNK = st.lists(st.sampled_from(_PIECES), min_size=0, max_size=4).map("".join)
_LABEL = st.sampled_from(["0", "1", "a", "b", " a", "nan", "1.0"])
_TERMINATOR = st.sampled_from(["\n", "\r\n", "\r", "\r\r\n", "\n\r", ""])
_OVERSIZED = "2" * (csv.field_size_limit() + 1)


@st.composite
def _csv_text(draw):
    """A header and up to 8 lines: mostly well-formed rows, some with a junk
    cell, a wrong width, a blank or whitespace-only line, or an oversized
    field."""
    header = draw(st.sampled_from([["f0", "label"], ["label", "f0", "f1"], ["label"],
                                   ["f0", "label", "f1"], ["f0", "f1"], []]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["junk", "width", "blank", "space",
                                                     "oversized"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            cells = [draw(_LABEL) if h == "label" else draw(_NUMBER) for h in header]
            if kind == "junk" and cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(_JUNK)
            elif kind == "width":
                cells = cells[:-1] if cells and draw(st.booleans()) else cells + ["1"]
            elif kind == "oversized" and cells:
                cells[0] = _OVERSIZED
            lines.append(",".join(cells))
    # one line ending for the file, and now and then another one
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + (end if draw(st.integers(0, 8)) else draw(_TERMINATOR))
                   for line in lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _ingest_outcome(path):
    """The dataset's bytes, or the text of the error."""
    try:
        s = ingest_csv(path)
    except ValueError as exc:
        return str(exc)
    return s.features.shape, s.features.tobytes(), s.labels.tobytes()


class TestIngestReaders:
    """`ingest_csv` reads plain files with `np.loadtxt` and every other file
    with the row-by-row `csv.reader`; on any text both give the same result."""

    @given(text=_csv_text())
    @example("label\r0\n0\n")
    @example("f0,label\n1,a\r\r\n2,b\r\n")
    @example("f0,label\n1,a\r2,b\n")
    @example("f0,label\n1,a\n2,b\r")
    @example("f0,label\n1,a\n2,b\n\r\n\r")
    @example("f0,label\n   \n")
    @example("f0,label\n")
    @settings(max_examples=400, deadline=None)
    def test_same_result_or_error_as_the_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("readers") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        ours = _ingest_outcome(path)
        with mock.patch.object(data, "_read_plain_csv", return_value=None):
            assert ours == _ingest_outcome(path)

    def test_plain_file_takes_the_c_reader(self, tmp_path):
        s = make_dataset(30, 10, dim=3)
        path = tmp_path / "d.csv"
        write_csv(s, path)
        x, codes, names = data._read_plain_csv(path.read_bytes().decode(), "label")
        assert x.tobytes() == s.features.tobytes() and sorted(names) == ["0", "1"]


class TestDatasetInvariants:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(id="bad", features=np.zeros((3, 1)), labels=np.array([1, 1, 1]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(id="bad", features=np.array([[np.nan], [1.0]]), labels=np.array([0, 1]))

    @pytest.mark.parametrize("labels", [[0, 1, 2], [-1, 0, 1], [0, 1, 2**40]])
    def test_rejects_non_binary_labels(self, labels):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            Dataset(id="bad", features=np.zeros((3, 1)), labels=np.array(labels))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 0.5, float("nan"), -1.0, 2.0, 1e-300]),
                    min_size=2, max_size=12))
    def test_float_labels_accepted_iff_exactly_binary(self, values):
        labels = np.array(values)
        binary = all(v in (0.0, 1.0) for v in values)
        accepted = binary and 0.0 in values and 1.0 in values
        features = np.zeros((len(values), 1))
        if accepted:
            s = Dataset(id="f", features=features, labels=labels)
            assert s.labels.dtype == np.int64
            assert s.labels.tolist() == [int(v) for v in values]
        else:
            message = "^labels must be 0 or 1$" if not binary else "non-empty"
            with pytest.raises(ValueError, match=message):
                Dataset(id="f", features=features, labels=labels)

    def test_immutability(self, tiny_imbalanced):
        with pytest.raises(ValueError):
            tiny_imbalanced.features[0, 0] = 99.0


class TestImbalanceRatio:
    def test_examples(self):
        assert imbalance_ratio(make_dataset(80, 20)) == 4.0
        assert imbalance_ratio(make_dataset(10, 10)) == 1.0
        assert imbalance_ratio(make_dataset(190, 10)) == 19.0


class TestGenerateMixture:
    def test_paper_default_ranges(self):
        cfg = MixtureConfig(seed=11)
        for i in range(5):
            s = generate_mixture(cfg, i)
            assert 6 <= s.dim <= 40
            assert 200 <= s.n <= 1000
            assert 1.0 <= imbalance_ratio(s) <= 1.0 / 0.05 + 1.0
            assert s.n_major >= s.n_minor

    def test_deterministic(self):
        cfg = MixtureConfig(seed=3)
        a = generate_mixture(cfg, 2)
        b = generate_mixture(cfg, 2)
        assert a.id == b.id == "synth-3-2"
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_minor_count_rounding(self):
        cfg = MixtureConfig(size_range=(200, 200), minor_fraction_range=(0.05, 0.05), seed=1)
        s = generate_mixture(cfg)
        # 200 * 0.05/1.05 = 9.52... rounds to 10
        assert s.n_minor == 10 and s.n_major == 190

    def test_round_half_up(self):
        assert round_half_up(7.5) == 8
        assert round_half_up(7.49) == 7
        assert round_half_up(0.5) == 1

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            MixtureConfig(minor_fraction_range=(0.6, 0.7))
        with pytest.raises(ValueError, match="size too small"):
            generate_mixture(MixtureConfig(size_range=(2, 2),
                                           minor_fraction_range=(0.01, 0.01), seed=1))


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        s = make_dataset(80, 20)
        folds = stratified_folds(s, 20, seed=4)
        for j in range(20):
            mask = folds.test_mask(j)
            assert int((s.labels[mask] == 1).sum()) == 1
            assert int((s.labels[mask] == 0).sum()) == 4

    def test_minor_too_small(self):
        s = make_dataset(80, 10)
        with pytest.raises(ValueError, match="minor class too small"):
            stratified_folds(s, 20, seed=4)

    def test_deterministic(self):
        s = make_dataset(40, 12)
        a = stratified_folds(s, 4, seed=9)
        b = stratified_folds(s, 4, seed=9)
        assert np.array_equal(a.fold_index, b.fold_index)

    @given(st.integers(5, 40), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_stratification(self, n_minor, k, seed):
        s = make_dataset(n_minor * 3 + 1, n_minor, seed=1)
        folds = stratified_folds(s, k, seed=seed)
        # every index in exactly one fold
        assert folds.fold_index.shape == (s.n,)
        counts = np.bincount(folds.fold_index, minlength=k)
        assert counts.sum() == s.n
        for label in (0, 1):
            sizes = np.bincount(folds.fold_index[s.labels == label], minlength=k)
            assert sizes.min() >= 1
            assert sizes.max() - sizes.min() <= 1

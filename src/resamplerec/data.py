"""Datasets: representation, CSV ingestion, synthetic generation, fold assignment.

Label 1 is the minor class for every ingested or generated dataset.
Resampled datasets keep the original label semantics, so oversampling past
balance may leave class 1 larger than class 0; `Dataset` itself only
requires both classes to be non-empty.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import derive_rng


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (x >= 0 in practice)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Dataset:
    """Rows of features with 0/1 labels, both frozen.

    `Dataset(...)` validates its arrays and keeps read-only copies of them:
    ingestion and generation build through it. A fold's training split and a
    resampler's output are derived from a validated dataset and built by
    `Dataset._derived`, which keeps its arrays without checking or copying
    them again.
    """

    id: str
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64 in {0, 1}

    def __post_init__(self):
        x = np.array(self.features, dtype=np.float64)  # owning copy; frozen below
        labels = np.asarray(self.labels)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
            raise ValueError("labels must be a vector matching the feature rows")
        if x.shape[0] < 2 or x.shape[1] < 1:
            raise ValueError("dataset needs at least 2 rows and 1 feature")
        if not np.isfinite(x).all():
            raise ValueError("features contain non-finite values")
        # checked before the cast, which would truncate 0.5 to 0
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        y = labels.astype(np.int64)  # owning copy; frozen below
        if not (y == 0).any() or not (y == 1).any():
            raise ValueError("both classes must be non-empty")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @classmethod
    def _derived(cls, id: str, features: np.ndarray, labels: np.ndarray) -> Dataset:
        """A dataset of rows taken or made from validated datasets, not checked again.

        The caller vouches that `features` is a finite float64 matrix, that
        `labels` is its int64 0/1 vector with both classes present, and that
        no one else holds either array; both are frozen here.
        """
        s = cls.__new__(cls)
        object.__setattr__(s, "id", id)
        object.__setattr__(s, "features", _frozen(features))
        object.__setattr__(s, "labels", _frozen(labels))
        return s

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    # found on first use and kept: every cell of a grid reads them from one training split
    @cached_property
    def major_rows(self) -> np.ndarray:
        """Indices of the label-0 rows, ascending."""
        return _frozen(np.flatnonzero(self.labels == 0))

    @cached_property
    def minor_rows(self) -> np.ndarray:
        """Indices of the label-1 rows, ascending."""
        return _frozen(np.flatnonzero(self.labels == 1))

    @property
    def n_major(self) -> int:
        return self.major_rows.size

    @property
    def n_minor(self) -> int:
        return self.minor_rows.size


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def imbalance_ratio(s: Dataset) -> float:
    """|class 0| / |class 1|; >= 1 whenever label 1 is the minor class."""
    return s.n_major / s.n_minor


@dataclass(frozen=True)
class FoldAssignment:
    fold_index: np.ndarray  # (n,) int64 in [0, k)
    k: int

    def __post_init__(self):
        idx = np.asarray(self.fold_index, dtype=np.int64)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if idx.min() < 0 or idx.max() >= self.k:
            raise ValueError("fold indices out of range")
        object.__setattr__(self, "fold_index", idx)
        self.fold_index.setflags(write=False)

    def test_mask(self, j: int) -> np.ndarray:
        return self.fold_index == j


def stratified_folds(s: Dataset, k: int, seed: int) -> FoldAssignment:
    """Class-stratified k-fold assignment; fold sizes within a class differ by <= 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if s.n_minor < k:
        raise ValueError(f"minor class too small for k folds: dataset {s.id!r} has "
                         f"{s.n_minor} minor rows, k is {k}")
    rng = derive_rng(seed, "stratified-folds", k)
    fold_index = np.empty(s.n, dtype=np.int64)
    for members in (s.major_rows, s.minor_rows):
        perm = rng.permutation(members)
        for j, chunk in enumerate(np.array_split(perm, k)):
            fold_index[chunk] = j
    return FoldAssignment(fold_index=fold_index, k=k)


@dataclass(frozen=True)
class MixtureConfig:
    """Sampling ranges for the two-class Gaussian-mixture generator.

    minor_fraction is the reversed imbalance ratio 1/IR, i.e. |C1|/|C0|.
    Each class is a mixture of up to three Gaussian components whose means
    are drawn uniformly from a box and whose covariances are random SPD
    matrices with eigenvalues drawn from the class's scale range. The minor
    class defaults to a compacter scale range than the major class: rare
    classes as tight modes inside a broad background is the geometry where
    resampling choice genuinely matters.
    """

    dim_range: tuple[int, int] = (6, 40)
    size_range: tuple[int, int] = (200, 1000)
    minor_fraction_range: tuple[float, float] = (0.05, 0.35)
    components_range: tuple[int, int] = (1, 3)
    mean_range: tuple[float, float] = (-1.3, 1.3)
    cov_scale_range: tuple[float, float] = (1.6, 2.0)
    minor_cov_scale_range: tuple[float, float] = (0.2, 0.4)
    seed: int = 0

    def __post_init__(self):
        for name in ("dim_range", "size_range", "minor_fraction_range",
                     "components_range", "mean_range", "cov_scale_range",
                     "minor_cov_scale_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
        flo, fhi = self.minor_fraction_range
        if not (0.0 < flo and fhi <= 0.5):
            raise ValueError("minor fractions must lie in (0, 0.5]")
        clo, chi = self.components_range
        if clo < 1 or chi > 3:
            raise ValueError("components per class must lie in 1..3")
        if self.dim_range[0] < 1 or self.size_range[0] < 2:
            raise ValueError("need dim >= 1 and size >= 2")
        if self.cov_scale_range[0] <= 0 or self.minor_cov_scale_range[0] <= 0:
            raise ValueError("covariance scales must be positive")


def _random_spd(rng: np.random.Generator, d: int, scale_range: tuple[float, float]) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(scale_range[0], scale_range[1], size=d)
    return (q * eigs) @ q.T


def _sample_class(rng: np.random.Generator, n: int, d: int, cfg: MixtureConfig,
                  scale_range: tuple[float, float]) -> np.ndarray:
    n_comp = int(rng.integers(cfg.components_range[0], cfg.components_range[1] + 1))
    weights = rng.dirichlet(np.ones(n_comp))
    counts = rng.multinomial(n, weights)
    blocks = []
    for c in range(n_comp):
        mean = rng.uniform(cfg.mean_range[0], cfg.mean_range[1], size=d)
        cov = _random_spd(rng, d, scale_range)
        chol = np.linalg.cholesky(cov)
        z = rng.standard_normal((counts[c], d))
        blocks.append(mean + z @ chol.T)
    return np.vstack(blocks)


def generate_mixture(config: MixtureConfig, index: int = 0) -> Dataset:
    """Draw one two-class Gaussian-mixture dataset; deterministic given (seed, index)."""
    rng = derive_rng(config.seed, "mixture", index)
    d = int(rng.integers(config.dim_range[0], config.dim_range[1] + 1))
    size = int(rng.integers(config.size_range[0], config.size_range[1] + 1))
    f = rng.uniform(config.minor_fraction_range[0], config.minor_fraction_range[1])
    n_minor = round_half_up(size * f / (1.0 + f))
    n_major = size - n_minor
    if n_minor < 1 or n_major < n_minor:
        raise ValueError("size too small for requested minor fraction")
    x_major = _sample_class(rng, n_major, d, config, config.cov_scale_range)
    x_minor = _sample_class(rng, n_minor, d, config, config.minor_cov_scale_range)
    x = np.vstack([x_major, x_minor])
    y = np.concatenate([np.zeros(n_major, dtype=np.int64), np.ones(n_minor, dtype=np.int64)])
    perm = rng.permutation(size)
    return Dataset(id=f"synth-{config.seed}-{index}", features=x[perm], labels=y[perm])


def ingest_csv(path: str | Path, label_column: str = "label", dataset_id: str | None = None) -> Dataset:
    """`parse_csv` of a file, with its stem as the id unless `dataset_id` is given."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    return parse_csv(path.read_bytes(), path, label_column, dataset_id or path.stem)


def parse_csv(raw: bytes, path: Path, label_column: str, dataset_id: str) -> Dataset:
    """The Dataset of a UTF-8 comma-separated file's bytes, with a header row;
    `path` names the file in errors.

    A leading byte-order mark (Excel's "CSV UTF-8") is skipped, and a byte
    that does not decode is refused by its offset in the file. The less
    frequent label class is remapped to 1; on a tie the lexicographically
    larger raw label becomes 1.

    Two readers give one result. numpy's C reader (`np.loadtxt`) reads the
    data rows of a plain file, with a converter that keeps each raw label
    string. Any other file goes to the row-by-row `csv.reader`, which raises
    every error: a file that has a `"` or NUL anywhere, a line longer than
    `csv.field_size_limit()`, no data row, no label or no feature column, a
    row the C reader refuses, a width other than the header's, or a
    non-finite value. Both parse numbers with Python's correctly rounded
    `PyOS_string_to_double`, so their features agree bit for bit.
    """
    text = raw.decode("utf-8").removeprefix("\ufeff")
    del raw  # freed here when the caller passed the bytes as a temporary
    if not text:
        raise ValueError(f"empty file: {path}")
    x, codes, names = _read_plain_csv(text, label_column) or _read_csv_rows(text, label_column)
    if len(names) != 2:
        raise ValueError(f"not binary: {len(names)} distinct labels")
    counts = np.bincount(codes, minlength=2)
    if counts[0] == counts[1]:
        minor = int(names[1] > names[0])  # lexicographically larger
    else:
        minor = int(counts[1] < counts[0])
    y = (codes == minor).astype(np.int64)
    return Dataset(id=dataset_id, features=x, labels=y)


def _read_plain_csv(text: str, label_column: str
                    ) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """Features, label codes and the labels they index, read by `np.loadtxt`;
    None for a file that `_read_csv_rows` must read (see `parse_csv`)."""
    # the header line as csv.reader reads it: up to the first "\r", "\n" or "\r\n"
    end = min((i for i in map(text.find, "\r\n") if i >= 0), default=len(text) - 1)
    cut = end + 1 + text.startswith("\r\n", end)
    lines = text.split("\n")  # after a header ending in "\n", lines[0] is "", as if blank
    lines[0] = lines[0][cut:]
    n_rows = len(lines) - lines.count("") - lines.count("\r")
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or n_rows == 0 or cut > limit
            or len(text) - cut > limit and max(map(len, lines)) > limit):
        return None
    header = next(csv.reader([text[:cut]]), [])
    if label_column not in header or len(header) < 2:
        return None
    label_pos = header.index(label_column)
    codes: dict[str, int] = {}
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2,
                           converters={label_pos: lambda v: codes.setdefault(v, len(codes))})
    except ValueError:
        return None
    if table.shape != (n_rows, len(header)) or not np.isfinite(table).all():
        return None
    return (np.delete(table, label_pos, axis=1), table[:, label_pos].astype(np.int64),
            list(codes))


def _read_csv_rows(text: str, label_column: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Features, label codes and the labels they index, read row by row by
    `csv.reader`, with a ValueError for every file `parse_csv` refuses."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header")
        label_pos = header.index(label_column)
        if len(header) < 2:
            raise ValueError("no feature columns")
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} cells, "
                                 f"got {len(row)}")
            raw_labels.append(row.pop(label_pos))
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric feature cell") from None
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    codes: dict[str, int] = {}
    y = np.array([codes.setdefault(v, len(codes)) for v in raw_labels], dtype=np.int64)
    return np.asarray(rows, dtype=np.float64), y, list(codes)


def csv_text(header: list[str], rows) -> str:
    """The CSV file text of a header and rows, as `csv.writer` writes it.

    Every CSV file the program writes is made here, and `read_columns` reads
    those it reads back.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_columns(path: Path, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The named columns of a CSV file written by `csv_text`.

    An empty file, a missing column, a row with missing or extra fields, or
    a line `csv.reader` refuses (such as an oversized field) raises a
    ValueError that names the file.
    """
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header, *rows = list(reader) or [[]]
        except csv.Error as exc:
            raise ValueError(f"{path.name} line {reader.line_num}: {exc}") from None
    if not header:
        raise ValueError(f"{path.name} is empty")
    for name in names:
        if name not in header:
            raise ValueError(f"{path.name} has no column {name!r}")
    index = [header.index(name) for name in names]
    if set(map(len, rows)) - {len(header)}:
        rows = [row for row in rows if row]  # a blank line is no row
        for number, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise ValueError(f"{path.name} row {number} has the wrong field count")
    columns = list(zip(*rows)) or [()] * len(header)
    return [columns[i] for i in index]


def write_files_atomically(files: dict[Path, str]) -> None:
    """Write every text to a temp file beside its path, then move each into place.

    A reader sees each file either whole or as it was. The files are moved in
    the given order, so put the one that vouches for the others last. Temp
    files that were not moved are removed, also when a write or move fails.
    """
    temps = {path: path.with_name(f".{path.name}.tmp") for path in files}
    try:
        for path, text in files.items():
            temps[path].write_text(text, encoding="utf-8", newline="")
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def write_csv(s: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write a Dataset atomically, with repr-formatted floats so re-ingestion is exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ([repr(float(v)) for v in row] + [int(label)]
            for row, label in zip(s.features, s.labels))
    write_files_atomically({path: csv_text([f"f{i}" for i in range(s.dim)] + [label_column],
                                           rows)})

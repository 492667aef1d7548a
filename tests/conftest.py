import numpy as np
import pytest

from resamplerec.data import Dataset
from resamplerec.evaluation import QualityGrid
from resamplerec.rng import derive_rng


@pytest.fixture
def tiny_imbalanced() -> Dataset:
    """100 points, 80 major / 20 minor, two informative features."""
    rng = np.random.default_rng(123)
    x0 = rng.normal(0.0, 1.0, size=(80, 2))
    x1 = rng.normal(2.0, 1.0, size=(20, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * 80 + [1] * 20)
    return Dataset(id="tiny", features=x, labels=y)


def make_dataset(n_major: int, n_minor: int, dim: int = 2, seed: int = 0,
                 separation: float = 2.0, dataset_id: str = "made") -> Dataset:
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 1.0, size=(n_major, dim))
    x1 = rng.normal(separation, 1.0, size=(n_minor, dim))
    return Dataset(id=dataset_id,
                   features=np.vstack([x0, x1]),
                   labels=np.array([0] * n_major + [1] * n_minor))


def random_cell(grid: QualityGrid, seed: int) -> tuple[str, float]:
    """The random-cell baseline: a uniform draw over the evaluated cells,
    no-resampling included."""
    keys = [k for k in grid.cell_keys() if k in grid.cells]
    rng = derive_rng(seed, grid.dataset_id, "random-cell")
    return keys[int(rng.integers(0, len(keys)))]

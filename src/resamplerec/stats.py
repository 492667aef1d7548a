"""Shared distribution helpers.

`scipy.special` is imported inside `student_t_sf`, not at module level: it
costs more than half of a fresh `import resamplerec.cli` (it pulls in
`numpy.f2py`). Only the commands that build the meta-dataset's quality
variables reach the Student-t tail: `meta`, `train` and `assess`. `gen`,
`grid`, `recommend` and `report` start without loading scipy.
"""

from __future__ import annotations

import math


def normal_two_sided_pvalue(z: float) -> float:
    """P(|N(0,1)| >= |z|)."""
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def student_t_sf(t, df: int):
    """P(T_df > t), the one-sided upper tail of Student's t, elementwise over `t`."""
    if df < 1:
        raise ValueError("df must be >= 1")
    from scipy import special

    return 1.0 - special.stdtr(df, t)

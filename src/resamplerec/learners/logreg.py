"""L1-penalized logistic regression via proximal gradient descent.

Objective: mean log-loss + l1_strength * ||coef||_1 (intercept unpenalized).
Backtracking line search keeps the objective non-increasing at every step.
The fit carries the logit `x @ coef + intercept` and the smooth loss of the
accepted candidate into the next iteration, so each line-search trial costs
one forward product and each iteration one backward product. While every
coefficient is zero (at l1_strength >= lambda_max the whole fit stays there)
the logit is the scalar intercept, so the loss and the sigmoid evaluate one
transcendental each instead of one per row. The results are bit-identical to
the per-row form: every row of `x @ 0 + b` equals `b` up to the sign of a
zero, and logaddexp(0, +-0), y * (+-0) subtracted from it, and sigmoid(+-0)
do not depend on that sign.
"""

from __future__ import annotations

import numpy as np

from .instrument import count_fit


def _sigmoid(z):
    # -|z| is exactly -z for z >= 0 and z for z < 0, so each branch sees the
    # same exp argument as the stable two-sided form.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loss_from_logit(z, y: np.ndarray) -> float:
    """Mean logistic loss at logits z, computed via logaddexp for stability.

    z may be a scalar standing for the same logit in every row.
    """
    t = np.logaddexp(0.0, z) - y * z
    return float(t.sum() / y.shape[0])


def _grad_from_logit(x: np.ndarray, y: np.ndarray, z):
    r = _sigmoid(z) - y
    return x.T @ r / x.shape[0], float(r.sum() / r.shape[0])


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_logreg_l1(x: np.ndarray, y: np.ndarray, *, l1_strength: float = 1.0,
                  max_iter: int = 500, tol: float = 1e-6,
                  history: list | None = None) -> tuple[np.ndarray, float]:
    """Return (coef, intercept) minimizing the penalized mean log-loss.

    When a list is passed as `history`, the objective value after every
    iteration is appended to it.
    """
    if l1_strength < 0:
        raise ValueError("l1_strength must be >= 0")
    count_fit()
    y = y.astype(np.float64)
    coef = np.zeros(x.shape[1])
    intercept = 0.0
    step = 1.0
    z = intercept
    f_smooth = _loss_from_logit(z, y)
    f_prev = f_smooth + l1_strength * float(np.abs(coef).sum())
    if history is not None:
        history.append(f_prev)
    # rows near the float maximum overflow the products; the line search
    # accepts no candidate whose loss is NaN, and errstate changes no value
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            g_coef, g_int = _grad_from_logit(x, y, z)
            while True:
                new_coef = _soft_threshold(coef - step * g_coef, step * l1_strength)
                new_int = intercept - step * g_int
                dc = new_coef - coef
                di = new_int - intercept
                quad = f_smooth + float(g_coef @ dc) + g_int * di \
                    + (float(dc @ dc) + di * di) / (2.0 * step)
                new_z = x @ new_coef + new_int if new_coef.any() else new_int
                new_smooth = _loss_from_logit(new_z, y)
                if new_smooth <= quad + 1e-15:
                    break
                step *= 0.5
                if step < 1e-12:
                    return coef, intercept
            coef, intercept, z, f_smooth = new_coef, new_int, new_z, new_smooth
            f_new = f_smooth + l1_strength * float(np.abs(coef).sum())
            if history is not None:
                history.append(f_new)
            if f_prev - f_new < tol:
                break
            f_prev = f_new
            step *= 1.5  # allow the step to recover between iterations
    return coef, intercept

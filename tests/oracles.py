"""Independent reference implementations used only to check the library.

These deliberately take different routes than the production code: the
PR-AUC oracle walks the explicit precision/recall step curve over all
thresholds, the t-tail oracle integrates the density numerically, and the
SMOTE oracle re-derives neighbor sets with plain sorted() instead of numpy.
The tree, L1-logreg, SMOTE-neighbor, kNN-score, meta-feature and CSV-ingest
references are earlier versions of the production code, kept verbatim so
that faster rewrites are checked bit for bit; so are the recommender's
decision rule and the meta-target rule, written once per case, so that the
shorter forms are checked answer for answer.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from resamplerec import metafeatures
from resamplerec.data import Dataset
from resamplerec.learners import predict_score
from resamplerec.learners.tree import TreeNode, _norm_weights
from resamplerec.metafeatures import (_MOMENT_NAMES, MIN_TEST_SAMPLE, MetaFeatures,
                                      _abs_cov_eigs, slog)
from resamplerec.qualityvars import MetaTargets, QualityVariables, format_multiplier
from resamplerec.recommender import Recommendation, RecommenderModel, snap_to_grid
from resamplerec.resampling import ResamplingSpec, feasible
from resamplerec.stats import normal_two_sided_pvalue

_GAIN_TOL = 1e-12


def pr_auc_step_curve(labels, scores) -> float:
    """Area under the precision-recall step curve over all score thresholds."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    assert n_pos > 0
    ap = 0.0
    prev_recall = 0.0
    for th in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= th
        tp = int(labels[predicted].sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def student_t_pdf(x: float, df: int) -> float:
    log_c = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) \
        - 0.5 * math.log(df * math.pi)
    return math.exp(log_c - (df + 1) / 2.0 * math.log1p(x * x / df))


def student_t_sf_quadrature(t: float, df: int) -> float:
    """Upper-tail probability by adaptive quadrature of the density."""
    if t >= 0:
        value, _ = quad(student_t_pdf, t, np.inf, args=(df,), limit=200)
        return value
    value, _ = quad(student_t_pdf, -np.inf, t, args=(df,), limit=200)
    return 1.0 - value


def knn_neighbor_sets(points) -> list[list[int]]:
    """For each point: all other indices sorted by (distance, index)."""
    points = np.asarray(points, dtype=float)
    out = []
    for i in range(len(points)):
        others = [(float(np.linalg.norm(points[j] - points[i])), j)
                  for j in range(len(points)) if j != i]
        out.append([j for _, j in sorted(others)])
    return out


def point_on_some_smote_segment(x, minors, k: int, atol: float = 1e-9) -> bool:
    """Brute force over all (base, neighbor) minor pairs."""
    minors = np.asarray(minors, dtype=float)
    neighbor_sets = knn_neighbor_sets(minors)
    for i in range(len(minors)):
        a = minors[i]
        for j in neighbor_sets[i][:k]:
            b = minors[j]
            d = b - a
            denom = float(d @ d)
            if denom == 0.0:
                if np.allclose(x, a, atol=atol):
                    return True
                continue
            t = float((x - a) @ d) / denom
            if -1e-12 <= t <= 1.0 + 1e-12 and np.allclose(a + t * d, x, atol=atol):
                return True
    return False


def ecdf_share_below(values, x: float) -> float:
    values = np.asarray(values, dtype=float)
    return float((values < x).sum()) / values.size


def classification_tree(x, y, *, max_depth, min_leaf, sample_weight=None) -> TreeNode:
    """Gini CART by per-node, per-feature sorting."""
    w = _norm_weights(sample_weight, x.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-weight nodes give NaN
        return _grow(x, y.astype(np.float64), w, 0, max_depth, min_leaf,
                     _best_split_gini, _minor_fraction)


def regression_tree(x, y, *, max_depth, min_leaf, sample_weight=None) -> TreeNode:
    """Squared-error CART by per-node, per-feature sorting."""
    w = _norm_weights(sample_weight, x.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return _grow(x, y.astype(np.float64), w, 0, max_depth, min_leaf,
                     _best_split_sse, _weighted_mean)


def _best_split_gini(x, y, w, min_leaf):
    """Scan all features for the split with the largest weighted Gini decrease."""
    n = y.shape[0]
    w_total = w.sum()
    w_pos = float(w[y == 1].sum())
    p = w_pos / w_total
    parent_imp = 2.0 * p * (1.0 - p)  # binary Gini: 1 - p^2 - (1-p)^2
    best_gain, best_feature, best_threshold = _GAIN_TOL, -1, 0.0
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ws = w[order]
        wy = ws * y[order]
        cw = np.cumsum(ws)
        cwy = np.cumsum(wy)
        # candidate split after position i requires a value change and min_leaf rows
        pos = np.arange(n - 1)
        valid = (xs[:-1] < xs[1:]) & (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
        if not valid.any():
            continue
        idx = pos[valid]
        wl = cw[idx]
        wr = w_total - wl
        pl = cwy[idx] / wl
        pr = (w_pos - cwy[idx]) / wr
        child = (wl * 2.0 * pl * (1.0 - pl) + wr * 2.0 * pr * (1.0 - pr)) / w_total
        gains = parent_imp - child
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feature = f
            best_threshold = float((xs[idx[j]] + xs[idx[j] + 1]) / 2.0)
    if best_feature < 0:
        return None
    return best_feature, best_threshold


def _best_split_sse(x, y, w, min_leaf):
    """Split with the largest weighted squared-error decrease."""
    n = y.shape[0]
    w_total = w.sum()
    sum_wy = float((w * y).sum())
    sum_wy2 = float((w * y * y).sum())
    parent_sse = sum_wy2 - sum_wy * sum_wy / w_total
    best_gain, best_feature, best_threshold = _GAIN_TOL, -1, 0.0
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ws = w[order]
        ys = y[order]
        cw = np.cumsum(ws)
        cwy = np.cumsum(ws * ys)
        cwy2 = np.cumsum(ws * ys * ys)
        pos = np.arange(n - 1)
        valid = (xs[:-1] < xs[1:]) & (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
        if not valid.any():
            continue
        idx = pos[valid]
        wl = cw[idx]
        wr = w_total - wl
        sse_l = cwy2[idx] - cwy[idx] ** 2 / wl
        sse_r = (sum_wy2 - cwy2[idx]) - (sum_wy - cwy[idx]) ** 2 / wr
        gains = parent_sse - (sse_l + sse_r)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feature = f
            best_threshold = float((xs[idx[j]] + xs[idx[j] + 1]) / 2.0)
    if best_feature < 0:
        return None
    return best_feature, best_threshold


def _grow(x, y, w, depth, max_depth, min_leaf, splitter, leaf_value):
    node = TreeNode(value=leaf_value(y, w), n_samples=y.shape[0])
    if max_depth is not None and depth >= max_depth:
        return node
    if y.shape[0] < 2 * min_leaf:
        return node
    found = splitter(x, y, w, min_leaf)
    if found is None:
        return node
    f, t = found
    mask = x[:, f] <= t
    node.feature, node.threshold = f, t
    node.left = _grow(x[mask], y[mask], w[mask], depth + 1, max_depth, min_leaf, splitter, leaf_value)
    node.right = _grow(x[~mask], y[~mask], w[~mask], depth + 1, max_depth, min_leaf, splitter, leaf_value)
    return node


def _minor_fraction(y, w):
    return float(w[y == 1].sum() / w.sum())


def _weighted_mean(y, w):
    return float((w * y).sum() / w.sum())


# --- SMOTE neighbors as computed inline in smote() before the order was shared


def smote_neighbors(minors, k: int) -> np.ndarray:
    diff = minors[:, None, :] - minors[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    # stable sort keeps lower indices first among equal distances
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return neighbors


# --- kNN scores from a (q, n, d) difference array and a stable sort of every row


def knn_scores(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Euclidean neighbors; distance ties broken by lower training index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, train_x.shape[0])
    d2 = ((query[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return train_y[neighbors].mean(axis=1)


# --- L1 logistic regression recomputing the logit in every loss and gradient


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(x: np.ndarray, y: np.ndarray, coef: np.ndarray, intercept: float) -> float:
    """Mean logistic loss, computed via logaddexp for stability."""
    z = x @ coef + intercept
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def log_loss_grad(x, y, coef, intercept):
    r = _sigmoid(x @ coef + intercept) - y
    return x.T @ r / x.shape[0], float(r.mean())


def objective(x, y, coef, intercept, l1_strength) -> float:
    return log_loss(x, y, coef, intercept) + l1_strength * float(np.abs(coef).sum())


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
    y = y.astype(np.float64)
    coef = np.zeros(x.shape[1])
    intercept = 0.0
    step = 1.0
    f_prev = objective(x, y, coef, intercept, l1_strength)
    if history is not None:
        history.append(f_prev)
    for _ in range(max_iter):
        g_coef, g_int = log_loss_grad(x, y, coef, intercept)
        f_smooth = log_loss(x, y, coef, intercept)
        while True:
            new_coef = _soft_threshold(coef - step * g_coef, step * l1_strength)
            new_int = intercept - step * g_int
            dc = new_coef - coef
            di = new_int - intercept
            quad = f_smooth + float(g_coef @ dc) + g_int * di \
                + (float(dc @ dc) + di * di) / (2.0 * step)
            if log_loss(x, y, new_coef, new_int) <= quad + 1e-15:
                break
            step *= 0.5
            if step < 1e-12:
                return coef, intercept
        coef, intercept = new_coef, new_int
        f_new = objective(x, y, coef, intercept, l1_strength)
        if history is not None:
            history.append(f_new)
        if f_prev - f_new < tol:
            break
        f_prev = f_new
        step *= 1.5  # allow the step to recover between iterations
    return coef, intercept


# --- meta-features computing the central moments of each column once per statistic


def _central_moments(sample: np.ndarray) -> tuple[float, float, float]:
    mean = sample.mean()
    dev = sample - mean
    return float((dev ** 2).mean()), float((dev ** 3).mean()), float((dev ** 4).mean())


def skewness(sample: np.ndarray) -> float:
    """Adjusted Fisher-Pearson skewness; 0.0 for n < 3 or zero variance."""
    n = sample.shape[0]
    if n < 3:
        return 0.0
    m2, m3, _ = _central_moments(sample)
    if m2 <= 0.0:
        return 0.0
    g1 = m3 / m2 ** 1.5
    return math.sqrt(n * (n - 1)) / (n - 2) * g1


def kurtosis(sample: np.ndarray) -> float:
    """Excess kurtosis m4/m2^2 - 3; 0.0 for zero variance."""
    m2, _, m4 = _central_moments(sample)
    if m2 <= 0.0:
        return 0.0
    return m4 / m2 ** 2 - 3.0


def skew_test_zstat(sample: np.ndarray) -> float:
    """D'Agostino's normality Z for sample skewness."""
    n = sample.shape[0]
    if n < MIN_TEST_SAMPLE:
        raise ValueError(f"skewness test needs n >= {MIN_TEST_SAMPLE}")
    m2, m3, _ = _central_moments(sample)
    if m2 <= 0.0:
        raise ValueError("zero-variance sample")
    g1 = m3 / m2 ** 1.5
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = 3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0) \
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return delta * math.asinh(y / alpha)


def kurt_test_zstat(sample: np.ndarray) -> float:
    """Anscombe-Glynn normality Z for sample kurtosis."""
    n = sample.shape[0]
    if n < MIN_TEST_SAMPLE:
        raise ValueError(f"kurtosis test needs n >= {MIN_TEST_SAMPLE}")
    m2, _, m4 = _central_moments(sample)
    if m2 <= 0.0:
        raise ValueError("zero-variance sample")
    b2 = m4 / m2 ** 2
    mean_b2 = 3.0 * (n - 1.0) / (n + 1.0)
    var_b2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    x = (b2 - mean_b2) / math.sqrt(var_b2)
    sqrt_beta1 = 6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0)) \
        * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1 ** 2))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + x * math.sqrt(2.0 / (a - 4.0))
    if denom == 0.0:
        raise ValueError("degenerate kurtosis statistic")
    term2 = math.copysign(abs((1.0 - 2.0 / a) / denom) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def skew_test_pvalue(sample: np.ndarray) -> float:
    """Two-sided p-value of the skewness normality test; 1.0 on zero variance."""
    sample = np.asarray(sample, dtype=np.float64)
    try:
        z = skew_test_zstat(sample)
    except ValueError as exc:
        if "zero-variance" in str(exc):
            return 1.0
        raise
    return normal_two_sided_pvalue(z)


def kurt_test_pvalue(sample: np.ndarray) -> float:
    """Two-sided p-value of the kurtosis normality test; 1.0 on zero variance."""
    sample = np.asarray(sample, dtype=np.float64)
    try:
        z = kurt_test_zstat(sample)
    except ValueError as exc:
        if "zero-variance" in str(exc) or "degenerate" in str(exc):
            return 1.0
        raise
    return normal_two_sided_pvalue(z)


def compute_meta_features(s: Dataset) -> MetaFeatures:
    """Full 50-value registry vector; requires >= 2 points per class."""
    by_class = {c: s.features[s.labels == c] for c in (0, 1)}
    for c, x in by_class.items():
        if x.shape[0] < 2:
            raise ValueError(f"class {c} has fewer than 2 elements")
    center_dist = float(np.linalg.norm(by_class[0].mean(axis=0) - by_class[1].mean(axis=0)))
    base = [
        float(s.n),
        float(s.dim),
        s.n / s.dim,
        s.n_minor / s.n_major,
        center_dist,
    ]
    for stat in _MOMENT_NAMES:
        for c in (0, 1):
            x = by_class[c]
            n_c = x.shape[0]
            if stat == "abs_cov_eig":
                lo, hi = _abs_cov_eigs(x)
            elif stat == "skewness":
                vals = [skewness(x[:, f]) for f in range(x.shape[1])]
                lo, hi = min(vals), max(vals)
            elif stat == "skew_pval":
                if n_c < MIN_TEST_SAMPLE:
                    lo = hi = 1.0
                else:
                    vals = [skew_test_pvalue(x[:, f]) for f in range(x.shape[1])]
                    lo, hi = min(vals), max(vals)
            elif stat == "kurtosis":
                vals = [kurtosis(x[:, f]) for f in range(x.shape[1])]
                lo, hi = min(vals), max(vals)
            else:
                if n_c < MIN_TEST_SAMPLE:
                    lo = hi = 1.0
                else:
                    vals = [kurt_test_pvalue(x[:, f]) for f in range(x.shape[1])]
                    lo, hi = min(vals), max(vals)
            base.extend([lo, hi])
    values = base + [slog(v) for v in base]
    return MetaFeatures(values=np.array(values))


# --- CSV ingestion indexing every cell of a row


def ingest_csv(path: str | Path, label_column: str = "label", dataset_id: str | None = None) -> Dataset:
    """Read a UTF-8 comma-separated file with a header row into a Dataset.

    The less frequent label class is remapped to 1; on a tie the
    lexicographically larger raw label becomes 1.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header")
        label_pos = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        if not feature_names:
            raise ValueError("no feature columns")
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
            raw_labels.append(row[label_pos])
            try:
                rows.append([float(row[i]) for i in range(len(header)) if i != label_pos])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric feature cell") from None
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise ValueError(f"not binary: {len(distinct)} distinct labels")
    counts = {v: raw_labels.count(v) for v in distinct}
    if counts[distinct[0]] == counts[distinct[1]]:
        minor_raw = distinct[1]  # lexicographically larger
    else:
        minor_raw = min(distinct, key=lambda v: counts[v])
    y = np.fromiter((1 if v == minor_raw else 0 for v in raw_labels), dtype=np.int64)
    x = np.asarray(rows, dtype=np.float64)
    return Dataset(id=dataset_id or path.stem, features=x, labels=y)


# --- the recommender's decision rule and the target rule, one branch per
# approach and per p-value kind (the library runs one ranking loop for both
# approaches and picks the p-value once); `metafeatures.` is the library's
# function, since this module has its own `compute_meta_features`


def _spec_feasible(method: str, m: float, s: Dataset) -> bool:
    return feasible(ResamplingSpec(method, m), s.n_major, s.n_minor) is None


def recommend(model: RecommenderModel, s: Dataset) -> Recommendation:
    """Meta-features in, (method, multiplier) out; never fits a base learner.

    Only the meta-features the model reads are computed, so a dataset is
    refused only when one of those is undefined.

    Candidates predicted to beat the baseline are ranked by probability
    (ties: method order, then smaller multiplier); infeasible winners fall
    through to the next candidate and finally to no-resampling.
    """
    x = metafeatures.compute_meta_features(s, model.feature_names).values[None, :]
    method_order = {r: i for i, r in enumerate(model.methods)}
    if model.approach == "a1":
        probs = {key: predict_score(mdl, x) for key, mdl in model.a1_models.items()}
        candidates = [(key, p) for key, p in probs.items() if p >= 0.5]
        candidates.sort(key=lambda item: (-item[1], method_order[item[0][0]], item[0][1]))
        details = {"approach": "a1",
                   "p_hat": {f"{k[0]}@{format_multiplier(k[1])}": p
                             for k, p in sorted(probs.items())}}
        for (method, m), _ in candidates:
            if _spec_feasible(method, m, s):
                return Recommendation(ResamplingSpec(method, m), "a1", details)
        return Recommendation(ResamplingSpec("none"), "a1", details)

    probs_r = {r: predict_score(mdl, x) for r, mdl in model.a2_classifiers.items()}
    z_hat = {r: predict_score(model.a2_regressors[r], x) for r in model.a2_classifiers}
    details = {"approach": "a2",
               "p_hat": {r: p for r, p in sorted(probs_r.items())},
               "z_hat": {r: z for r, z in sorted(z_hat.items())}}
    candidates = [(r, p) for r, p in probs_r.items() if p >= 0.5]
    candidates.sort(key=lambda item: (-item[1], method_order[item[0]]))
    for r, _ in candidates:
        m = snap_to_grid(z_hat[r], model.multipliers)
        if _spec_feasible(r, m, s):
            return Recommendation(ResamplingSpec(r, m), "a2", details)
    return Recommendation(ResamplingSpec("none"), "a2", details)


def binarize_targets(qv: QualityVariables, alpha: float,
                     use_windowed_pval_for_targets: bool = False) -> MetaTargets:
    """Per-cell and per-method indicators of beating the baseline at level alpha.

    By default the indicators use the plain per-cell p-value, matching the
    literal target formulas. The windowed switch bases every target on the
    eps-window maximum instead (and the best multiplier on its argmin),
    which suppresses single-cell false positives from testing many cells.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    y_rm: dict[tuple[str, float], int] = {}
    y_r: dict[str, int] = {}
    z_r: dict[str, float] = {}
    for method in qv.methods:
        present = qv.method_cells(method)
        if not present:
            continue
        if use_windowed_pval_for_targets:
            for m, cv in present:
                y_rm[(method, m)] = int(cv.q_pvalw < alpha)
            y_r[method] = int(min(cv.q_pvalw for _, cv in present) < alpha)
            z_r[method] = qv.per_method[method].m_star
        else:
            for m, cv in present:
                y_rm[(method, m)] = int(cv.q_pval < alpha)
            y_r[method] = int(min(cv.q_pval for _, cv in present) < alpha)
            z_r[method] = min(present, key=lambda item: (item[1].q_pval, item[0]))[0]
    return MetaTargets(alpha=alpha, y_rm=y_rm, y_r=y_r, z_r=z_r)

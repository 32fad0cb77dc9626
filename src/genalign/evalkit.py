"""Retrieval and probing metrics with their statistical machinery.

``retrieve`` ranks a whole block of queries in one call: cosine similarity
descending, ties (identical candidates always tie) broken by ascending
candidate id.  Every retrieval metric reads one ranked hit matrix, where
``hits[q, r]`` is true when query q's rank-r candidate is relevant, and
returns a per-query vector (reciprocal ranks, top-k hits, AP@k, F1 at the
relevant count); its mean is the reported value, and ``bootstrap``
resamples the query rows of such a vector, or of any per-row metric such
as a probe's (truth, prediction) pairs, to give a ``StatReport``: one
``(n_boot, n)`` row-index matrix, drawn in chunks of at most
``MAX_RESAMPLE_INDICES`` indices, each chunk scored in one call.  The
Wilcoxon signed-rank test enumerates all sign assignments exactly for small
samples (mid-ranks for tied magnitudes) and falls back to a
continuity-corrected normal approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

EXACT_WILCOXON_MAX_N = 12
# row indices per bootstrap chunk at most (8 MB of int64)
MAX_RESAMPLE_INDICES = 2**20


class EvalError(ValueError):
    pass


def retrieve(
    queries: np.ndarray, candidates: np.ndarray, candidate_ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Rank every candidate for each query row by cosine similarity, ties
    broken by ascending candidate id.

    Returns ``(order, scores)``, each ``(n_queries, n_candidates)``:
    ``order[q, r]`` is the row of query q's rank-r candidate and
    ``scores[q, r]`` its similarity.  Candidate rows must be unit-norm.
    Identical candidate rows get the score of the first of them, so they
    tie exactly; a matrix-vector product can round them apart.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    if len(candidate_ids) != candidates.shape[0]:
        raise EvalError("candidate ids and matrix row count differ")
    if len(set(candidate_ids)) != len(candidate_ids):
        raise EvalError("duplicate candidate ids")
    if candidates.shape[0] == 0:
        raise EvalError("empty candidate set")
    if np.abs(np.linalg.norm(candidates, axis=1) - 1.0).max() > 1e-4:
        raise EvalError("candidate rows must be unit-norm")
    # position of each id in ascending id order, the tie-break key
    id_rank = np.argsort(sorted(range(len(candidate_ids)), key=candidate_ids.__getitem__))
    _, first, group = np.unique(candidates, axis=0, return_index=True, return_inverse=True)
    scores = np.stack([candidates @ q for q in np.asarray(queries, dtype=np.float64)])
    scores = scores[:, first[group.ravel()]]
    order = np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores))
    return order, np.take_along_axis(scores, order, axis=1)


def _relevant_counts(hits: np.ndarray) -> np.ndarray:
    counts = hits.sum(axis=1)
    if (counts == 0).any():
        raise EvalError("query without a relevant candidate")
    return counts


def reciprocal_ranks(hits: np.ndarray) -> np.ndarray:
    """1 / rank of each query's first relevant candidate; the mean is the
    MRR.  ``hits[q, r]`` is true when query q's rank-r candidate is
    relevant."""
    _relevant_counts(hits)
    return 1.0 / (hits.argmax(axis=1) + 1)


def hits_at_k(hits: np.ndarray, k: int) -> np.ndarray:
    """1.0 where a query has a relevant candidate in its top k, else 0.0;
    the mean is the top-k accuracy."""
    return hits[:, :k].any(axis=1).astype(np.float64)


def average_precision_at_k(hits: np.ndarray, k: int) -> np.ndarray:
    """AP@k of each query, normalized by min(|relevant|, k); the mean is
    the mAP@k."""
    n_relevant = _relevant_counts(hits)
    top = hits[:, :k]
    precision = np.cumsum(top, axis=1) / np.arange(1, top.shape[1] + 1)
    return np.where(top, precision, 0.0).sum(axis=1) / np.minimum(n_relevant, k)


def f1_score(tp, n_predicted, n_positive) -> np.ndarray:
    """F1 of ``tp`` true hits among n_predicted predictions of n_positive
    positives, elementwise; 0 where tp is 0."""
    tp = np.asarray(tp, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / n_predicted
        recall = tp / n_positive
        f1 = 2 * precision * recall / (precision + recall)
    return np.where(tp == 0, 0.0, f1)


def f1_at_n_relevant(hits: np.ndarray) -> np.ndarray:
    """F1 of each query's top-N retrieved candidates, N = its relevant
    count (per-gene F1 at N_g).  At this cutoff precision equals recall,
    so F1 equals the hit fraction."""
    n = _relevant_counts(hits)
    tp = np.cumsum(hits, axis=1)[np.arange(len(hits)), n - 1]
    return f1_score(tp, n, n)


def _as_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms == 0).any():
        raise EvalError("zero-norm embedding row")
    return x / norms


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float | np.ndarray:
    """Mean recall over the classes present in each row of ``y_true`` (last
    axis), averaged as ``np.mean`` averages them: a float for 1-D labels,
    k values for ``(k, n)`` labels."""
    t, p = np.atleast_2d(y_true, y_pred)
    in_class = t[..., None] == np.unique(t)
    n_class = in_class.sum(axis=1)
    recall = (in_class & (p == t)[..., None]).sum(axis=1) / np.maximum(n_class, 1)
    n_present = (n_class > 0).sum(axis=1)
    bacc = np.empty(len(t))
    for m in np.unique(n_present):  # the rows with m classes, as one (rows, m) mean
        rows = n_present == m
        bacc[rows] = recall[rows][n_class[rows] > 0].reshape(-1, m).mean(axis=1)
    return float(bacc[0]) if np.ndim(y_true) == 1 else bacc


def knn_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    k: int = 5,
) -> float:
    """k-NN by cosine similarity; vote ties go to the class of the nearest
    member among the tied classes.  Returns balanced accuracy."""
    train_y = np.asarray(train_y)
    test_y = np.asarray(test_y)
    sims = _as_unit(test_x) @ _as_unit(train_x).T
    nearest = train_y[np.argsort(-sims, axis=1, kind="stable")[:, :k]]
    votes = (nearest[:, :, None] == nearest[:, None, :]).sum(axis=2)
    # the first rank holding a most-voted label is that label's nearest member
    return balanced_accuracy(test_y, nearest[np.arange(len(nearest)), votes.argmax(axis=1)])


@dataclass
class LogregResult:
    balanced_accuracy: float
    converged: bool
    grad_norm: float
    predictions: np.ndarray


def logreg_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    l2_strength: float = 1.0,
    max_iter: int = 1000,
) -> LogregResult:
    """Multinomial logistic regression probe (quasi-Newton full batch,
    zero-initialized, L2 penalty on weights only)."""
    train_x = np.asarray(train_x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    classes = np.unique(train_y)
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[c] for c in train_y])
    n, d = train_x.shape
    c = len(classes)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0

    def objective(flat):
        w = flat[: d * c].reshape(d, c)
        b = flat[d * c :]
        logits = train_x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        logp = logits - logz
        nll = -(onehot * logp).sum()
        p = np.exp(logp)
        grad_logits = p - onehot
        grad_w = train_x.T @ grad_logits + l2_strength * w
        grad_b = grad_logits.sum(axis=0)
        value = nll + 0.5 * l2_strength * (w**2).sum()
        return value, np.concatenate([grad_w.reshape(-1), grad_b])

    x0 = np.zeros(d * c + c)
    result = optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": 1e-6, "ftol": 0.0},
    )
    w = result.x[: d * c].reshape(d, c)
    b = result.x[d * c :]
    grad_norm = float(np.abs(result.jac).max())
    converged = grad_norm <= 1e-6
    pred = classes[(test_x @ w + b).argmax(axis=1)]
    return LogregResult(
        balanced_accuracy=balanced_accuracy(np.asarray(test_y), pred),
        converged=converged,
        grad_norm=grad_norm,
        predictions=pred,
    )


@dataclass
class StatReport:
    metric: str
    point: float
    boot_mean: float
    boot_std: float
    n_boot: int
    p_value: float | None = None
    p_bonferroni: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def bootstrap(
    metric: Callable[[np.ndarray], np.ndarray],
    n: int,
    n_boot: int,
    seed: int,
    name: str,
) -> StatReport:
    """``metric`` maps a ``(k, n)`` array of row indices into the n test
    rows, one resample per row, to its k values; the point value is
    ``metric(np.arange(n)[None])[0]``.  Mean and std are over n_boot
    resamples with replacement: an ``(n_boot, n)`` index matrix drawn in
    row chunks of at most ``MAX_RESAMPLE_INDICES`` indices (at least one
    row), the same random stream as drawing its rows one by one."""
    if n == 0:
        raise EvalError("empty test set")
    if n_boot < 1:
        raise EvalError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    values = np.empty(n_boot)
    step = max(1, MAX_RESAMPLE_INDICES // n)
    for start in range(0, n_boot, step):
        k = min(step, n_boot - start)
        values[start : start + k] = metric(rng.integers(0, n, size=(k, n)))
    return StatReport(name, float(metric(np.arange(n)[None])[0]),
                      float(values.mean()), float(values.std()), n_boot)


@dataclass
class WilcoxonResult:
    p_value: float
    statistic: float  # W+ (sum of ranks of positive differences)
    n: int  # non-zero differences used
    method: str  # exact | normal | degenerate
    degenerate: bool = False


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired test of a vs b; zero differences dropped."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise EvalError(f"paired samples differ in shape: {a.shape} vs {b.shape}")
    diff = a - b
    diff = diff[diff != 0]
    n = len(diff)
    if n == 0:
        return WilcoxonResult(1.0, 0.0, 0, "degenerate", degenerate=True)
    ranks = _midranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    if n <= EXACT_WILCOXON_MAX_N:
        # all 2^n sign assignments, each equally likely under H0
        signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        dist = signs @ ranks
        p_low = float((dist <= w_plus + 1e-12).mean())
        p_high = float((dist >= w_plus - 1e-12).mean())
        p = min(1.0, 2.0 * min(p_low, p_high))
        return WilcoxonResult(p, w_plus, n, "exact")
    mean_w = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float((counts**3 - counts).sum()) / 48.0
    var_w = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var_w <= 0:
        return WilcoxonResult(1.0, w_plus, n, "degenerate", degenerate=True)
    correction = 0.5 * np.sign(w_plus - mean_w)
    z = (w_plus - mean_w - correction) / math.sqrt(var_w)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(p, w_plus, n, "normal")


def bonferroni(p: float, m: int) -> float:
    return min(1.0, m * p)

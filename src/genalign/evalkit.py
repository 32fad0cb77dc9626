"""Retrieval and probing metrics with their statistical machinery.

Rankings are cosine-similarity orderings with deterministic ties (ascending
candidate id).  Every retrieval metric is a per-query vector (reciprocal
ranks, top-k hits, AP@k); its mean is the reported value, and ``bootstrap``
resamples the query rows of such a vector, or of any per-row metric such as
a probe's (truth, prediction) pairs, to give a ``StatReport``.  The
Wilcoxon signed-rank test enumerates all sign assignments exactly for small
samples (mid-ranks for tied magnitudes) and falls back to a
continuity-corrected normal approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

EXACT_WILCOXON_MAX_N = 12


class EvalError(ValueError):
    pass


@dataclass
class RetrievalIndex:
    keys: list[str]
    matrix: np.ndarray  # (N, dim), unit rows
    modality: str = ""
    # position of each key in ascending id order, the tie-break key
    id_rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if len(self.keys) != self.matrix.shape[0]:
            raise EvalError("keys and matrix row count differ")
        if len(set(self.keys)) != len(self.keys):
            raise EvalError("duplicate ids in retrieval index")
        if self.matrix.shape[0] == 0:
            raise EvalError("empty retrieval index")
        norms = np.linalg.norm(self.matrix, axis=1)
        if np.abs(norms - 1.0).max() > 1e-4:
            raise EvalError("index rows must be unit-norm")
        self.id_rank = np.argsort(sorted(range(len(self.keys)), key=self.keys.__getitem__))


@dataclass
class RankedList:
    query_id: str
    candidate_ids: list[str]
    scores: np.ndarray

    def rank_of(self, candidate_id: str) -> int:
        """1-based rank; raises if absent."""
        return self.candidate_ids.index(candidate_id) + 1


def retrieve(
    query_id: str,
    query: np.ndarray,
    index: RetrievalIndex,
    exclude_self: bool = False,
) -> RankedList:
    """Rank candidates by cosine similarity, ties broken by ascending id."""
    query = np.asarray(query, dtype=np.float64)
    scores = index.matrix @ query
    order = np.lexsort((index.id_rank, -scores))
    if exclude_self and query_id in index.keys:
        order = order[order != index.keys.index(query_id)]
    return RankedList(
        query_id=query_id,
        candidate_ids=[index.keys[i] for i in order],
        scores=scores[order],
    )


def reciprocal_ranks(
    ranked: Sequence[RankedList], true_matches: dict[str, str]
) -> np.ndarray:
    """1 / rank of each query's true match; the mean is the MRR."""
    return np.array([1.0 / r.rank_of(true_matches[r.query_id]) for r in ranked])


def hits_at_k(
    ranked: Sequence[RankedList], true_matches: dict[str, str], k: int
) -> np.ndarray:
    """1.0 where a query's true match is in its top k, else 0.0; the mean is
    the top-k accuracy."""
    return np.array(
        [true_matches[r.query_id] in r.candidate_ids[:k] for r in ranked], np.float64
    )


def average_precision_at_k(r: RankedList, relevant: set[str], k: int) -> float:
    """AP@k normalized by min(|relevant|, k)."""
    if not relevant:
        raise EvalError("empty relevance set")
    hits = 0
    score = 0.0
    for i, cid in enumerate(r.candidate_ids[:k], start=1):
        if cid in relevant:
            hits += 1
            score += hits / i
    return score / min(len(relevant), k)


def map_at_k(
    ranked: Sequence[RankedList], relevance: dict[str, set[str]], k: int
) -> tuple[np.ndarray, int]:
    """AP@k of each query with non-empty relevance (their mean is the
    mAP@k) and the count of skipped queries."""
    values = []
    skipped = 0
    for r in ranked:
        rel = relevance.get(r.query_id, set())
        if not rel:
            skipped += 1
            continue
        values.append(average_precision_at_k(r, rel, k))
    if not values:
        raise EvalError("no query had a non-empty relevance set")
    return np.array(values), skipped


def f1_score(tp: int, n_predicted: int, n_positive: int) -> float:
    """F1 of ``tp`` true hits among n_predicted predictions of n_positive
    positives."""
    if tp == 0:
        return 0.0
    precision = tp / n_predicted
    recall = tp / n_positive
    return 2 * precision * recall / (precision + recall)


def per_gene_f1(
    rankings: dict[str, RankedList], positives: dict[str, set[str]]
) -> dict[str, float]:
    """F1 of the top-N_g retrieved candidates per gene, N_g = positive count.

    At this cutoff precision equals recall, so F1 equals the hit fraction.
    """
    out = {}
    for gene, ranked in rankings.items():
        pos = positives[gene]
        if not pos:
            raise EvalError(f"gene {gene}: empty positive set")
        n = len(pos)
        out[gene] = f1_score(len(set(ranked.candidate_ids[:n]) & pos), n, n)
    return out


def nearest_gene_assignment(
    slide_ids: list[str],
    slide_embeddings: np.ndarray,
    gene_names: list[str],
    gene_embeddings: np.ndarray,
) -> dict[str, str]:
    """Assign each slide to its most similar gene embedding (ties: first
    gene in sorted order)."""
    order = np.argsort(gene_names, kind="stable")
    names = [gene_names[i] for i in order]
    mat = np.asarray(gene_embeddings, dtype=np.float64)[order]
    sims = np.asarray(slide_embeddings, dtype=np.float64) @ mat.T
    best = sims.argmax(axis=1)
    return {sid: names[b] for sid, b in zip(slide_ids, best)}


def per_gene_f1_from_assignment(
    assignment: dict[str, str], positives: dict[str, set[str]]
) -> dict[str, float]:
    predicted: dict[str, set[str]] = {gene: set() for gene in positives}
    for sid, gene in assignment.items():
        if gene in predicted:
            predicted[gene].add(sid)
    return {
        gene: f1_score(len(predicted[gene] & pos), len(predicted[gene]), len(pos))
        for gene, pos in positives.items()
    }


def _as_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if (norms == 0).any():
        raise EvalError("zero-norm embedding row")
    return x / norms


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    classes = np.unique(y_true)
    recalls = [
        float((y_pred[y_true == c] == c).mean()) for c in classes
    ]
    return float(np.mean(recalls))


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
    k = min(k, train_x.shape[0])
    predictions = []
    for row in sims:
        order = np.argsort(-row, kind="stable")[:k]
        votes: dict = {}
        for pos, idx in enumerate(order):
            label = train_y[idx]
            count, first = votes.get(label, (0, pos))
            votes[label] = (count + 1, min(first, pos))
        best = max(votes.items(), key=lambda kv: (kv[1][0], -kv[1][1]))
        predictions.append(best[0])
    return balanced_accuracy(test_y, np.array(predictions))


@dataclass
class LogregResult:
    balanced_accuracy: float
    converged: bool
    grad_norm: float
    predictions: np.ndarray | None = None


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
    metric: Callable[[np.ndarray], float],
    n: int,
    n_boot: int,
    seed: int,
    name: str,
) -> StatReport:
    """``metric`` maps an array of row indices into the n test rows to a
    value.  Its point value is on all rows; mean and std are over n_boot
    resamples of the rows with replacement."""
    if n == 0:
        raise EvalError("empty test set")
    if n_boot < 1:
        raise EvalError(f"n_boot must be >= 1, got {n_boot}")
    rng = np.random.default_rng(seed)
    values = np.empty(n_boot)
    for b in range(n_boot):
        values[b] = metric(rng.integers(0, n, size=n))
    return StatReport(name, float(metric(np.arange(n))), float(values.mean()),
                      float(values.std()), n_boot)


@dataclass
class WilcoxonResult:
    p_value: float
    statistic: float  # W+ (sum of ranks of positive differences)
    n: int  # non-zero differences used
    method: str  # exact | normal | degenerate
    degenerate: bool = False


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


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

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy import optimize

from genalign import evalkit as ek


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def unit_rows(vectors):
    return np.stack([unit(v) for v in vectors])


def ranked_ids(query, vectors, ids=None):
    """Candidate ids of one query's ranking, and its scores."""
    ids = ids or [f"c{i}" for i in range(len(vectors))]
    order, scores = ek.retrieve(np.asarray(query)[None], unit_rows(vectors), ids)
    return [ids[i] for i in order[0]], scores[0]


class TestRetrieve:
    def test_exact_match_ranks_first(self, rng):
        vecs = [unit(rng.standard_normal(8)) for _ in range(6)]
        ids, scores = ranked_ids(vecs[3], vecs)
        assert ids[0] == "c3"
        assert scores[0] == pytest.approx(1.0)

    def test_orthogonal_query_ties_break_by_id(self):
        e = np.eye(4)
        ids, scores = ranked_ids(e[0], [e[1], e[2], e[3]], ids=["z", "a", "m"])
        assert ids == ["a", "m", "z"]
        assert np.allclose(scores, 0.0)

    def test_hand_set_similarity_order(self):
        base = np.zeros(3)
        base[0] = 1.0
        def with_cos(c):
            return np.array([c, math.sqrt(1 - c * c), 0.0])
        ids, scores = ranked_ids(
            base, [with_cos(0.9), with_cos(-0.2), with_cos(0.5), with_cos(0.99), with_cos(0.0)]
        )
        assert ids == ["c3", "c0", "c2", "c4", "c1"]
        assert all(np.diff(scores) <= 0)

    def test_query_block_matches_single_queries(self, rng):
        vecs = [unit(rng.standard_normal(6)) for _ in range(7)]
        queries = rng.standard_normal((5, 6))
        ids = [f"c{i}" for i in range(7)]
        order, scores = ek.retrieve(queries, unit_rows(vecs), ids)
        assert order.shape == scores.shape == (5, 7)
        for q, query in enumerate(queries):
            single_ids, single_scores = ranked_ids(query, vecs)
            assert [ids[i] for i in order[q]] == single_ids
            assert np.array_equal(scores[q], single_scores)
            assert np.array_equal(scores[q], (unit_rows(vecs) @ query)[order[q]])

    def test_identical_candidates_tie_by_id(self, rng):
        # a matrix-vector product can round copies of one row apart
        for _ in range(200):
            distinct = unit_rows([unit(rng.standard_normal(32)) for _ in range(40)])
            copies = rng.choice(40, size=10)
            candidates = np.vstack([distinct, distinct[copies]])
            shuffle = rng.permutation(50)
            candidates = candidates[shuffle]
            ids = [f"c{i:02d}" for i in range(50)]
            query = rng.standard_normal((1, 32))
            order, scores = ek.retrieve(query, candidates, ids)
            source = np.concatenate([np.arange(40), copies])[shuffle][order[0]]
            for r in range(49):
                if source[r] == source[r + 1]:
                    assert scores[0, r] == scores[0, r + 1]
                    assert order[0, r] < order[0, r + 1]
            singles = np.bincount(source, minlength=40)[source] == 1
            assert np.array_equal(scores[0, singles], (candidates @ query[0])[order[0, singles]])

    def test_rotation_invariant_ordering(self, rng):
        vecs = [unit(rng.standard_normal(6)) for _ in range(8)]
        q = unit(rng.standard_normal(6))
        rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base, _ = ranked_ids(q, vecs)
        rotated, _ = ranked_ids(rot @ q, [rot @ v for v in vecs])
        assert base == rotated

    def test_empty_index_rejected(self):
        with pytest.raises(ek.EvalError, match="empty"):
            ek.retrieve(np.ones((1, 4)), np.zeros((0, 4)), [])

    def test_non_unit_rows_rejected(self, rng):
        with pytest.raises(ek.EvalError, match="unit"):
            ek.retrieve(np.ones((1, 4)), rng.standard_normal((1, 4)) * 3, ["a"])


def hit_matrix(candidate_lists, relevant):
    """hits[q, r]: query q's rank-r candidate is in its relevant set."""
    return np.array([[c in rel for c in cands]
                     for cands, rel in zip(candidate_lists, relevant)])


class TestTopkMrr:
    def test_all_rank_one(self):
        hits = hit_matrix([[f"q{i}", "x", "y"] for i in range(4)],
                          [{f"q{i}"} for i in range(4)])
        assert list(ek.hits_at_k(hits, 1)) == [1.0] * 4
        assert list(ek.reciprocal_ranks(hits)) == [1.0] * 4

    def test_rank_six_misses_top5(self):
        hits = hit_matrix([["a", "b", "c", "d", "e", "t"]], [{"t"}])
        assert list(ek.hits_at_k(hits, 5)) == [0.0]
        assert list(ek.hits_at_k(hits, 6)) == [1.0]
        assert list(ek.reciprocal_ranks(hits)) == [1 / 6]

    def test_single_query_rank_four(self):
        hits = hit_matrix([["a", "b", "c", "t"]], [{"t"}])
        assert list(ek.reciprocal_ranks(hits)) == [0.25]

    def test_random_permutation_topk_expectation(self):
        # uniform rank over N=20 -> P(top-5) = 5/20
        rng = np.random.default_rng(0)
        ids = [f"c{i}" for i in range(20)]
        lists = [[ids[j] for j in rng.permutation(20)] for _ in range(10_000)]
        hits = hit_matrix(lists, [{"c0"}] * 10_000)
        acc = ek.hits_at_k(hits, 5).mean()
        assert acc == pytest.approx(0.25, abs=0.02)

    def test_uniform_rank_mrr_expectation_n5(self):
        # exact enumeration: E[1/rank] = (1 + 1/2 + ... + 1/5)/5
        from itertools import permutations
        lists = list(permutations(["a", "b", "c", "d", "e"]))
        hits = hit_matrix(lists, [{"a"}] * len(lists))
        expected = sum(1 / r for r in range(1, 6)) / 5
        assert ek.reciprocal_ranks(hits).mean() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.45666, abs=1e-4)

    def test_topk_monotone_in_k_and_mrr_bounds(self, rng):
        ids = [f"c{i}" for i in range(12)]
        lists = [[ids[j] for j in rng.permutation(12)] for _ in range(50)]
        hits = hit_matrix(lists, [{"c3"}] * 50)
        at_k = [ek.hits_at_k(hits, k) for k in range(1, 13)]
        assert all((a <= b).all() for a, b in zip(at_k, at_k[1:]))
        assert (at_k[-1] == 1.0).all()
        rr = ek.reciprocal_ranks(hits)
        assert ((at_k[0] <= rr) & (rr <= 1.0)).all()


def ap_oracle(candidate_ids, relevant, k):
    """Precision@i computed from scratch with set intersections."""
    total = 0.0
    for i in range(1, k + 1):
        if i <= len(candidate_ids) and candidate_ids[i - 1] in relevant:
            top_i = set(candidate_ids[:i])
            total += len(top_i & relevant) / i
    return total / min(len(relevant), k)


class TestMapAtK:
    def test_relevant_at_all_top_ranks(self):
        hits = hit_matrix([["r1", "r2", "r3", "x"]], [{"r1", "r2", "r3"}])
        assert list(ek.average_precision_at_k(hits, 3)) == [1.0]

    def test_hand_computed_case(self):
        # relevant at ranks 2 and 3, |R| = 2 -> (1/2)(1/2 + 2/3) = 7/12
        hits = hit_matrix([["x", "r1", "r2"]], [{"r1", "r2"}])
        assert ek.average_precision_at_k(hits, 3) == pytest.approx([7 / 12])

    def test_nothing_relevant_in_topk(self):
        hits = hit_matrix([["x", "y", "z", "r"]], [{"r"}])
        assert list(ek.average_precision_at_k(hits, 3)) == [0.0]

    def test_empty_relevance_rejected(self):
        hits = hit_matrix([["a", "b"], ["b", "a"]], [{"a"}, set()])
        with pytest.raises(ek.EvalError, match="relevant"):
            ek.average_precision_at_k(hits, 2)

    def test_matches_bruteforce_on_200_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            k = int(rng.integers(1, 6))
            ids = [f"c{i}" for i in range(n)]
            perm = [ids[j] for j in rng.permutation(n)]
            n_rel = int(rng.integers(1, n + 1))
            relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
            got = ek.average_precision_at_k(hit_matrix([perm], [relevant]), k)
            assert got == pytest.approx([ap_oracle(perm, relevant, k)], rel=1e-12)


class TestPerGeneF1:
    def test_perfect_retrieval(self):
        hits = hit_matrix([["p1", "p2", "p3", "p4"]], [{"p1", "p2"}])
        assert list(ek.f1_at_n_relevant(hits)) == [1.0]

    def test_half_hit(self):
        hits = hit_matrix([["p1", "x", "p2", "y"]], [{"p1", "p2"}])
        assert ek.f1_at_n_relevant(hits) == pytest.approx([0.5])

    def test_random_ranking_expectation(self):
        # N positives of M total -> E[F1] ~ N/M under random ranking
        rng = np.random.default_rng(3)
        m, n_pos = 20, 6
        ids = [f"p{i}" for i in range(m)]
        lists = [[ids[j] for j in rng.permutation(m)] for _ in range(1000)]
        values = ek.f1_at_n_relevant(hit_matrix(lists, [set(ids[:n_pos])] * 1000))
        assert np.mean(values) == pytest.approx(n_pos / m, abs=0.02)

    def test_assignment_direction(self):
        assignment = {"p1": "A", "p2": "A", "p3": "B", "p4": "B"}
        positives = {"A": {"p1", "p3"}, "B": {"p4"}}
        predicted = np.array([[assignment[p] == g for p in assignment] for g in positives])
        relevant = np.array([[p in positives[g] for p in assignment] for g in positives])
        out = ek.f1_score((predicted & relevant).sum(axis=1), predicted.sum(axis=1),
                          relevant.sum(axis=1))
        # A: predicted {p1,p2}, tp=1, prec 1/2, rec 1/2 -> 0.5
        assert out[0] == pytest.approx(0.5)
        # B: predicted {p3,p4}, tp=1, prec 1/2, rec 1 -> 2/3
        assert out[1] == pytest.approx(2 / 3)


class TestKnnProbe:
    def test_identical_point_k1(self, rng):
        train = rng.standard_normal((10, 4))
        labels = np.arange(10)
        assert ek.knn_probe(train, labels, train[3:4], labels[3:4], k=1) == 1.0

    def test_balanced_accuracy_mean_of_recalls(self):
        y_true = np.array([0, 0, 1, 1, 1, 1])
        y_pred = np.array([0, 0, 1, 1, 0, 0])
        assert ek.balanced_accuracy(y_true, y_pred) == pytest.approx(0.75)

    def test_separable_blobs(self, rng):
        centers = np.eye(3) * 50
        train_x, train_y, test_x, test_y = [], [], [], []
        for c in range(3):
            pts = centers[c] + rng.standard_normal((20, 3)) * 0.1
            train_x.append(pts[:15]); test_x.append(pts[15:])
            train_y += [c] * 15; test_y += [c] * 5
        bacc = ek.knn_probe(np.vstack(train_x), np.array(train_y),
                            np.vstack(test_x), np.array(test_y), k=5)
        assert bacc == 1.0

    def test_vote_tie_goes_to_the_nearest_tied_class(self):
        # the 4 nearest of each query hold two a's and two b's
        angles = np.radians([0.0, 10.0, 20.0, 30.0, 200.0])
        train = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        labels = np.array(["a", "b", "b", "a", "c"])
        queries = np.radians([-5.0, 14.0])
        test = np.stack([np.cos(queries), np.sin(queries)], axis=1)
        assert ek.knn_probe(train, labels, test, np.array(["a", "b"]), k=4) == 1.0
        # two votes beat one, however near the one
        assert ek.knn_probe(train, np.array(["a", "b", "c", "c", "a"]), test[:1],
                            np.array(["c"]), k=4) == 1.0

    def test_train_equals_test_distinct_embeddings(self, rng):
        x = rng.standard_normal((12, 6))
        y = np.repeat([0, 1, 2], 4)
        assert ek.knn_probe(x, y, x, y, k=1) == 1.0


class TestLogregProbe:
    def test_linearly_separable(self, rng):
        x0 = rng.standard_normal((30, 2)) + np.array([6.0, 0.0])
        x1 = rng.standard_normal((30, 2)) + np.array([-6.0, 0.0])
        x = np.vstack([x0, x1])
        y = np.array([0] * 30 + [1] * 30)
        result = ek.logreg_probe(x, y, x, y)
        assert result.balanced_accuracy == 1.0

    def test_random_labels_near_chance(self):
        baccs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((200, 8))
            y = rng.integers(0, 2, size=200)
            x_test = rng.standard_normal((200, 8))
            y_test = rng.integers(0, 2, size=200)
            baccs.append(ek.logreg_probe(x, y, x_test, y_test).balanced_accuracy)
        assert np.mean(baccs) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 7])
    def test_matches_lbfgs_reference(self, n_classes):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            centers = rng.standard_normal((n_classes, 12))
            y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, 60)])
            y_test = rng.integers(0, n_classes, 100)
            x = centers[y] + 1.5 * rng.standard_normal((len(y), 12))
            x_test = centers[y_test] + 1.5 * rng.standard_normal((100, 12))
            labels = np.array([f"class{k}" for k in range(n_classes)])
            result = ek.logreg_probe(x, labels[y], x_test, labels[y_test])
            assert result.converged and result.grad_norm <= 1e-6
            np.testing.assert_array_equal(result.predictions, lbfgs_predictions(x, labels[y], x_test))

    def test_one_class_training_split(self, rng):
        x = rng.standard_normal((10, 3))
        result = ek.logreg_probe(x, np.array(["a"] * 10), x[:4], np.array(["a", "a", "b", "b"]))
        assert result.converged and result.grad_norm <= 1e-6
        assert list(result.predictions) == ["a"] * 4

    def test_memory_far_below_a_dense_hessian(self, rng):
        # a dense Hessian of these 513 * 10 unknowns would take 210 MB
        x = rng.standard_normal((200, 512))
        y = np.arange(200) % 10
        tracemalloc.start()
        try:
            result = ek.logreg_probe(x, y, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 20e6

    def test_multiclass_deterministic(self, rng):
        x = rng.standard_normal((60, 5))
        y = rng.integers(0, 3, size=60)
        a = ek.logreg_probe(x, y, x, y).balanced_accuracy
        b = ek.logreg_probe(x, y, x, y).balanced_accuracy
        assert a == b


def lbfgs_predictions(train_x, train_y, test_x):
    """Test-set predictions of the logistic probe's objective minimised from
    zero by scipy's L-BFGS-B at a gradient tolerance of 1e-10."""
    classes, y = np.unique(train_y, return_inverse=True)
    d, c = train_x.shape[1], len(classes)
    onehot = np.eye(c)[y]

    def objective(flat):
        w, b = flat[: d * c].reshape(d, c), flat[d * c :]
        logits = train_x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        grad_logits = np.exp(logp) - onehot
        value = -(onehot * logp).sum() + 0.5 * ek.LOGREG_L2 * (w**2).sum()
        grad_w = train_x.T @ grad_logits + ek.LOGREG_L2 * w
        return value, np.concatenate([grad_w.ravel(), grad_logits.sum(axis=0)])

    flat = optimize.minimize(objective, np.zeros(d * c + c), jac=True, method="L-BFGS-B",
                             options={"maxiter": 10_000, "gtol": 1e-10, "ftol": 0.0}).x
    return classes[(test_x @ flat[: d * c].reshape(d, c) + flat[d * c :]).argmax(axis=1)]


def loop_bootstrap(metric, n, n_boot, seed):
    """(point, boot_mean, boot_std) of the per-resample loop the resample
    matrix replaced: ``metric`` takes one 1-D row-index array."""
    rng = np.random.default_rng(seed)
    values = np.empty(n_boot)
    for b in range(n_boot):
        values[b] = metric(rng.integers(0, n, size=n))
    return float(metric(np.arange(n))), float(values.mean()), float(values.std())


class TestBootstrap:
    def test_constant_metric_zero_std(self):
        out = ek.bootstrap(lambda rows: np.full(len(rows), 42.0), 3, n_boot=50,
                           seed=0, name="c")
        assert out.boot_std == 0.0 and out.boot_mean == 42.0
        assert out.metric == "c" and out.point == 42.0

    def test_single_iteration(self):
        data = np.array([1.0, 3.0])
        out = ek.bootstrap(lambda rows: data[rows].mean(axis=-1), 2,
                           n_boot=1, seed=5, name="mean")
        assert out.n_boot == 1 and out.point == 2.0
        rng = np.random.default_rng(5)
        picks = rng.integers(0, 2, size=2)
        expected = np.mean([[1.0, 3.0][i] for i in picks])
        assert out.boot_mean == pytest.approx(expected)

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_no_resample_rejected(self, n_boot):
        with pytest.raises(ek.EvalError, match="n_boot"):
            ek.bootstrap(lambda rows: 1.0, 3, n_boot=n_boot, seed=0, name="x")

    def test_bernoulli_mean_std_closed_form(self):
        rng = np.random.default_rng(11)
        n = 400
        data = (rng.random(n) < 0.3).astype(float)
        p_hat = np.mean(data)
        out = ek.bootstrap(lambda rows: data[rows].mean(axis=-1), n,
                           n_boot=1000, seed=2, name="mean")
        expected_std = math.sqrt(p_hat * (1 - p_hat) / n)
        assert out.boot_std == pytest.approx(expected_std, rel=0.10)

    @pytest.mark.parametrize("cap", [None, 5, 100])
    @pytest.mark.parametrize("n", [1, 2, 7, 49, 50])
    def test_equals_per_resample_loop(self, n, cap, monkeypatch):
        # a small cap splits the 301 resamples into chunks, the last one short
        if cap is not None:
            monkeypatch.setattr(ek, "MAX_RESAMPLE_INDICES", cap)
        data = np.random.default_rng(n).standard_normal(n)
        chunks = []

        def metric(rows):
            chunks.append(rows.shape)
            return data[rows].mean(axis=-1)

        out = ek.bootstrap(metric, n, n_boot=301, seed=4, name="mean")
        assert (out.point, out.boot_mean, out.boot_std) == loop_bootstrap(
            lambda rows: float(data[rows].mean()), n, 301, 4)
        resamples = chunks[:-1]  # the last call is the point value's
        assert sum(k for k, _ in resamples) == 301 and chunks[-1] == (1, n)
        if cap is not None:
            assert all(k * n <= cap or k == 1 for k, _ in resamples)
            assert len(resamples) > 1


def wilcoxon_enumeration_oracle(a, b):
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        return 1.0
    mags = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: mags[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    dist = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in product([0, 1], repeat=n)]
    p_low = sum(v <= w_obs + 1e-12 for v in dist) / len(dist)
    p_high = sum(v >= w_obs - 1e-12 for v in dist) / len(dist)
    return min(1.0, 2 * min(p_low, p_high))


class TestWilcoxon:
    def test_three_positive_differences(self):
        out = ek.wilcoxon_signed_rank([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        assert out.method == "exact"
        assert out.p_value == pytest.approx(0.25)

    def test_identical_samples_degenerate(self):
        out = ek.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert out.p_value == 1.0 and out.method == "degenerate"

    def test_antisymmetry(self, rng):
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        assert ek.wilcoxon_signed_rank(a, b).p_value == pytest.approx(
            ek.wilcoxon_signed_rank(b, a).p_value, rel=1e-12
        )

    def test_exact_matches_enumeration_oracle_100_samples(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            a = rng.integers(-3, 4, size=n).astype(float)  # integer ties likely
            b = rng.integers(-3, 4, size=n).astype(float)
            got = ek.wilcoxon_signed_rank(a, b)
            expected = wilcoxon_enumeration_oracle(a, b)
            assert got.p_value == pytest.approx(expected, rel=1e-12), (a, b)

    def test_large_n_uses_normal_approximation(self, rng):
        a = rng.standard_normal(40) + 2.0
        b = rng.standard_normal(40)
        out = ek.wilcoxon_signed_rank(a, b)
        assert out.method == "normal"
        assert out.p_value < 0.001

    def test_normal_approx_close_to_exact_at_boundary(self, rng):
        # n = 12 exact vs forced-normal on the same data stay in the same regime
        a = rng.standard_normal(12) + 0.5
        b = rng.standard_normal(12)
        exact = ek.wilcoxon_signed_rank(a, b)
        assert exact.method == "exact"


class TestBonferroni:
    def test_scaling(self):
        assert ek.bonferroni(0.01, 5) == pytest.approx(0.05)

    def test_clamped(self):
        assert ek.bonferroni(0.5, 3) == 1.0

    def test_identity_at_m1(self):
        assert ek.bonferroni(0.2, 1) == pytest.approx(0.2)

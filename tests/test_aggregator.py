import tracemalloc

import numpy as np
import pytest

from genalign import aggregator as agg
from genalign import ndiff
from genalign.ndiff import Tensor

TINY = agg.AggregatorConfig(depth=2, heads=2, embed_dim=16, mlp_dim=32,
                            input_dim=8, max_cells=32)


@pytest.fixture
def tiny_params(rng):
    return agg.init_params(TINY, rng)


def cls_of(cells, params, mask=np.empty(0, np.int64)):
    return agg.forward(cells, mask, params, TINY).data[0]


def cls_and_tokens(hidden):
    """One view's CLS row and cell rows from ``forward``'s hidden rows."""
    return ndiff.gather_rows(hidden, [0]), ndiff.gather_rows(hidden, np.arange(1, hidden.shape[0]))


class TestForward:
    def test_permutation_invariance_f32(self, tiny_params, rng):
        for _ in range(50):
            n = int(rng.integers(2, 24))
            cells = rng.standard_normal((n, TINY.input_dim)).astype(np.float32)
            base = cls_of(cells, tiny_params)
            perm = cls_of(cells[rng.permutation(n)], tiny_params)
            rel = np.linalg.norm(base - perm) / np.linalg.norm(base)
            assert rel <= 1e-5

    def test_permutation_invariance_f64(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(7), dtype=np.float64)
        for _ in range(10):
            n = int(rng.integers(2, 24))
            cells = rng.standard_normal((n, TINY.input_dim))
            base = agg.forward(cells, np.empty(0, np.int64), params, TINY).data[0]
            perm = agg.forward(cells[rng.permutation(n)], np.empty(0, np.int64),
                               params, TINY).data[0]
            rel = np.linalg.norm(base - perm) / np.linalg.norm(base)
            assert rel <= 1e-10

    def test_duplicating_a_cell_changes_cls(self, tiny_params, rng):
        # attention re-weights on duplication; mean pooling would not notice
        cells = rng.standard_normal((6, TINY.input_dim)).astype(np.float32)
        duplicated = np.vstack([cells, cells[:1]])
        base = cls_of(cells, tiny_params)
        dup = cls_of(duplicated, tiny_params)
        assert np.linalg.norm(base - dup) / np.linalg.norm(base) > 1e-4

    def test_single_cell_bag(self, tiny_params, rng):
        cells = rng.standard_normal((1, TINY.input_dim)).astype(np.float32)
        cls, tokens = cls_and_tokens(agg.forward(cells, np.empty(0, np.int64), tiny_params, TINY,
                                                 tokens=np.array([0])))
        assert cls.shape == (1, TINY.embed_dim)
        assert tokens.shape == (1, TINY.embed_dim)
        assert np.isfinite(cls.data).all()

    def test_fully_masked_bag_ignores_cell_values(self, tiny_params, rng):
        n = 5
        mask = np.arange(n)
        a = rng.standard_normal((n, TINY.input_dim)).astype(np.float32)
        b = rng.standard_normal((n, TINY.input_dim)).astype(np.float32)
        cls_a, tokens_a = cls_and_tokens(agg.forward(a, mask, tiny_params, TINY, tokens=mask))
        cls_b, tokens_b = cls_and_tokens(agg.forward(b, mask, tiny_params, TINY, tokens=mask))
        assert np.isfinite(cls_a.data).all()
        assert np.allclose(cls_a.data, cls_b.data)
        assert np.allclose(tokens_a.data, tokens_b.data)

    def test_empty_bag_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="empty"):
            agg.forward(np.zeros((0, TINY.input_dim), np.float32),
                        np.empty(0, np.int64), tiny_params, TINY)

    def test_width_mismatch_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="input_dim"):
            agg.forward(np.zeros((3, 5), np.float32), np.empty(0, np.int64),
                        tiny_params, TINY)

    def test_mask_out_of_range_rejected(self, tiny_params, rng):
        cells = rng.standard_normal((3, TINY.input_dim)).astype(np.float32)
        with pytest.raises(ValueError, match="mask"):
            agg.forward(cells, np.array([3]), tiny_params, TINY)

    def test_stacked_views_equal_separate_forwards(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(5), dtype=np.float64)
        b, n = 3, 6
        views = rng.standard_normal((b, n, TINY.input_dim))
        masks = np.array([[0, 4], [5, 1], [2, 3]])
        probe = Tensor(rng.standard_normal((b * (n + 1), TINY.embed_dim)))

        def loss_of(hidden):
            return ndiff.mean(ndiff.mul(hidden, probe))

        with ndiff.Tape() as tape:
            stacked = agg.forward(views.reshape(b * n, -1), list(masks), params, TINY,
                                  tokens=[np.arange(n)] * b, lengths=[n] * b)
            loss = loss_of(stacked)
        grads = tape.backward(loss)
        with ndiff.Tape() as tape:
            separate = ndiff.gather_rows(
                [agg.forward(views[i], masks[i], params, TINY, tokens=np.arange(n))
                 for i in range(b)], np.arange(b * (n + 1))
            )
            loss_sep = loss_of(separate)
        grads_sep = tape.backward(loss_sep)
        assert stacked.shape == (b * (n + 1), TINY.embed_dim)
        np.testing.assert_allclose(stacked.data, separate.data, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(float(loss.data), float(loss_sep.data), rtol=1e-12)
        for name, p in params.items():
            np.testing.assert_allclose(grads[p], grads_sep[p], rtol=1e-9, atol=1e-13,
                                       err_msg=name)

    def test_masked_stack_builds_sequences_without_mul(self, tiny_params, rng, monkeypatch):
        calls = []
        mul = ndiff.mul

        def recording(a, b):
            calls.append((a.shape, b.shape))
            return mul(a, b)

        monkeypatch.setattr(ndiff, "mul", recording)
        b, n = 3, 6
        cells = rng.standard_normal((b * n, TINY.input_dim)).astype(np.float32)
        masks = [np.array([0, 4]), np.array([5, 1]), np.array([2, 3])]
        with ndiff.Tape():
            out = agg.forward(cells, masks, tiny_params, TINY, tokens=masks, lengths=[n] * b)
        assert out.shape == (b * 3, TINY.embed_dim)
        assert calls == []

    @pytest.mark.parametrize("mask,has_grad", [
        ([[], []], False),
        ([[1], [0]], True),
    ], ids=["unmasked", "masked"])
    def test_mask_token_gradient_only_when_a_cell_is_masked(self, tiny_params, rng,
                                                            mask, has_grad):
        cells = rng.standard_normal((2 * 4, TINY.input_dim)).astype(np.float32)
        with ndiff.Tape() as tape:
            loss = ndiff.mean(agg.forward(cells, mask, tiny_params, TINY, lengths=[4, 4]))
        grads = tape.backward(loss)
        assert (tiny_params["mask_token"] in grads) == has_grad
        assert tiny_params["cls"] in grads

    def test_one_mask_row_per_view_required(self, tiny_params, rng):
        # without lengths every row is one view, so a mask of several rows is refused
        rows = rng.standard_normal((8, TINY.input_dim)).astype(np.float32)
        for mask in (np.array([[1], [2]]), np.empty((0, 1), np.int64)):
            with pytest.raises(ValueError, match="mask does not give one 1-D position array per view of 1"):
                agg.forward(rows, mask, tiny_params, TINY)

    def test_cls_gradient_wrt_cells_passes_grad_check(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(3), dtype=np.float64)
        probe = Tensor(rng.standard_normal((1, TINY.embed_dim)))
        cells = Tensor(rng.standard_normal((4, TINY.input_dim)))

        def f(x):
            return ndiff.mean(ndiff.mul(agg.forward(x, np.array([1]), params, TINY), probe))

        report = ndiff.grad_check(f, cells, eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


def full_row_reference(cells, mask, params, config, tokens, lengths):
    """Every block on every row of each view's [CLS; cells] sequence, then
    each view's CLS row and its rows at ``tokens`` gathered; the views have
    equal lengths."""
    b, n = len(lengths), lengths[0]
    mask, tokens = np.array(mask), np.array(tokens, np.int64).reshape(b, -1)
    x = agg.mlp_forward(cells, params, "embed")
    keep = np.ones((b * n, 1))
    keep[(np.arange(b)[:, None] * n + mask).ravel()] = 0.0
    x = ndiff.add(ndiff.mul(x, Tensor(keep)), ndiff.mul(params["mask_token"], Tensor(1.0 - keep)))
    # each view's sequence [CLS; cells], CLS being row 0 of [cls; x]
    rows = np.hstack([np.zeros((b, 1), np.int64), 1 + np.arange(b * n).reshape(b, n)])
    x = ndiff.gather_rows([params["cls"], x], rows.ravel())
    for i in range(config.depth):
        h = agg._layer_norm(x, params, f"block{i}.ln1")
        x = ndiff.add(x, agg._attention(h, params, f"block{i}.attn", config, np.full(b, n + 1)))
        h = agg._layer_norm(x, params, f"block{i}.ln2")
        x = ndiff.add(x, agg.mlp_forward(h, params, f"block{i}.mlp"))
    x = agg._layer_norm(x, params, "final_ln")
    read = np.arange(b)[:, None] * (n + 1) + np.hstack([np.zeros((b, 1), np.int64), 1 + tokens])
    return ndiff.gather_rows(x, read.ravel())


class TestReadRows:
    def test_tokens_match_full_row_reference(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(11), dtype=np.float64)
        b, n = 3, 7
        cells = Tensor(rng.standard_normal((b * n, TINY.input_dim)), requires_grad=True)
        masks = [np.array([0, 4]), np.array([5, 1]), np.array([2, 3])]
        for tokens in (masks, [np.array([6, 0, 3])] * b, [np.empty(0, np.int64)] * b):
            probe = Tensor(rng.standard_normal((b * (1 + tokens[0].size), TINY.embed_dim)))
            outs, grads = [], []
            for run in (agg.forward, full_row_reference):
                with ndiff.Tape() as tape:
                    out = run(cells, masks, params, TINY, tokens, [n] * b)
                    loss = ndiff.mean(ndiff.mul(out, probe))
                outs.append(out.data)
                grads.append(tape.backward(loss))
            np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-14)
            for t in [cells, *params.values()]:
                np.testing.assert_allclose(grads[0][t], grads[1][t], rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("tokens,match", [
        ([[[0, 1], [2]], [3]], "inhomogeneous"),
        ([[0, 1]], "per view of 2"),
        ([[0], [1], [2]], "per view of 2"),
        ([[0], [4]], "tokens positions out of range"),
        ([[-1], [0]], "tokens positions out of range"),
    ])
    def test_bad_tokens_rejected(self, tiny_params, rng, tokens, match):
        rows = rng.standard_normal((8, TINY.input_dim)).astype(np.float32)
        with pytest.raises(ValueError, match=match):
            agg.forward(rows, [[], []], tiny_params, TINY, tokens, [4, 4])

    def test_full_bag_last_attention_has_one_query_per_view(self, tiny_params, rng, monkeypatch):
        calls = []
        attention = ndiff.multi_head_attention

        def recording(x, *args):
            calls.append(args[-1])
            return attention(x, *args)

        monkeypatch.setattr(ndiff, "multi_head_attention", recording)
        b, n = 3, 5
        cells = rng.standard_normal((b * n, TINY.input_dim)).astype(np.float32)
        out = agg.forward(cells, [[]] * b, tiny_params, TINY, lengths=[n] * b)
        assert out.shape == (b, TINY.embed_dim)
        assert len(calls) == TINY.depth and all(q is None for q in calls[:-1])
        assert np.array_equal(calls[-1], np.arange(b) * (n + 1))


def ragged_views(rng, lengths, dtype=np.float32):
    """Cells, masks and token positions of views with the given lengths."""
    cells = [rng.standard_normal((n, TINY.input_dim)).astype(dtype) for n in lengths]
    masks = [rng.choice(n, size=n // 3, replace=False) for n in lengths]
    tokens = [rng.choice(n, size=n // 2, replace=False) for n in lengths]
    return cells, masks, tokens


def per_view_rows(cells, masks, tokens, params):
    """``forward_bags``' documented row order from one ``forward`` per view:
    every view's CLS row, then each view's token rows."""
    outs = [agg.forward(c, m, params, TINY, t) for c, m, t in zip(cells, masks, tokens)]
    sizes = np.array([o.shape[0] for o in outs])
    first = np.cumsum(sizes) - sizes  # each view's CLS row among the stacked rows
    token_rows = [np.arange(s + 1, s + n) for s, n in zip(first, sizes)]
    return ndiff.gather_rows(outs, np.concatenate([first, *token_rows]))


def counting_forward(monkeypatch):
    """Patch ``aggregator.forward`` to record each call's view lengths."""
    calls, forward = [], agg.forward

    def counting(cells, mask, params, config, tokens=None, lengths=None):
        calls.append(tuple(lengths))
        return forward(cells, mask, params, config, tokens, lengths)

    monkeypatch.setattr(agg, "forward", counting)
    return calls


def call_floats(n):
    """``forward_bags``' budget charge for one view of n cells."""
    return TINY.heads * (n + 1) ** 2 + (n + 1) * TINY.mlp_dim


LENGTHS = [5, 3, 5, 7, 3, 5, 1]


class TestForwardBags:
    def test_ragged_views_match_per_view_forward(self, tiny_params, rng, monkeypatch):
        cells, masks, tokens = ragged_views(rng, LENGTHS)
        none = [np.empty(0, np.int64)] * len(LENGTHS)
        reference = per_view_rows(cells, masks, tokens, tiny_params).data
        cls_reference = per_view_rows(cells, none, none, tiny_params).data
        calls = counting_forward(monkeypatch)
        out = agg.forward_bags(cells, tiny_params, TINY, masks, tokens)
        assert calls == [tuple(sorted(LENGTHS))]  # one call for every length
        assert out.shape == (len(LENGTHS) + sum(t.size for t in tokens), TINY.embed_dim)
        np.testing.assert_allclose(out.data, reference, rtol=1e-5, atol=1e-6)
        cls_only = agg.forward_bags(cells, tiny_params, TINY)
        np.testing.assert_allclose(cls_only.data, cls_reference, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("views_per_call,n_calls", [(2, 3), (1, 5), (5, 1)])
    def test_score_budget_splits_a_length_group(self, rng, monkeypatch, views_per_call, n_calls):
        params = agg.init_params(TINY, np.random.default_rng(4), dtype=np.float64)
        n = 6
        cells, masks, tokens = ragged_views(rng, [n] * 5, np.float64)
        whole = agg.forward_bags(cells, params, TINY, masks, tokens).data
        # room for views_per_call views, and one float short of one more
        monkeypatch.setattr(agg, "MAX_CALL_FLOATS", (views_per_call + 1) * call_floats(n) - 1)
        calls = counting_forward(monkeypatch)
        split = agg.forward_bags(cells, params, TINY, masks, tokens).data
        assert len(calls) == n_calls and max(map(len, calls)) == views_per_call
        np.testing.assert_allclose(split, whole, rtol=1e-12, atol=1e-14)

    def test_budget_packs_sorted_views_greedily(self, rng, monkeypatch):
        params = agg.init_params(TINY, np.random.default_rng(8), dtype=np.float64)
        cells, masks, tokens = ragged_views(rng, LENGTHS, np.float64)
        whole = agg.forward_bags(cells, params, TINY, masks, tokens).data
        # exactly the four shortest views fit; 5, 5 and 7 together do not
        monkeypatch.setattr(agg, "MAX_CALL_FLOATS", sum(map(call_floats, (1, 3, 3, 5))))
        calls = counting_forward(monkeypatch)
        split = agg.forward_bags(cells, params, TINY, masks, tokens).data
        assert calls == [(1, 3, 3, 5), (5, 5), (7,)]
        np.testing.assert_allclose(split, whole, rtol=1e-12, atol=1e-14)

    def test_view_over_the_budget_runs_alone(self, tiny_params, rng, monkeypatch):
        monkeypatch.setattr(agg, "MAX_CALL_FLOATS", 1)
        calls = counting_forward(monkeypatch)
        cells, _, _ = ragged_views(rng, [4, 4])
        assert agg.forward_bags(cells, tiny_params, TINY).shape == (2, TINY.embed_dim)
        assert calls == [(4,), (4,)]

    def test_untaped_view_over_the_budget_runs_in_query_slices(self, tiny_params, rng, monkeypatch):
        n = 300
        cells = [rng.standard_normal((n, TINY.input_dim)).astype(np.float32)]
        tokens = [np.arange(0, n, 7)]
        with ndiff.Tape():
            taped = agg.forward_bags(cells, tiny_params, TINY, tokens=tokens).data
        # a quarter of one head's scores per slice
        monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", (n + 1) ** 2 // 4)
        tracemalloc.start()
        try:
            sliced = agg.forward_bags(cells, tiny_params, TINY, tokens=tokens).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TINY.heads * (n + 1) ** 2 * 4  # the whole f32 score tensor
        np.testing.assert_allclose(sliced, taped, rtol=1e-6, atol=1e-6)

    def test_no_views_refused(self, tiny_params):
        with pytest.raises(ValueError, match="no views were given"):
            agg.forward_bags([], tiny_params, TINY)

    def test_one_mask_and_token_array_per_view_required(self, tiny_params, rng):
        cells, masks, tokens = ragged_views(rng, [4, 5])
        with pytest.raises(ValueError, match="2 views, 1 masks and 2 token arrays"):
            agg.forward_bags(cells, tiny_params, TINY, masks[:1], tokens)

    def test_taped_gradients_match_per_bag_reference(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(6), dtype=np.float64)
        cells, masks, tokens = ragged_views(rng, LENGTHS, np.float64)
        probe = Tensor(rng.standard_normal(
            (len(LENGTHS) + sum(t.size for t in tokens), TINY.embed_dim)))
        outs, grads = [], []
        for run in (lambda: agg.forward_bags(cells, params, TINY, masks, tokens),
                    lambda: per_view_rows(cells, masks, tokens, params)):
            with ndiff.Tape() as tape:
                out = run()
                loss = ndiff.mean(ndiff.mul(out, probe))
            outs.append(out.data)
            grads.append(tape.backward(loss))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-14)
        for name, p in params.items():
            np.testing.assert_allclose(grads[0][p], grads[1][p], rtol=1e-9, atol=1e-13,
                                       err_msg=name)


class TestPackedForward:
    def test_packed_views_match_per_view_forward(self, rng):
        params = agg.init_params(TINY, np.random.default_rng(9), dtype=np.float64)
        cells, masks, tokens = ragged_views(rng, LENGTHS, np.float64)
        packed = agg.forward(np.concatenate(cells), masks, params, TINY, tokens, LENGTHS)
        separate = [agg.forward(c, m, params, TINY, t) for c, m, t in zip(cells, masks, tokens)]
        np.testing.assert_allclose(packed.data, np.concatenate([o.data for o in separate]),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lengths,mask,tokens,match", [
        ([3, 4], [[], []], None, "do not split 8 cell rows"),
        ([3, 0, 5], [[], [], []], None, "do not split 8 cell rows"),
        ([3, 5], [[0]], None, "mask does not give one 1-D position array per view of 2"),
        ([3, 5], [[0], [[1]]], None, "mask does not give one 1-D position array per view of 2"),
        ([3, 5], [[], []], [[0], [1], [2]], "tokens does not give one 1-D position array"),
        ([3, 5], [[3], [0]], None, "mask positions out of range for a 3-cell view"),
        ([3, 5], [[2], [4]], [[0], [5]], "tokens positions out of range for a 5-cell view"),
    ])
    def test_bad_packing_rejected(self, tiny_params, rng, lengths, mask, tokens, match):
        rows = rng.standard_normal((8, TINY.input_dim)).astype(np.float32)
        with pytest.raises(ValueError, match=match):
            agg.forward(rows, mask, tiny_params, TINY, tokens, lengths)


class TestSampleViews:
    def test_paper_scale_counts(self, rng):
        bag = agg.CellBag("p0", rng.standard_normal((500, 4)).astype(np.float32))
        views = agg.sample_views(bag, 2, 8, 0.3, rng)
        assert [v.kind for v in views] == ["global"] * 2 + ["local"] * 8
        assert all(len(v.indices) == 350 for v in views[:2])
        assert all(len(v.indices) == 100 for v in views[2:])

    def test_single_cell_bag_views(self, rng):
        bag = agg.CellBag("p0", rng.standard_normal((1, 4)).astype(np.float32))
        views = agg.sample_views(bag, 2, 8, 0.0, rng)
        assert all(len(v.indices) == 1 for v in views)

    def test_mask_ratio_zero(self, rng):
        bag = agg.CellBag("p0", rng.standard_normal((40, 4)).astype(np.float32))
        views = agg.sample_views(bag, 2, 4, 0.0, rng)
        assert all(v.mask.size == 0 for v in views)

    def test_mask_size_and_containment(self, rng):
        bag = agg.CellBag("p0", rng.standard_normal((50, 4)).astype(np.float32))
        views = agg.sample_views(bag, 2, 2, 0.3, rng)
        for v in views:
            # iBOT masks the global views only
            assert v.mask.size == (int(0.3 * len(v.indices)) if v.kind == "global" else 0)
            assert v.mask.size == len(set(v.mask.tolist()))
            assert all(0 <= m < len(v.indices) for m in v.mask)
            assert len(set(v.indices.tolist())) == len(v.indices)  # no replacement

    def test_seeded_reproducibility(self):
        cells = np.random.default_rng(0).standard_normal((64, 4)).astype(np.float32)
        bag = agg.CellBag("p0", cells)
        a = agg.sample_views(bag, 2, 8, 0.3, np.random.default_rng(42))
        b = agg.sample_views(bag, 2, 8, 0.3, np.random.default_rng(42))
        for va, vb in zip(a, b):
            assert np.array_equal(va.indices, vb.indices)
            assert np.array_equal(va.mask, vb.mask)

    def test_cap_bag(self, rng):
        bag = agg.CellBag("p0", rng.standard_normal((100, 4)).astype(np.float32))
        capped = agg.cap_bag(bag, 64, rng)
        assert capped.n_cells == 64
        small = agg.CellBag("p1", rng.standard_normal((10, 4)).astype(np.float32))
        assert agg.cap_bag(small, 64, rng) is small


class TestConfig:
    def test_mlp_dim_defaults_to_4x(self):
        cfg = agg.AggregatorConfig(embed_dim=32, heads=4, input_dim=8)
        assert cfg.mlp_dim == 128

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            agg.AggregatorConfig(depth=0, input_dim=8)

    @pytest.mark.parametrize("field", ["heads", "embed_dim", "input_dim"])
    def test_size_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
            agg.AggregatorConfig(**{"input_dim": 8, field: 0})

    def test_negative_mlp_dim_rejected(self):
        with pytest.raises(ValueError, match="^mlp_dim must be >= 0"):
            agg.AggregatorConfig(input_dim=8, mlp_dim=-5)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            agg.AggregatorConfig(embed_dim=30, heads=4, input_dim=8)

    def test_bag_validation(self):
        with pytest.raises(ValueError, match="non-finite"):
            agg.CellBag("p", np.array([[np.nan, 1.0]], dtype=np.float32))

import inspect
import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from genalign import ndiff
from genalign.ndiff import Tape, Tensor


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestForward:
    def test_layer_norm_constant_vector(self):
        x = t64(np.full((1, 8), 3.7))
        out = ndiff.layer_norm(x, t64(np.ones((1, 8))), t64(np.zeros((1, 8))))
        assert np.allclose(out.data, 0.0)

    def test_cross_entropy_one_hot_vs_uniform(self):
        ce = ndiff.cross_entropy(t64([[1.0, 0.0]]), t64(np.log([[0.5, 0.5]])))
        assert ce.data.shape == (1,)
        assert math.isclose(ce.data[0], math.log(2), rel_tol=1e-12)

    def test_l2_normalize_unit_norm(self, rng):
        x = t64(rng.standard_normal((10, 6)))
        out = ndiff.l2_normalize(x).data
        assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_l2_normalize_degenerate_raises(self):
        with pytest.raises(ndiff.NdiffError, match="degenerate"):
            ndiff.l2_normalize(t64(np.zeros((1, 4))))

    def test_bce_with_logits_zero_logits(self):
        out = ndiff.binary_cross_entropy_with_logits(
            t64(np.zeros((2, 3))), t64(np.ones((2, 3)))
        )
        assert np.allclose(out.data, math.log(2))

    def test_bce_saturated_logits(self):
        out = ndiff.binary_cross_entropy_with_logits(
            t64([[1e4]]), t64([[1.0]])
        )
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_far_logits_finite_with_closed_form_gradient(self, dtype):
        # exp(-x) overflows f32 below about -88.7 and f64 below about -709
        x = Tensor(np.array([[-200.0, 0.0, 200.0], [-800.0, 3.0, 800.0]], dtype), requires_grad=True)
        y = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], dtype))
        with Tape() as tape:
            loss = ndiff.binary_cross_entropy_with_logits(x, y)
            total = ndiff.mean(loss)
        grad = tape.backward(total)[x]
        sigmoid = [[0.0, 0.5, 1.0], [0.0, 1 / (1 + math.exp(-3.0)), 1.0]]
        assert loss.data.dtype == grad.dtype == dtype
        np.testing.assert_allclose(loss.data, [[200.0, math.log(2), 200.0],
                                               [0.0, math.log1p(math.exp(-3.0)), 0.0]], rtol=1e-6)
        np.testing.assert_allclose(grad, (np.array(sigmoid) - y.data) / 6, rtol=1e-6, atol=0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ndiff.NdiffError, match=r"\(2, 3\).*\(4, 2\)"):
            ndiff.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.zeros((2, 2), np.float32))
        b = Tensor(np.zeros((2, 2), np.float64))
        with pytest.raises(ndiff.NdiffError, match="dtype"):
            ndiff.add(a, b)


class TestBackward:
    def test_square_gradient(self):
        x = t64([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.mul(x, x))
        grads = tape.backward(loss)
        assert np.allclose(grads[x], [6.0])

    def test_cross_entropy_logsoftmax_gradient_is_softmax_minus_onehot(self, rng):
        z = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        one_hot = t64([[0.0, 0.0, 1.0, 0.0, 0.0]])
        with Tape() as tape:
            loss = ndiff.mean(ndiff.cross_entropy(one_hot, ndiff.log_softmax(z)))
        grads = tape.backward(loss)
        expected = np.exp(z.data - np.log(np.exp(z.data).sum())) - one_hot.data
        assert np.allclose(grads[z], expected, atol=1e-10)

    def test_loss_independent_of_input_gives_no_entry(self):
        x = t64([1.0, 2.0], requires_grad=True)
        y = t64([5.0], requires_grad=True)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.mul(y, y))
        grads = tape.backward(loss)
        assert x not in grads

    def test_chain_of_adds_accumulates_exactly_once(self):
        x = t64(np.ones(4), requires_grad=True)
        with Tape() as tape:
            acc = x
            for _ in range(9):
                acc = ndiff.add(acc, x)
            loss = ndiff.mean(acc)
        grads = tape.backward(loss)
        # mean of 10*x: d/dx_i = 10/4
        assert np.allclose(grads[x], 2.5)

    def test_shared_leaf_gradient_is_not_updated_in_place(self):
        """add passes its incoming gradient to both operands: v keeps that
        array while w's second contribution, from mul, makes a new sum."""
        w, v = t64(np.ones(4), requires_grad=True), t64(np.ones(4), requires_grad=True)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.add(ndiff.mul(w, t64(np.full(4, 3.0))), ndiff.add(w, v)))
        grads = tape.backward(loss)
        assert np.array_equal(grads[v], np.full(4, 0.25))
        assert np.array_equal(grads[w], np.full(4, 1.0))

    def test_repeated_backward_errors(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.mul(x, x))
        tape.backward(loss)
        assert tape._nodes == []  # each node is freed as the backward passes it
        with pytest.raises(ndiff.NdiffError, match="consumed"):
            tape.backward(loss)

    def test_non_scalar_loss_errors(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ndiff.mul(x, x)
        with pytest.raises(ndiff.NdiffError, match="scalar"):
            tape.backward(y)

    def test_detached_loss_errors(self):
        x = t64([1.0], requires_grad=True)
        with Tape() as tape:
            pass
        loss = ndiff.mean(ndiff.mul(x, x))  # built off-tape
        with pytest.raises(ndiff.NdiffError, match="not recorded"):
            tape.backward(loss)

    def test_no_tape_means_no_gradient_flow(self):
        x = t64([1.0], requires_grad=True)
        y = ndiff.mul(x, x)
        assert y.needs_grad is False  # stop-gradient path

    def test_dropped_intermediate_is_freed_while_taped(self):
        """add's backward reads two shapes, and the tape holds node ids, so
        an output the caller drops is freed before the backward runs."""
        x, b, c = (t64(np.full((3, 4), v), requires_grad=True) for v in (1.0, 2.0, 3.0))
        x_grads = []
        for drop in (False, True):
            with Tape() as tape:
                y = ndiff.add(x, b)
                z = ndiff.add(y, c)
                if drop:
                    alive = weakref.ref(y.data)
                    del y
                    assert alive() is None
                loss = ndiff.mean(ndiff.mul(z, z))
            x_grads.append(tape.backward(loss)[x])
        assert np.array_equal(x_grads[0], np.full((3, 4), 1.0))  # 2 * z / 12
        assert x_grads[1].tobytes() == x_grads[0].tobytes()

    def test_tensor_from_another_tape_routes_no_gradient_back(self):
        """y, recorded on a consumed tape, is an input of a new one: its
        gradient reaches no node of the old tape, so x gets none."""
        x, w = t64([1.0, 2.0], requires_grad=True), t64([3.0, 4.0], requires_grad=True)
        with Tape() as old:
            y = ndiff.mul(x, x)
            old_loss = ndiff.mean(y)
        old.backward(old_loss)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.mul(y, w))
        with pytest.raises(ndiff.NdiffError, match="not recorded"):
            tape.backward(old_loss)
        grads = tape.backward(loss)
        assert set(grads) == {w}
        assert np.array_equal(grads[w], y.data / 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["mul", "cross_entropy", "binary_cross_entropy_with_logits"])
    def test_constant_input_gets_no_gradient(self, rng, op, dtype):
        """The constant input's slot is None; the other input's gradient is
        the same bits as when both need one, and as the formula's."""
        a, c = (rng.standard_normal((3, 4)).astype(dtype) for _ in range(2))
        g = rng.standard_normal((3, 4) if op != "cross_entropy" else (3,)).astype(dtype)
        # (the constant's position, the other input's gradient as written out)
        const_at, formula = {
            "mul": (0, lambda: g * a),
            "cross_entropy": (0, lambda: -np.expand_dims(g, -1) * a),
            "binary_cross_entropy_with_logits": (1, lambda: g * (1.0 / (1.0 + np.exp(-c)) - a)),
        }[op]
        gins = []
        for const in (True, False):
            inputs = [Tensor(a), Tensor(c, requires_grad=True)]
            if op == "binary_cross_entropy_with_logits":
                inputs.reverse()  # logits c, targets a
            inputs[const_at].requires_grad = inputs[const_at].needs_grad = not const
            with Tape() as tape:
                getattr(ndiff, op)(*inputs)
            gins.append(tape._nodes[-1].backward(g))
        assert gins[0][const_at] is None and gins[1][const_at] is not None
        other = 1 - const_at
        assert gins[0][other].dtype == dtype
        assert gins[0][other].tobytes() == gins[1][other].tobytes()
        if op == "binary_cross_entropy_with_logits":  # the sigmoid is computed another way
            np.testing.assert_allclose(gins[0][other], formula(), rtol=1e-5 if dtype == np.float32 else 1e-12)
        else:
            assert gins[0][other].tobytes() == formula().tobytes()


PRIMITIVE_CASES = [
    ("matmul_left", (3, 4), lambda x: ndiff.mean(ndiff.matmul(x, Tensor(_W44))) ),
    ("matmul_right", (4, 3), lambda x: ndiff.mean(ndiff.matmul(Tensor(_W34), x))),
    ("add_broadcast", (1, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.add(Tensor(_A25), x), ndiff.add(Tensor(_A25), x)))),
    ("mul", (2, 5), lambda x: ndiff.mean(ndiff.mul(x, Tensor(_B25)))),
    ("scalar_mul", (3, 3), lambda x: ndiff.mean(ndiff.scalar_mul(x, -1.7))),
    ("transpose", (3, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.transpose(x), Tensor(_C53)))),
    ("log_softmax", (4, 6), lambda x: ndiff.mean(ndiff.mul(ndiff.log_softmax(x, axis=-1), Tensor(_H46)))),
    ("mlp", (5, 4), lambda x: ndiff.mean(ndiff.mul(ndiff.mlp(x, *map(Tensor, _MLP_PARAMS)), Tensor(_L53)))),
    ("l2_normalize", (4, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.l2_normalize(x), Tensor(_I45)))),
    ("layer_norm_x", (4, 6), lambda x: ndiff.mean(ndiff.mul(ndiff.layer_norm(x, Tensor(_GAMMA6), Tensor(_BETA6)), Tensor(_H46)))),
    ("layer_norm_gamma", (1, 6), lambda g: ndiff.mean(ndiff.mul(ndiff.layer_norm(Tensor(_X46), g, Tensor(_BETA6)), Tensor(_H46)))),
    ("layer_norm_beta", (1, 6), lambda b: ndiff.mean(ndiff.mul(ndiff.layer_norm(Tensor(_X46), Tensor(_GAMMA6), b), Tensor(_H46)))),
    ("cross_entropy_logq", (3, 4), lambda x: ndiff.mean(ndiff.cross_entropy(Tensor(_P34), ndiff.log_softmax(x)))),
    ("binary_cross_entropy_with_logits", (3, 4), lambda x: ndiff.mean(
        ndiff.binary_cross_entropy_with_logits(x, Tensor(_T34)))),
    # logits of a few hundred either way, where exp(-x) would overflow f32
    ("binary_cross_entropy_with_logits_far", (3, 4), lambda x: ndiff.mean(ndiff.binary_cross_entropy_with_logits(
        ndiff.scalar_mul(x, 100.0), Tensor(_T34)))),
    ("mean", (4, 4), lambda x: ndiff.mean(x)),
    ("multi_head_attention", (5, 6), lambda x: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(x, Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 2, seq_len=_SEQ5),
        Tensor(_M56)))),
    ("multi_head_attention_wq", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M56), w, Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 3, seq_len=_SEQ5),
        Tensor(_M56)))),
    ("multi_head_attention_wo", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M56), Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), w, 3, seq_len=_SEQ5),
        Tensor(_M56)))),
    # three sequences of 3 rows stacked; each row attends within its own sequence
    ("multi_head_attention_stacked", (9, 6), lambda x: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(x, Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 2, seq_len=_SEQ3),
        Tensor(_M96)))),
    ("multi_head_attention_stacked_wk", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M96), Tensor(_WQ66), w,
                                   Tensor(_WV66), Tensor(_WO66), 3, seq_len=_SEQ3),
        Tensor(_M96)))),
    # two query rows per sequence of 3; row 2 is queried twice, row 5 never
    ("multi_head_attention_queries", (9, 6), lambda x: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(x, Tensor(_WQ66), Tensor(_WK66), Tensor(_WV66),
                                   Tensor(_WO66), 2, seq_len=_SEQ3, queries=_Q6),
        Tensor(_M66)))),
    ("multi_head_attention_queries_wq", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M96), w, Tensor(_WK66), Tensor(_WV66),
                                   Tensor(_WO66), 3, seq_len=_SEQ3, queries=_Q6),
        Tensor(_M66)))),
    # rows 0 and 3 repeat, row 1 is never gathered
    ("gather_rows_repeated", (4, 3), lambda x: ndiff.mean(ndiff.mul(
        ndiff.gather_rows(x, [3, 0, 2, 0, 3, 3]), Tensor(_K63)))),
    # x is the middle of three parts; rows 0, 3 and 7 repeat, rows 1 and 6 are never gathered
    ("gather_rows_parts", (2, 4), lambda x: ndiff.mean(ndiff.mul(
        ndiff.gather_rows([Tensor(_E34), x, Tensor(_W34)], [7, 0, 3, 4, 0, 2, 7, 5, 3]), Tensor(_R94)))),
]

_fix = np.random.default_rng(99)
_W44 = _fix.standard_normal((4, 4))
_W34 = _fix.standard_normal((3, 4))
_A25 = _fix.standard_normal((2, 5))
_B25 = _fix.standard_normal((2, 5))
_C53 = _fix.standard_normal((5, 3))
_E34 = _fix.standard_normal((3, 4))
_H46 = _fix.standard_normal((4, 6))
_I45 = _fix.standard_normal((4, 5))
_P34 = np.abs(_fix.standard_normal((3, 4)))
_P34 /= _P34.sum(axis=-1, keepdims=True)
_T34 = (_fix.standard_normal((3, 4)) > 0).astype(np.float64)
_WQ66 = _fix.standard_normal((6, 6)) * 0.5
_WK66 = _fix.standard_normal((6, 6)) * 0.5
_WV66 = _fix.standard_normal((6, 6)) * 0.5
_WO66 = _fix.standard_normal((6, 6)) * 0.5
_M56 = _fix.standard_normal((5, 6))
_M96 = _fix.standard_normal((9, 6))
_K63 = _fix.standard_normal((6, 3))
_X46 = _fix.standard_normal((4, 6))
_GAMMA6 = 1.0 + 0.5 * _fix.standard_normal((1, 6))  # away from 1: g and g * gamma differ
_BETA6 = _fix.standard_normal((1, 6))
_M66 = _fix.standard_normal((6, 6))
_Q6 = np.array([2, 2, 4, 3, 8, 6])
_SEQ3 = np.array([3, 3, 3])
_SEQ5 = np.array([5])
_MLP_PARAMS = [_fix.standard_normal(s) for s in ((4, 6), (1, 6), (6, 5), (1, 5), (5, 3), (1, 3))]  # w1 ... b3
_L53 = _fix.standard_normal((5, 3))
_R94 = _fix.standard_normal((9, 4))


class TestRowOps:
    def test_stacked_attention_equals_separate_sequences(self, rng):
        b, n, d = 3, 4, 6
        x = t64(rng.standard_normal((b * n, d)), requires_grad=True)
        ws = [t64(rng.standard_normal((d, d)) * 0.5, requires_grad=True) for _ in range(4)]
        probe = t64(rng.standard_normal((b * n, d)))
        with Tape() as tape:
            stacked = ndiff.multi_head_attention(x, *ws, 2, seq_len=np.full(b, n))
            loss = ndiff.mean(ndiff.mul(stacked, probe))
        grads = tape.backward(loss)
        with Tape() as tape:
            parts = [ndiff.multi_head_attention(ndiff.gather_rows(x, np.arange(i * n, (i + 1) * n)), *ws, 2,
                                                seq_len=np.array([n])) for i in range(b)]
            loss_sep = ndiff.mean(ndiff.mul(ndiff.gather_rows(parts, np.arange(b * n)), probe))
        grads_sep = tape.backward(loss_sep)
        np.testing.assert_allclose(stacked.data, np.concatenate([p.data for p in parts]),
                                   rtol=1e-12, atol=1e-14)
        for t in [x, *ws]:
            np.testing.assert_allclose(grads[t], grads_sep[t], rtol=1e-10, atol=1e-14)

    def test_attention_queries_equal_full_rows(self, rng):
        b, n, d = 3, 5, 6
        x = t64(rng.standard_normal((b * n, d)), requires_grad=True)
        ws = [t64(rng.standard_normal((d, d)) * 0.5, requires_grad=True) for _ in range(4)]
        queries = np.array([4, 0, 6, 5, 14, 10])
        probe = t64(rng.standard_normal((queries.size, d)))
        with Tape() as tape:
            picked = ndiff.multi_head_attention(x, *ws, 2, seq_len=np.full(b, n), queries=queries)
            loss = ndiff.mean(ndiff.mul(picked, probe))
        grads = tape.backward(loss)
        with Tape() as tape:
            full = ndiff.gather_rows(ndiff.multi_head_attention(x, *ws, 2, seq_len=np.full(b, n)), queries)
            loss_full = ndiff.mean(ndiff.mul(full, probe))
        grads_full = tape.backward(loss_full)
        np.testing.assert_allclose(picked.data, full.data, rtol=1e-12, atol=1e-14)
        for t in [x, *ws]:
            np.testing.assert_allclose(grads[t], grads_full[t], rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("queries,match", [
        ([0, 1], "no query row"),
        ([], "1-D integer index"),
        ([[0], [4]], "1-D integer index"),
        ([0.0, 4.0], "1-D integer index"),
        ([4, 0], "outside its block's sequence"),
        ([0, 8], "outside its block's sequence"),
        ([-1, 4], "outside its block's sequence"),
    ])
    def test_attention_rejects_bad_queries(self, rng, queries, match):
        x = t64(rng.standard_normal((8, 4)))
        w = t64(np.eye(4))
        with pytest.raises(ndiff.NdiffError, match=match):
            ndiff.multi_head_attention(x, w, w, w, w, 2, seq_len=np.array([4, 4]), queries=np.array(queries))

    def test_gather_rows_repeated_index_sums_gradient(self):
        x = t64(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = ndiff.gather_rows(x, np.array([2, 0, 2]))
            loss = ndiff.mean(out)
        assert np.array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
        assert np.allclose(tape.backward(loss)[x], [[1 / 6] * 2, [0, 0], [2 / 6] * 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_over_parts_equals_concatenate_then_index(self, rng, dtype):
        parts = [Tensor(rng.standard_normal((n, 5)).astype(dtype), requires_grad=True) for n in (3, 1, 4)]
        idx = np.array([7, 0, 3, 2, 7, 3, 5, 0])  # rows 0, 3 and 7 of the three parts repeat
        probe = rng.standard_normal((idx.size, 5)).astype(dtype)
        _assert_same_bits(
            _run_taped(lambda *p: ndiff.gather_rows(p, idx), parts, probe),
            _run_taped(lambda *p: _reference_index_rows(_reference_concat_rows(p), idx), parts, probe),
            dtype)

    @pytest.mark.parametrize("idx", [[3], [-1], [0.0, 1.0], [[0, 1]]])
    def test_gather_rows_rejects_bad_index(self, idx):
        with pytest.raises(ndiff.NdiffError, match="gather_rows"):
            ndiff.gather_rows(t64(np.zeros((3, 2))), np.array(idx))

    @pytest.mark.parametrize("parts", [[], [np.zeros((3, 2)), np.zeros((2, 3))],
                                       [np.zeros((3, 2)), np.zeros((2, 2), np.float32)]],
                             ids=["none", "widths", "dtypes"])
    def test_gather_rows_rejects_parts_that_do_not_stack(self, parts):
        with pytest.raises(ndiff.NdiffError, match="gather_rows"):
            ndiff.gather_rows([Tensor(p) for p in parts], np.array([0]))


class TestGradCheck:
    def test_square_at_three(self):
        report = ndiff.grad_check(
            lambda x: ndiff.mean(ndiff.mul(x, x)), t64([3.0]), eps=1e-5
        )
        assert report.max_rel_err < 1e-8

    @pytest.mark.parametrize("name,shape,fn", PRIMITIVE_CASES,
                             ids=[c[0] for c in PRIMITIVE_CASES])
    def test_every_primitive_20_random_points(self, name, shape, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(20):
            x = t64(rng.standard_normal(shape))
            report = ndiff.grad_check(fn, x, eps=1e-5, tol=1e-4)
            assert report.passed, f"{name}: rel err {report.max_rel_err:.2e}"

    def test_requires_f64(self):
        x = Tensor(np.zeros(3, np.float32))
        with pytest.raises(ndiff.NdiffError, match="f64"):
            ndiff.grad_check(lambda v: ndiff.mean(v), x)

    def test_every_recording_primitive_has_a_case(self):
        """Each public ndiff function that records a tape node has a case
        above whose name starts with the function's name."""
        recording = [name for name, fn in vars(ndiff).items()
                     if inspect.isfunction(fn) and fn.__module__ == ndiff.__name__
                     and not name.startswith("_") and "_record(" in inspect.getsource(fn)]
        assert {"mlp", "gather_rows", "multi_head_attention"} <= set(recording)
        missing = [name for name in recording
                   if not any(case.startswith(name) for case, _, _ in PRIMITIVE_CASES)]
        assert not missing, f"no gradient check for {missing}"

    def test_no_recorded_node_holds_a_tensor(self):
        """Recorded, each case's nodes hold leaf Tensors as inputs and no
        Tensor in a backward's closure, directly, in a list or tuple, or in
        a function the backward closes over."""
        holders = []
        for name, shape, fn in PRIMITIVE_CASES:
            x = t64(np.ones(shape), requires_grad=True)
            with Tape() as tape:
                fn(x)
            assert tape._nodes, name
            for node in tape._nodes:
                if any(isinstance(s, Tensor) and not s.requires_grad for s in node.inputs):
                    holders.append((name, "inputs"))
                if _closure_tensors(node.backward):
                    holders.append((name, node.backward.__qualname__))
        assert not holders


def _closure_tensors(fn):
    """The Tensors ``fn``'s closure holds, directly, inside a list or tuple,
    or in the closure of a function it holds."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif inspect.isfunction(obj):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
    return found


# The formulas the fused kernels replaced, kept verbatim as test-local
# primitives: a kernel rewrite must reproduce them bit for bit, so a change
# that reorders the arithmetic fails here before it changes a seeded run.
# Attention and layer norm are the exceptions: attention normalises after the
# value product and shifts each block by one max, and both take their row
# sums as matrix products, so each must be as accurate as its reference
# instead.

def _reference_layer_norm(a, gamma, beta, axis=-1, eps=1e-5):
    x = a.data
    mu = x.mean(axis=axis, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def backward(g):
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=axis, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
        )
        return dx, ndiff._unbroadcast(g * xhat, gamma.shape), ndiff._unbroadcast(g, beta.shape)

    return ndiff._record(out, (a, gamma, beta), backward)


def _reference_gelu(a):
    x = a.data
    x2 = x * x
    t = np.tanh(ndiff._GELU_C * x * (1.0 + 0.044715 * x2))
    out = Tensor(0.5 * x * (1.0 + t))

    def backward(g):
        dinner = ndiff._GELU_C * (1.0 + 0.134145 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return ndiff._record(out, (a,), backward)


def _reference_mlp(x, *layers):
    """``x @ w + b`` per layer as ``matmul`` and ``add`` nodes, with a
    ``_reference_gelu`` node between layers."""
    for i in range(0, len(layers), 2):
        if i:
            x = _reference_gelu(x)
        x = ndiff.add(ndiff.matmul(x, layers[i]), layers[i + 1])
    return x


def _reference_concat_rows(parts):
    out = Tensor(np.concatenate([p.data for p in parts]))
    ends = np.cumsum([p.shape[0] for p in parts])[:-1]
    return ndiff._record(out, parts, lambda g: tuple(np.split(g, ends)))


def _reference_index_rows(a, idx):
    out = Tensor(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return ndiff._record(out, (a,), backward)


def _reference_attention(x, wq, wk, wv, wo, n_heads, seq_len=None):
    rows, d = x.shape
    n = rows if seq_len is None else seq_len
    b, dh = rows // n, d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(m):
        return m.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    q, k, v = (split(x.data @ w.data) for w in (wq, wk, wv))
    scores = q @ k.swapaxes(-1, -2) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = merge(attn @ v)
    out = Tensor(merged @ wo.data)

    def backward(g):
        d_heads = split(g @ wo.data.T)
        d_attn = d_heads @ v.swapaxes(-1, -2)
        d_v = attn.swapaxes(-1, -2) @ d_heads
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= scale
        dq, dk, dv = merge(d_scores @ k), merge(d_scores.swapaxes(-1, -2) @ q), merge(d_v)
        d_x = dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T
        return d_x, x.data.T @ dq, x.data.T @ dk, x.data.T @ dv, merged.T @ g

    return ndiff._record(out, (x, wq, wk, wv, wo), backward)


def _run_taped(fn, leaves, probe):
    """Output and leaf gradients of ``mean(fn(*leaves) * probe)``."""
    with Tape() as tape:
        out = fn(*leaves)
        loss = ndiff.mean(ndiff.mul(out, Tensor(probe)))
    grads = tape.backward(loss)
    return [out.data] + [grads[t] for t in leaves]


def _assert_same_bits(got, want, dtype=np.float32):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype == dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), f"array {i} differs in {np.sum(g != w)} entries"


def _f32_leaves(rng, *shapes, scale=1.0):
    return [Tensor((rng.standard_normal(s) * scale).astype(np.float32), requires_grad=True)
            for s in shapes]


_MLP_INPUTS = ("x", "w1", "b1", "w2", "b2", "w3", "b3")


def _mlp_leaves(rng, rows, dtype, widths=(5, 12, 9, 4)):
    """x and each layer's weight and bias for the layer widths ``widths``,
    standard normal, so some pre-activations reach GELU's flat tail."""
    shapes = [(rows, widths[0])]
    for n_in, n_out in zip(widths, widths[1:]):
        shapes += [(n_in, n_out), (1, n_out)]
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


class TestMlp:
    @pytest.mark.parametrize("k", range(7), ids=_MLP_INPUTS)
    def test_grad_check_every_input_over_row_tiles(self, rng, monkeypatch, k):
        monkeypatch.setattr(ndiff, "MLP_TILE_ROWS", 3)
        leaves = [t.data for t in _mlp_leaves(rng, 7, np.float64)]  # tiles of 3, 3 and 1 rows
        probe = Tensor(rng.standard_normal((7, 4)))

        def f(v):
            args = [Tensor(a) for a in leaves]
            args[k] = v
            return ndiff.mean(ndiff.mul(ndiff.mlp(*args), probe))

        report = ndiff.grad_check(f, t64(leaves[k]), eps=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("widths", [(5, 12, 4), (5, 12, 9, 4)], ids=["two_layers", "three_layers"])
    @pytest.mark.parametrize("tile", [3, ndiff.MLP_TILE_ROWS])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_matmul_add_gelu_chain_bit_for_bit(self, rng, monkeypatch, tile, dtype, widths):
        """Output and every gradient, taped, and the untaped output."""
        monkeypatch.setattr(ndiff, "MLP_TILE_ROWS", tile)
        for rows in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            leaves = _mlp_leaves(rng, rows, dtype, widths)
            probe = rng.standard_normal((rows, 4)).astype(dtype)
            taped = _run_taped(ndiff.mlp, leaves, probe)
            _assert_same_bits(taped, _run_taped(_reference_mlp, leaves, probe), dtype)
            _assert_same_bits([ndiff.mlp(*leaves).data], taped[:1], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_input_gets_no_gradient(self, rng, dtype):
        """The weight and bias gradients are the same bits whether or not x
        needs a gradient; a constant x gets None from the node."""
        leaves = _mlp_leaves(rng, 7, dtype)
        const = [Tensor(leaves[0].data)] + leaves[1:]
        probe = Tensor(rng.standard_normal((7, 4)).astype(dtype))
        grads = []
        for inputs in (leaves, const):
            with Tape() as tape:
                loss = ndiff.mean(ndiff.mul(ndiff.mlp(*inputs), probe))
            grads.append(tape.backward(loss))
        assert const[0] not in grads[1]
        _assert_same_bits([grads[1][t] for t in leaves[1:]], [grads[0][t] for t in leaves[1:]], dtype)
        with Tape() as tape:
            out = ndiff.mlp(*const)
        gins = tape._nodes[-1].backward(np.ones_like(out.data))
        assert gins[0] is None and all(g is not None for g in gins[1:])

    @pytest.mark.parametrize("k", range(1, 7), ids=_MLP_INPUTS[1:])
    def test_dtype_mismatch_names_the_input(self, rng, k):
        leaves = _mlp_leaves(rng, 3, np.float32)
        leaves[k] = Tensor(leaves[k].data.astype(np.float64))
        with pytest.raises(ndiff.NdiffError, match=f"mlp/{_MLP_INPUTS[k]}: dtype mismatch"):
            ndiff.mlp(*leaves)

    @pytest.mark.parametrize("drop,swap,match", [
        (slice(3, 7), None, "at least two layers, got 2 tensors"),
        (slice(6, 7), None, "at least two layers, got 5 tensors"),
        (slice(0, 0), (3, 5), r"incompatible shapes \(3, 5\) @ \(5, 12\) @ \(9, 4\) @ \(12, 9\)"),
        (slice(0, 0), (4, 6), r"b2 shape \(1, 4\) is not \(1, 9\)"),
    ], ids=["one_layer", "odd_count", "widths", "bias"])
    def test_rejects_malformed_layers(self, rng, drop, swap, match):
        leaves = _mlp_leaves(rng, 3, np.float32)
        del leaves[drop]
        if swap:
            i, j = swap
            leaves[i], leaves[j] = leaves[j], leaves[i]
        with pytest.raises(ndiff.NdiffError, match=f"^mlp: .*{match}"):
            ndiff.mlp(*leaves)


def _rel_l2_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _assert_as_accurate(got, ref32, ref64):
    """Each f32 array lies within twice the f32 reference's own error of the
    f64 reference.  The error is the relative l2 one: the largest entry's
    error of two equally accurate f32 computations differs by over 2x in
    about one draw in ten."""
    assert len(got) == len(ref32) == len(ref64)
    for i, (g, r32, r64) in enumerate(zip(got, ref32, ref64)):
        assert g.dtype == np.float32 and g.shape == r64.shape, i
        assert _rel_l2_err(g, r64) <= 2 * _rel_l2_err(r32, r64), i


class TestLayerNormAccuracy:
    def test_layer_norm_as_accurate_as_reference(self, rng):
        x, gamma, beta = _f32_leaves(rng, (37, 150), (1, 150), (1, 150))
        x.data += 2.0  # a mean away from 0, so the centring rounds
        probe = rng.standard_normal((37, 150))
        leaves = [x, gamma, beta]
        _assert_as_accurate(
            _run_taped(ndiff.layer_norm, leaves, probe.astype(np.float32)),
            _run_taped(_reference_layer_norm, leaves, probe.astype(np.float32)),
            _run_taped(_reference_layer_norm, [t64(t.data, requires_grad=True) for t in leaves], probe),
        )


def _reference_packed_attention(n_heads, seq_len, queries):
    """``_reference_attention`` on each sequence, then the query rows."""
    def reference(x, *ws):
        if np.ptp(seq_len) == 0:  # one batched block
            outs = [_reference_attention(x, *ws, n_heads, seq_len[0])]
        else:
            starts = np.cumsum(seq_len) - seq_len
            outs = [_reference_attention(ndiff.gather_rows(x, np.arange(s, s + n)), *ws, n_heads)
                    for s, n in zip(starts, seq_len)]
        return ndiff.gather_rows(outs, np.arange(x.shape[0]) if queries is None else queries)

    return reference


class TestAttentionAccuracy:
    @pytest.mark.parametrize("rows,seq_len,queries", [
        (33, np.array([33]), None),
        (3 * 17, np.full(3, 17), None),
        # every row once, rows 3 and 45 twice; the 17-row sequences share a run
        (48, np.array([9, 17, 17, 5]), np.r_[0:9, 3, 9:48, 45]),
        # pretraining's local views: 11-14 rows, shorter than a head's width
        (124, np.array([11, 11, 12, 12, 12, 13, 13, 13, 13, 14]), None),
    ], ids=["one", "stacked", "packed", "packed_short"])
    def test_attention_as_accurate_as_reference(self, rng, rows, seq_len, queries):
        """Output and every gradient of the f32 kernel are as accurate as
        the f32 reference (``_assert_as_accurate``)."""
        leaves = _f32_leaves(rng, (rows, 24), *[(24, 24)] * 4, scale=0.5)
        probe = rng.standard_normal((rows if queries is None else queries.size, 24))
        reference = _reference_packed_attention(4, seq_len, queries)
        _assert_as_accurate(
            _run_taped(lambda *a: ndiff.multi_head_attention(*a, 4, seq_len, queries), leaves,
                       probe.astype(np.float32)),
            _run_taped(reference, leaves, probe.astype(np.float32)),
            _run_taped(reference, [t64(t.data, requires_grad=True) for t in leaves], probe),
        )


    @pytest.mark.parametrize("seq_len,queries", [
        (np.full(3, 17), None),
        (np.array([9, 17, 17, 5]), np.r_[0:9, 3, 9:48, 45]),
    ], ids=["stacked", "packed"])
    def test_budget_slices_only_untaped_calls(self, rng, monkeypatch, seq_len, queries):
        """Under a budget below every sequence's score count, a taped call
        still takes each run as one slice: its output and every gradient
        keep their bits.  An untaped call slices and stays as accurate."""
        rows = int(seq_len.sum())
        leaves = _f32_leaves(rng, (rows, 24), *[(24, 24)] * 4, scale=0.5)
        probe = rng.standard_normal((rows if queries is None else queries.size, 24))

        def attention(*a):
            return ndiff.multi_head_attention(*a, 4, seq_len, queries)

        unpatched = _run_taped(attention, leaves, probe.astype(np.float32))
        owner = (np.repeat(np.arange(seq_len.size), seq_len) if queries is None
                 else np.searchsorted(np.cumsum(seq_len), queries, side="right"))
        budget = 3 * 4 * 5  # three query rows of a 5-row sequence in four heads
        assert budget < (4 * seq_len * np.bincount(owner)).min()
        monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", budget)
        _assert_same_bits(_run_taped(attention, leaves, probe.astype(np.float32)), unpatched)
        reference = _reference_packed_attention(4, seq_len, queries)
        _assert_as_accurate(
            [attention(*leaves).data],
            _run_taped(reference, leaves, probe.astype(np.float32))[:1],
            _run_taped(reference, [t64(t.data, requires_grad=True) for t in leaves], probe)[:1],
        )


def _guarded_leaves(rng, lengths, d, n_heads, spike, dtype):
    """x, Wq, Wk, Wv, Wo where the first two rows of each sequence score
    about ``spike**2 / sqrt(dh)`` against each other in every head, and every
    other row scores a few units at most against every row.  Shifted by its
    block's max, every other row's exp underflows; only the softmax's
    underflow guard, which shifts such a row by its own max, keeps its sum
    above 0.  Two spiking rows keep their own softmax rows from being one-hot."""
    dh = d // n_heads
    x = rng.standard_normal((lengths.sum(), d))
    x[:, ::dh] = 0.0  # the first dimension of every head
    firsts = np.cumsum(lengths) - lengths
    x[np.r_[firsts, firsts + 1], ::dh] = spike
    wq, wk = (np.eye(d) + 0.01 * rng.standard_normal((d, d)) for _ in range(2))
    wv, wo = (0.5 * rng.standard_normal((d, d)) for _ in range(2))
    return [Tensor(m.astype(dtype), requires_grad=True) for m in (x, wq, wk, wv, wo)]


def _score_gaps(x, wq, wk, lengths, n_heads):
    """Per row and head, how far the row's max score lies below its
    sequence's max score in that head (f64)."""
    dh = x.shape[1] // n_heads
    gaps = []
    for s, n in zip(np.cumsum(lengths) - lengths, lengths):
        q = (x[s : s + n] @ wq).reshape(n, n_heads, dh).transpose(1, 0, 2)
        k = (x[s : s + n] @ wk).reshape(n, n_heads, dh).transpose(1, 0, 2)
        row_max = (q @ k.swapaxes(-1, -2)).max(axis=-1) / math.sqrt(dh)
        gaps.append(row_max.max(axis=-1, keepdims=True) - row_max)
    return np.concatenate(gaps, axis=1)


GUARD_LENGTHS = np.array([9, 9, 6])


class TestAttentionUnderflowGuard:
    def test_guarded_rows_as_accurate_as_reference(self, rng, monkeypatch):
        leaves = _guarded_leaves(rng, GUARD_LENGTHS, 24, 4, spike=33.0, dtype=np.float32)
        x, wq, wk = (t.data.astype(np.float64) for t in leaves[:3])
        gaps = _score_gaps(x, wq, wk, GUARD_LENGTHS, 4)
        # every row but the spiking ones lies over 400 below its block's max:
        # exp(-104) is below f32's smallest subnormal
        assert (np.sort(gaps, axis=1)[:, 2 * GUARD_LENGTHS.size:] > 400).all()
        probe = rng.standard_normal((GUARD_LENGTHS.sum(), 24))
        reference = _reference_packed_attention(4, GUARD_LENGTHS, None)
        ref32 = _run_taped(reference, leaves, probe.astype(np.float32))
        ref64 = _run_taped(reference, [t64(t.data, requires_grad=True) for t in leaves], probe)
        _assert_as_accurate(
            _run_taped(lambda *a: ndiff.multi_head_attention(*a, 4, GUARD_LENGTHS), leaves,
                       probe.astype(np.float32)),
            ref32, ref64)
        # untaped: one slice per run, then slices of 3 or 4 query rows of one
        # sequence (each sequence's first slice holds its spiking rows)
        for budget in (ndiff.MAX_CALL_FLOATS, 3 * 4 * 9):
            monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", budget)
            sliced = ndiff.multi_head_attention(*leaves, 4, GUARD_LENGTHS)
            _assert_as_accurate([sliced.data], ref32[:1], ref64[:1])

    @pytest.mark.parametrize("k", range(5), ids=["x", "wq", "wk", "wv", "wo"])
    def test_grad_check_through_guarded_rows(self, k):
        # gaps over 745: without the guard even f64's exp underflows to 0
        rng = np.random.default_rng(7 + k)
        lengths = np.array([4, 3])
        leaves = _guarded_leaves(rng, lengths, 6, 2, spike=40.0, dtype=np.float64)
        gaps = _score_gaps(*(t.data for t in leaves[:3]), lengths, 2)
        assert (np.sort(gaps, axis=1)[:, 2 * lengths.size:] > 745).all()
        probe = Tensor(rng.standard_normal((lengths.sum(), 6)))

        def f(leaf):
            args = leaves[:k] + [leaf] + leaves[k + 1:]
            return ndiff.mean(ndiff.mul(ndiff.multi_head_attention(*args, 2, lengths), probe))

        report = ndiff.grad_check(f, t64(leaves[k].data), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


def _overflow_leaves(rng, lengths, d, n_heads, spike, dtype):
    """``_guarded_leaves`` with every row spiking: every score is about
    ``spike**2 / sqrt(dh)``, give or take a few units."""
    leaves = _guarded_leaves(rng, lengths, d, n_heads, spike, dtype)
    leaves[0].data[:, :: d // n_heads] = spike
    return leaves


def _raw_log_sum_exps(x, wq, wk, lengths, n_heads):
    """Per head and row, the log of the unshifted softmax row sum, and the
    largest score (f64)."""
    dh = x.shape[1] // n_heads
    lse, top = [], []
    for s, n in zip(np.cumsum(lengths) - lengths, lengths):
        q = (x[s : s + n] @ wq).reshape(n, n_heads, dh).transpose(1, 0, 2)
        k = (x[s : s + n] @ wk).reshape(n, n_heads, dh).transpose(1, 0, 2)
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(dh)
        row_max = scores.max(axis=-1)
        lse.append(row_max + np.log(np.exp(scores - row_max[..., None]).sum(axis=-1)))
        top.append(row_max.max())
    return np.concatenate(lse, axis=1), max(top)


BAND_LOG = -math.log(ndiff.SOFTMAX_SUM_FLOOR)  # row sums above e**BAND_LOG fall back
F32_EXP_MAX = math.log(np.finfo(np.float32).max)  # exp overflows f32 above this


class TestAttentionOverflowGuard:
    def test_overflowing_rows_as_accurate_as_reference(self, rng, monkeypatch):
        leaves = _overflow_leaves(rng, GUARD_LENGTHS, 24, 4, spike=16.0, dtype=np.float32)
        lse, top = _raw_log_sum_exps(*(t.data.astype(np.float64) for t in leaves[:3]), GUARD_LENGTHS, 4)
        # every unshifted row sum lies above the band, and the largest
        # scores overflow f32's exp: only the fallback's shift keeps the
        # output finite
        assert (lse > BAND_LOG).all() and top > F32_EXP_MAX
        probe = rng.standard_normal((GUARD_LENGTHS.sum(), 24))
        reference = _reference_packed_attention(4, GUARD_LENGTHS, None)
        ref32 = _run_taped(reference, leaves, probe.astype(np.float32))
        ref64 = _run_taped(reference, [t64(t.data, requires_grad=True) for t in leaves], probe)
        _assert_as_accurate(
            _run_taped(lambda *a: ndiff.multi_head_attention(*a, 4, GUARD_LENGTHS), leaves,
                       probe.astype(np.float32)),
            ref32, ref64)
        # untaped: one slice per run, then slices of 3 query rows of one sequence
        for budget in (ndiff.MAX_CALL_FLOATS, 3 * 4 * 9):
            monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", budget)
            sliced = ndiff.multi_head_attention(*leaves, 4, GUARD_LENGTHS)
            _assert_as_accurate([sliced.data], ref32[:1], ref64[:1])

    @pytest.mark.parametrize("k", range(5), ids=["x", "wq", "wk", "wv", "wo"])
    def test_grad_check_through_overflowing_rows(self, k):
        # f64's exp would not overflow here, but every row sum leaves the
        # band, so the gradients run through the fallback's block
        rng = np.random.default_rng(11 + k)
        lengths = np.array([4, 3])
        leaves = _overflow_leaves(rng, lengths, 6, 2, spike=10.0, dtype=np.float64)
        lse, _ = _raw_log_sum_exps(*(t.data for t in leaves[:3]), lengths, 2)
        assert (lse > BAND_LOG).all()
        probe = Tensor(rng.standard_normal((lengths.sum(), 6)))

        def f(leaf):
            args = leaves[:k] + [leaf] + leaves[k + 1:]
            return ndiff.mean(ndiff.mul(ndiff.multi_head_attention(*args, 2, lengths), probe))

        report = ndiff.grad_check(f, t64(leaves[k].data), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("make_leaves,spike", [(_guarded_leaves, 33.0), (_overflow_leaves, 16.0)],
                             ids=["underflow", "overflow"])
    def test_untaped_fallback_stays_inside_its_slice(self, rng, monkeypatch, make_leaves, spike):
        """Rows that fall back hold no more than their slice: the call
        peaks below its whole score tensor.  With the spike in every row,
        every slice falls back; with it in two rows of the sequence, every
        other row lies far below the spiking rows' scores."""
        n, heads = 300, 4
        lengths = np.array([n])
        leaves = make_leaves(rng, lengths, 24, heads, spike, np.float32)
        whole = heads * n**2 * 4  # the f32 score tensor
        monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", n**2)  # one head's scores per slice
        tracemalloc.start()
        try:
            sliced = ndiff.multi_head_attention(*leaves, heads, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole
        reference = _reference_packed_attention(heads, lengths, None)
        x64 = [t64(t.data) for t in leaves]
        want = reference(*x64).data
        assert np.isfinite(sliced.data).all()
        np.testing.assert_allclose(sliced.data, want, rtol=1e-3, atol=1e-3 * np.abs(want).max())


# three distinct lengths; the two 2-row sequences take different query
# counts, so they run as separate score blocks; rows 7 and 10 repeat
PACKED_LENGTHS = np.array([3, 2, 2, 4])
PACKED_QUERIES = np.array([2, 0, 4, 5, 6, 10, 7, 10])


def _packed_leaves(rng):
    return [t64(rng.standard_normal((PACKED_LENGTHS.sum(), 6)))] + [
        t64(rng.standard_normal((6, 6)) * 0.5) for _ in range(4)]


class TestPackedAttention:
    @pytest.mark.parametrize("queries", [None, PACKED_QUERIES], ids=["all_rows", "queries"])
    @pytest.mark.parametrize("k", range(5), ids=["x", "wq", "wk", "wv", "wo"])
    def test_grad_check_every_input(self, k, queries):
        rng = np.random.default_rng(31 + k)
        leaves = _packed_leaves(rng)
        probe = Tensor(rng.standard_normal((
            PACKED_LENGTHS.sum() if queries is None else queries.size, 6)))

        def f(leaf):
            args = leaves[:k] + [leaf] + leaves[k + 1:]
            return ndiff.mean(ndiff.mul(ndiff.multi_head_attention(
                *args, 2, seq_len=PACKED_LENGTHS, queries=queries), probe))

        for _ in range(3):
            leaves[k] = t64(rng.standard_normal(leaves[k].shape) * (1.0 if k == 0 else 0.5))
            report = ndiff.grad_check(f, leaves[k], eps=1e-5, tol=1e-4)
            assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("queries", [None, PACKED_QUERIES], ids=["all_rows", "queries"])
    def test_equals_reference_on_each_sequence_alone(self, rng, queries):
        leaves = [Tensor(t.data, requires_grad=True) for t in _packed_leaves(rng)]
        x, ws = leaves[0], leaves[1:]
        rows = PACKED_LENGTHS.sum() if queries is None else queries.size
        probe = t64(rng.standard_normal((rows, 6)))
        with Tape() as tape:
            packed = ndiff.multi_head_attention(x, *ws, 2, seq_len=PACKED_LENGTHS, queries=queries)
            loss = ndiff.mean(ndiff.mul(packed, probe))
        grads = tape.backward(loss)
        starts = np.cumsum(PACKED_LENGTHS) - PACKED_LENGTHS
        with Tape() as tape:
            alone = ndiff.gather_rows(
                [_reference_attention(ndiff.gather_rows(x, np.arange(s, s + n)), *ws, 2)
                 for s, n in zip(starts, PACKED_LENGTHS)],
                np.arange(PACKED_LENGTHS.sum()) if queries is None else queries)
            loss_alone = ndiff.mean(ndiff.mul(alone, probe))
        grads_alone = tape.backward(loss_alone)
        assert packed.shape == (rows, 6)
        np.testing.assert_allclose(packed.data, alone.data, rtol=1e-12, atol=1e-14)
        for t in leaves:
            np.testing.assert_allclose(grads[t], grads_alone[t], rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("budget", [1, 8])
    @pytest.mark.parametrize("queries", [None, PACKED_QUERIES], ids=["all_rows", "queries"])
    def test_untaped_query_slices_equal_the_taped_block(self, rng, monkeypatch, queries, budget):
        x, *ws = [Tensor(t.data.astype(np.float32), requires_grad=True) for t in _packed_leaves(rng)]
        monkeypatch.setattr(ndiff, "MAX_CALL_FLOATS", budget)
        blocks, softmax_values = [], ndiff._softmax_values

        def recording(q, k, v):
            blocks.append((q.shape, k.shape[2]))
            return softmax_values(q, k, v)

        monkeypatch.setattr(ndiff, "_softmax_values", recording)
        with Tape():
            taped = ndiff.multi_head_attention(x, *ws, 2, seq_len=PACKED_LENGTHS, queries=queries)
        runs = len(blocks)
        sliced = ndiff.multi_head_attention(x, *ws, 2, seq_len=PACKED_LENGTHS, queries=queries)
        # the tape keeps one block per run; without it every slice holds at
        # most `budget` scores, or one query row of one sequence
        assert runs == (3 if queries is None else 4) < len(blocks) - runs
        for (seqs, heads, t, _), n in blocks[runs:]:
            assert seqs * heads * t * n <= budget or seqs == t == 1
        np.testing.assert_allclose(sliced.data, taped.data, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("lengths", [[3, 2, 2, 3], [3, 2, 0, 6], [[3, 2], [2, 4]], [11.0]])
    def test_lengths_must_split_the_rows(self, rng, lengths):
        x = t64(rng.standard_normal((11, 4)))
        w = t64(np.eye(4))
        with pytest.raises(ndiff.NdiffError, match="do not split 11 rows"):
            ndiff.multi_head_attention(x, w, w, w, w, 2, seq_len=np.array(lengths))

import math
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
        out = ndiff.l2_normalize(x, axis=-1).data
        assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_l2_normalize_degenerate_raises(self):
        with pytest.raises(ndiff.NdiffError, match="degenerate"):
            ndiff.l2_normalize(t64(np.zeros((1, 4))), eps=1e-12)

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

    def test_repeated_backward_errors(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ndiff.mean(ndiff.mul(x, x))
        tape.backward(loss)
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


PRIMITIVE_CASES = [
    ("matmul_left", (3, 4), lambda x: ndiff.mean(ndiff.matmul(x, Tensor(_W44))) ),
    ("matmul_right", (4, 3), lambda x: ndiff.mean(ndiff.matmul(Tensor(_W34), x))),
    ("add_broadcast", (1, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.add(Tensor(_A25), x), ndiff.add(Tensor(_A25), x)))),
    ("mul", (2, 5), lambda x: ndiff.mean(ndiff.mul(x, Tensor(_B25)))),
    ("scalar_mul", (3, 3), lambda x: ndiff.mean(ndiff.scalar_mul(x, -1.7))),
    ("transpose", (3, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.transpose(x), Tensor(_C53)))),
    ("concat_rows", (2, 4), lambda x: ndiff.mean(ndiff.mul(ndiff.concat_rows([x, Tensor(_E34)]), Tensor(_F54)))),
    ("slice_rows", (5, 3), lambda x: ndiff.mean(ndiff.mul(ndiff.slice_rows(x, 1, 4), Tensor(_G33)))),
    ("log_softmax", (4, 6), lambda x: ndiff.mean(ndiff.mul(ndiff.log_softmax(x, axis=-1), Tensor(_H46)))),
    ("gelu", (3, 4), lambda x: ndiff.mean(ndiff.gelu(x))),
    ("l2_normalize", (4, 5), lambda x: ndiff.mean(ndiff.mul(ndiff.l2_normalize(x, axis=-1), Tensor(_I45)))),
    ("layer_norm_x", (4, 6), lambda x: ndiff.mean(ndiff.mul(ndiff.layer_norm(x, Tensor(_GAMMA6), Tensor(_BETA6)), Tensor(_H46)))),
    ("layer_norm_gamma", (1, 6), lambda g: ndiff.mean(ndiff.mul(ndiff.layer_norm(Tensor(_X46), g, Tensor(_BETA6)), Tensor(_H46)))),
    ("layer_norm_beta", (1, 6), lambda b: ndiff.mean(ndiff.mul(ndiff.layer_norm(Tensor(_X46), Tensor(_GAMMA6), b), Tensor(_H46)))),
    ("linear_x", (3, 4), lambda x: ndiff.mean(ndiff.mul(ndiff.linear(x, Tensor(_W45), Tensor(_B15)), Tensor(_L35)))),
    ("linear_w", (4, 5), lambda w: ndiff.mean(ndiff.mul(ndiff.linear(Tensor(_E34), w, Tensor(_B15)), Tensor(_L35)))),
    ("linear_b", (1, 5), lambda b: ndiff.mean(ndiff.mul(ndiff.linear(Tensor(_E34), Tensor(_W45), b), Tensor(_L35)))),
    ("cross_entropy_logq", (3, 4), lambda x: ndiff.mean(ndiff.cross_entropy(Tensor(_P34), ndiff.log_softmax(x)))),
    ("bce_logits", (3, 4), lambda x: ndiff.mean(ndiff.binary_cross_entropy_with_logits(x, Tensor(_T34)))),
    ("mean", (4, 4), lambda x: ndiff.mean(x)),
    ("multi_head_attention", (5, 6), lambda x: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(x, Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 2),
        Tensor(_M56)))),
    ("multi_head_attention_wq", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M56), w, Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 3),
        Tensor(_M56)))),
    ("multi_head_attention_wo", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M56), Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), w, 3),
        Tensor(_M56)))),
    # three sequences of 3 rows stacked; each row attends within its own sequence
    ("multi_head_attention_stacked", (9, 6), lambda x: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(x, Tensor(_WQ66), Tensor(_WK66),
                                   Tensor(_WV66), Tensor(_WO66), 2, seq_len=3),
        Tensor(_M96)))),
    ("multi_head_attention_stacked_wk", (6, 6), lambda w: ndiff.mean(ndiff.mul(
        ndiff.multi_head_attention(Tensor(_M96), Tensor(_WQ66), w,
                                   Tensor(_WV66), Tensor(_WO66), 3, seq_len=3),
        Tensor(_M96)))),
    # rows 0 and 3 repeat, row 1 is never gathered
    ("gather_rows_repeated", (4, 3), lambda x: ndiff.mean(ndiff.mul(
        ndiff.gather_rows(x, [3, 0, 2, 0, 3, 3]), Tensor(_K63)))),
]

_fix = np.random.default_rng(99)
_W44 = _fix.standard_normal((4, 4))
_W34 = _fix.standard_normal((3, 4))
_A25 = _fix.standard_normal((2, 5))
_B25 = _fix.standard_normal((2, 5))
_C53 = _fix.standard_normal((5, 3))
_E34 = _fix.standard_normal((3, 4))
_F54 = _fix.standard_normal((5, 4))
_G33 = _fix.standard_normal((3, 3))
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
_W45 = _fix.standard_normal((4, 5))
_B15 = _fix.standard_normal((1, 5))
_L35 = _fix.standard_normal((3, 5))
_X46 = _fix.standard_normal((4, 6))
_GAMMA6 = 1.0 + 0.5 * _fix.standard_normal((1, 6))  # away from 1: g and g * gamma differ
_BETA6 = _fix.standard_normal((1, 6))


class TestRowOps:
    def test_stacked_attention_equals_separate_sequences(self, rng):
        b, n, d = 3, 4, 6
        x = t64(rng.standard_normal((b * n, d)), requires_grad=True)
        ws = [t64(rng.standard_normal((d, d)) * 0.5, requires_grad=True) for _ in range(4)]
        probe = t64(rng.standard_normal((b * n, d)))
        with Tape() as tape:
            stacked = ndiff.multi_head_attention(x, *ws, 2, seq_len=n)
            loss = ndiff.mean(ndiff.mul(stacked, probe))
        grads = tape.backward(loss)
        with Tape() as tape:
            parts = [ndiff.multi_head_attention(ndiff.slice_rows(x, i * n, (i + 1) * n), *ws, 2)
                     for i in range(b)]
            loss_sep = ndiff.mean(ndiff.mul(ndiff.concat_rows(parts), probe))
        grads_sep = tape.backward(loss_sep)
        np.testing.assert_allclose(stacked.data, np.concatenate([p.data for p in parts]),
                                   rtol=1e-12, atol=1e-14)
        for t in [x, *ws]:
            np.testing.assert_allclose(grads[t], grads_sep[t], rtol=1e-10, atol=1e-14)

    def test_attention_rows_must_split_into_sequences(self, rng):
        x = t64(rng.standard_normal((5, 4)))
        w = t64(np.eye(4))
        with pytest.raises(ndiff.NdiffError, match="sequences of 2"):
            ndiff.multi_head_attention(x, w, w, w, w, 2, seq_len=2)

    def test_gather_rows_repeated_index_sums_gradient(self):
        x = t64(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            out = ndiff.gather_rows(x, np.array([2, 0, 2]))
            loss = ndiff.mean(out)
        assert np.array_equal(out.data, [[4, 5], [0, 1], [4, 5]])
        assert np.allclose(tape.backward(loss)[x], [[1 / 6] * 2, [0, 0], [2 / 6] * 2])

    @pytest.mark.parametrize("idx", [[3], [-1], [0.0, 1.0], [[0, 1]]])
    def test_gather_rows_rejects_bad_index(self, idx):
        with pytest.raises(ndiff.NdiffError, match="gather_rows"):
            ndiff.gather_rows(t64(np.zeros((3, 2))), np.array(idx))


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


# The formulas the fused kernels replaced, kept verbatim as test-local
# primitives: a kernel rewrite must reproduce them bit for bit, so a change
# that reorders the arithmetic fails here before it changes a seeded run.

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


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype == np.float32 and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), f"array {i} differs in {np.sum(g != w)} entries"


def _f32_leaves(rng, *shapes, scale=1.0):
    return [Tensor((rng.standard_normal(s) * scale).astype(np.float32), requires_grad=True)
            for s in shapes]


class TestKernelsBitIdentical:
    def test_linear_equals_matmul_plus_bias_add(self, rng):
        leaves = _f32_leaves(rng, (37, 24), (24, 150), (1, 150))
        probe = rng.standard_normal((37, 150)).astype(np.float32)
        _assert_same_bits(
            _run_taped(ndiff.linear, leaves, probe),
            _run_taped(lambda x, w, b: ndiff.add(ndiff.matmul(x, w), b), leaves, probe),
        )

    def test_gelu_equals_reference(self, rng):
        leaves = _f32_leaves(rng, (37, 150), scale=3.0)
        probe = rng.standard_normal((37, 150)).astype(np.float32)
        _assert_same_bits(_run_taped(ndiff.gelu, leaves, probe),
                          _run_taped(_reference_gelu, leaves, probe))

    def test_layer_norm_equals_reference(self, rng):
        x, gamma, beta = _f32_leaves(rng, (37, 150), (1, 150), (1, 150))
        x.data += 2.0  # a mean away from 0, so the centring rounds
        probe = rng.standard_normal((37, 150)).astype(np.float32)
        _assert_same_bits(_run_taped(ndiff.layer_norm, [x, gamma, beta], probe),
                          _run_taped(_reference_layer_norm, [x, gamma, beta], probe))

    @pytest.mark.parametrize("rows,seq_len", [(33, None), (3 * 17, 17)], ids=["one", "stacked"])
    def test_attention_equals_reference(self, rng, rows, seq_len):
        leaves = _f32_leaves(rng, (rows, 24), *[(24, 24)] * 4, scale=0.5)
        probe = rng.standard_normal((rows, 24)).astype(np.float32)
        _assert_same_bits(
            _run_taped(lambda *a: ndiff.multi_head_attention(*a, 4, seq_len), leaves, probe),
            _run_taped(lambda *a: _reference_attention(*a, 4, seq_len), leaves, probe),
        )

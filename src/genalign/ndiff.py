"""Minimal reverse-mode autodiff over numpy arrays.

Covers exactly the primitive set the training losses need.  Operations
record onto the active :class:`Tape` (if any); running without a tape is
the stop-gradient path used for teacher forwards.  f32 is the training
dtype, f64 the gradient-check dtype; binary ops require matching dtypes.

Accumulation order is fixed (reverse recording order, plain ``+=``), so a
seeded run reproduces bit-identical values.

Kernels work in place (``*=``, ``np.exp(..., out=)``) only on arrays they
allocated themselves, never on an input or an incoming gradient.  A kernel
rewrite keeps outputs and gradients byte-identical: the same float
operations on the same operands in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)


class NdiffError(ValueError):
    pass


class Tensor:
    """Immutable-by-convention array node.

    ``requires_grad`` marks a leaf the caller wants gradients for;
    ``needs_grad`` additionally covers anything computed from such a leaf.
    """

    __slots__ = ("data", "requires_grad", "needs_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.needs_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: "Tape | None" = None


@dataclass
class _Node:
    output: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[np.ndarray], tuple]  # grad_out -> grads per input (or None)


class Tape:
    """Records primitive applications for one backward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise NdiffError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Accumulate dloss/dx for every requires_grad leaf reachable from loss."""
        if self._consumed:
            raise NdiffError("tape already consumed by a previous backward call")
        if loss.data.size != 1:
            raise NdiffError(f"loss must be scalar, got shape {loss.data.shape}")
        produced = {id(n.output) for n in self._nodes}
        if id(loss) not in produced:
            raise NdiffError("loss was not recorded on this tape (detached graph)")
        self._consumed = True
        grads: dict[int, np.ndarray] = {
            id(loss): np.ones_like(loss.data)
        }
        leaf_grads: dict[Tensor, np.ndarray] = {}
        for node in reversed(self._nodes):
            gout = grads.pop(id(node.output), None)
            if gout is None:
                continue
            gins = node.backward(gout)
            for tensor, gin in zip(node.inputs, gins):
                if gin is None or not tensor.needs_grad:
                    continue
                if tensor.requires_grad:
                    if tensor in leaf_grads:
                        leaf_grads[tensor] += gin
                    else:
                        leaf_grads[tensor] = np.array(gin, copy=True)
                    continue
                key = id(tensor)
                if key in grads:
                    grads[key] += gin
                else:
                    grads[key] = np.array(gin, copy=True)
        return leaf_grads


def _record(out: Tensor, inputs: Sequence[Tensor], backward) -> Tensor:
    if _ACTIVE_TAPE is not None and any(t.needs_grad for t in inputs):
        out.needs_grad = True
        _ACTIVE_TAPE._nodes.append(_Node(out, tuple(inputs), backward))
    return out


def _check_same_dtype(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise NdiffError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise NdiffError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node; ``b`` is one ``(1, out)`` bias row."""
    _check_same_dtype(x, w, "linear")
    _check_same_dtype(x, b, "linear")
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise NdiffError(f"linear: incompatible shapes {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise NdiffError(f"linear: bias shape {b.shape} is not (1, {w.shape[1]})")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0, keepdims=True)

    return _record(out, (x, w, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise NdiffError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise NdiffError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), backward)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        return (g * c,)

    return _record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise NdiffError(f"transpose: expected 2-D, got shape {a.shape}")
    out = Tensor(a.data.T.copy())

    def backward(g):
        return (g.T,)

    return _record(out, (a,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise NdiffError("concat_rows: empty input list")
    widths = {p.shape[1:] for p in parts}
    if len(widths) != 1:
        raise NdiffError(f"concat_rows: trailing shapes differ: {sorted(map(str, widths))}")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p, "concat_rows")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    sizes = [p.shape[0] for p in parts]

    def backward(g):
        grads = []
        start = 0
        for size in sizes:
            grads.append(g[start : start + size])
            start += size
        return tuple(grads)

    return _record(out, tuple(parts), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start <= stop <= a.shape[0]:
        raise NdiffError(f"slice_rows: [{start}:{stop}] out of range for shape {a.shape}")
    out = Tensor(a.data[start:stop].copy())

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _record(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)
    sm = np.exp(y)

    def backward(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), backward)


def layer_norm(
    a: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1, eps: float = 1e-5
) -> Tensor:
    _check_same_dtype(a, gamma, "layer_norm")
    _check_same_dtype(a, beta, "layer_norm")
    if eps <= 0:
        raise NdiffError("layer_norm: eps must be positive")
    x = a.data
    n = x.shape[axis]  # sum / n is exactly np.mean, minus its Python wrapper
    xhat = x - x.sum(axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt((xhat**2).sum(axis=axis, keepdims=True) / n + eps)
    xhat *= inv
    try:
        out = Tensor(xhat * gamma.data + beta.data)
    except ValueError:
        raise NdiffError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not broadcast with {a.shape}"
        )

    def backward(g):
        dxhat = g * gamma.data
        dx = dxhat - dxhat.sum(axis=axis, keepdims=True) / n
        dx -= xhat * ((dxhat * xhat).sum(axis=axis, keepdims=True) / n)
        dx *= inv
        return dx, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)

    return _record(out, (a, gamma, beta), backward)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation; the gradient differentiates the same approximation
    x = a.data
    x2 = x * x
    t = _GELU_C * x * (1.0 + 0.044715 * x2)
    np.tanh(t, out=t)
    one_t = 1.0 + t  # reused by the backward
    out = Tensor(0.5 * x * one_t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 0.134145 * x2)
        return (g * (0.5 * one_t + 0.5 * x * (1.0 - t * t) * dinner),)

    return _record(out, (a,), backward)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    if eps <= 0:
        raise NdiffError("l2_normalize: eps must be positive")
    x = a.data
    norm = np.sqrt((x**2).sum(axis=axis, keepdims=True))
    if np.any(norm < eps):
        raise NdiffError(f"l2_normalize: degenerate input with norm < {eps}")
    y = x / norm
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / norm,)

    return _record(out, (a,), backward)


def cross_entropy(p_target: Tensor, log_q: Tensor) -> Tensor:
    """Row-wise CE(p, q) = -sum_c p_c * log q_c over the last axis."""
    _check_same_dtype(p_target, log_q, "cross_entropy")
    if p_target.shape != log_q.shape:
        raise NdiffError(
            f"cross_entropy: shapes {p_target.shape} and {log_q.shape} differ"
        )
    out = Tensor(-(p_target.data * log_q.data).sum(axis=-1))

    def backward(g):
        ge = np.expand_dims(g, -1)
        return -ge * log_q.data, -ge * p_target.data

    return _record(out, (p_target, log_q), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Elementwise stable BCE; reduce with :func:`mean` as needed."""
    _check_same_dtype(logits, targets, "binary_cross_entropy_with_logits")
    if logits.shape != targets.shape:
        raise NdiffError(
            f"binary_cross_entropy_with_logits: shapes {logits.shape} "
            f"and {targets.shape} differ"
        )
    x, y = logits.data, targets.data
    out = Tensor(np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(g):
        return g * (sig - y), g * (-x)

    return _record(out, (logits, targets), backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows ``a[idx]`` in the order of ``idx``; an index may repeat, and its
    output rows' gradients are summed back into the one input row."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise NdiffError(
            f"gather_rows: expected a 1-D integer index, got {idx.dtype.name} {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise NdiffError(f"gather_rows: index out of range for shape {a.shape}")
    idx = idx.astype(np.int64, copy=False)
    out = Tensor(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        # np.add.at is 5-10x slower than assignment, so it sums only the
        # rows of indices that repeat, in the same order it would use
        shared = np.bincount(idx, minlength=a.shape[0])[idx] > 1
        if shared.any():
            full[idx[shared]] = 0
            np.add.at(full, idx[shared], g[shared])
        return (full,)

    return _record(out, (a,), backward)


def multi_head_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    seq_len: int | None = None,
) -> Tensor:
    """Fused softmax(x Wq (x Wk)^T / sqrt(dh)) x Wv Wo over n_heads.

    ``x`` holds B equal-length sequences of ``seq_len`` rows stacked one
    after another (default: all rows are one sequence); a row attends only
    to the rows of its own sequence, so no padding or attention mask is
    involved.  One graph node instead of ~24: the per-head arithmetic runs
    as batched matmuls over (sequence, head), with the combined backward
    derived analytically.
    """
    for w, name in ((wq, "wq"), (wk, "wk"), (wv, "wv"), (wo, "wo")):
        _check_same_dtype(x, w, f"multi_head_attention/{name}")
    rows, d = x.shape
    if d % n_heads != 0:
        raise NdiffError(f"width {d} not divisible by {n_heads} heads")
    n = rows if seq_len is None else seq_len
    if n < 1 or rows % n != 0:
        raise NdiffError(f"{rows} rows do not split into sequences of {n}")
    b = rows // n
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(m):  # (b*n, d) -> (b, h, n, dh)
        return m.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(m):  # (b, h, n, dh) -> (b*n, d)
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    q = split(x.data @ wq.data)
    k = split(x.data @ wk.data)
    v = split(x.data @ wv.data)
    attn = q @ k.swapaxes(-1, -2)  # the one (b, h, n, n) buffer of the call
    attn *= scale
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    merged = merge(attn @ v)
    out = Tensor(merged @ wo.data)

    def backward(g):
        d_merged = g @ wo.data.T
        d_wo = merged.T @ g
        d_heads = split(d_merged)
        d_attn = d_heads @ v.swapaxes(-1, -2)
        d_v = attn.swapaxes(-1, -2) @ d_heads
        d_scores = d_attn  # attn * (d_attn - rowsum(d_attn * attn)) * scale
        d_scores -= (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= scale
        d_q = d_scores @ k
        d_k = d_scores.swapaxes(-1, -2) @ q
        dq, dk, dv = merge(d_q), merge(d_k), merge(d_v)
        d_x = dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T
        return (
            d_x,
            x.data.T @ dq,
            x.data.T @ dk,
            x.data.T @ dv,
            d_wo,
        )

    return _record(out, (x, wq, wk, wv, wo), backward)


def mean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def backward(g):
        return (np.full_like(a.data, float(g) / a.data.size),)

    return _record(out, (a,), backward)


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare the taped gradient of ``f`` at ``x`` against central differences.

    ``x`` should be f64; the relative error is measured against the larger of
    the two gradients' max magnitudes.
    """
    if x.dtype != np.float64:
        raise NdiffError("grad_check requires an f64 input tensor")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(probe)
    analytic = tape.backward(loss).get(probe)
    if analytic is None:
        analytic = np.zeros_like(probe.data)
    fd = np.zeros_like(x.data)
    flat = fd.reshape(-1)
    base = x.data.copy()
    for i in range(base.size):
        for sign in (1.0, -1.0):
            perturbed = base.copy()
            perturbed.reshape(-1)[i] += sign * eps
            flat[i] += sign * float(f(Tensor(perturbed)).data)
        flat[i] /= 2.0 * eps
    denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
    max_rel = float(np.abs(analytic - fd).max() / denom)
    return GradCheckReport(max_rel_err=max_rel, tol=tol)

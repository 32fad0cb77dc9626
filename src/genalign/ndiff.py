"""Minimal reverse-mode autodiff over numpy arrays.

Covers exactly the primitive set the training losses need.  Operations
record onto the active :class:`Tape` (if any); running without a tape is
the stop-gradient path used for teacher forwards.  f32 is the training
dtype, f64 the gradient-check dtype; binary ops require matching dtypes.

Accumulation order is fixed (reverse recording order, one plain sum per
contribution), so a seeded run reproduces bit-identical values.

Kernels work in place (``*=``, ``np.exp(..., out=)``) only on arrays they
allocated themselves, never on an input or an incoming gradient.  A kernel
rewrite keeps outputs and gradients byte-identical (the same float
operations on the same operands in the same order), except
``multi_head_attention`` and ``layer_norm``.  Both take their row sums as
BLAS matrix-vector products, and attention normalises the softmax after the
value product and exponentiates its scores unshifted, so they match the
textbook formulas only up to rounding, and are tested for accuracy against
them in f64.  Restricted to some query rows, run in query slices, or packed
with other sequences, attention matches the full or separate call only up
to rounding too: BLAS may round a row of a product differently depending on
how many rows the product has.  That is why ``mlp``, byte-identical to a
chain of ``matmul``, bias ``add`` and GELU per layer, tiles only its
elementwise passes: each of its products runs over all rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_LAYER_NORM_EPS = 1e-5  # added to the variance
_L2_EPS = 1e-12  # smallest norm l2_normalize accepts


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
        """dloss/dx for every requires_grad leaf reachable from loss.  A
        returned gradient may be shared with another (a kernel may pass its
        incoming gradient on, or a view of it), so it is read-only."""
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
        while self._nodes:  # each node, and what its backward holds, is freed once passed
            node = self._nodes.pop()
            gout = grads.pop(id(node.output), None)
            if gout is None:
                continue
            gins = node.backward(gout)
            for tensor, gin in zip(node.inputs, gins):
                if gin is None or not tensor.needs_grad:
                    continue
                # a gradient may be shared (a kernel may pass its incoming one
                # on, or a view of it), so it is kept as is and never updated
                # in place; a second contribution makes a new sum
                held, key = (leaf_grads, tensor) if tensor.requires_grad else (grads, id(tensor))
                held[key] = held[key] + gin if key in held else gin
        return leaf_grads


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether a node on ``inputs`` would be recorded on the active tape."""
    return _ACTIVE_TAPE is not None and any(t.needs_grad for t in inputs)


def _record(out: Tensor, inputs: Sequence[Tensor], backward) -> Tensor:
    if _records(inputs):
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


def _row_sums(m: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Sums over the last axis of ``weight`` times each term, with that axis
    kept at length 1.  One BLAS matrix-vector product over all rows: numpy's
    reduce over a short last axis is several times slower."""
    n = m.shape[-1]
    col = np.full((n, 1), weight, m.dtype)
    return (m.reshape(-1, n) @ col).reshape(*m.shape[:-1], 1)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise NdiffError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), backward)


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


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    sm = np.exp(shifted)
    total = sm.sum(axis=axis, keepdims=True)
    out = Tensor(shifted - np.log(total))
    if not _records((a,)):
        return out
    sm /= total  # the softmax, kept for the backward

    def backward(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Each row normalised over the last axis, times ``gamma`` plus ``beta``."""
    _check_same_dtype(a, gamma, "layer_norm")
    _check_same_dtype(a, beta, "layer_norm")
    x = a.data
    w = 1.0 / x.shape[-1]  # the row means are row sums of w-weighted terms
    xhat = x - _row_sums(x, w)
    inv = 1.0 / np.sqrt(_row_sums(xhat**2, w) + _LAYER_NORM_EPS)
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
        dx = dxhat - _row_sums(dxhat, w)
        dx -= xhat * _row_sums(dxhat * xhat, w)
        dx *= inv
        return dx, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)

    return _record(out, (a, gamma, beta), backward)


def _gelu_into(h: np.ndarray, u: np.ndarray, t: np.ndarray, deriv=None) -> None:
    """Overwrite the pre-activation ``h`` with ``gelu(h)``, and write its
    derivative into ``deriv`` if given; ``u`` and ``t`` are scratch of
    ``h``'s shape.

    The tanh approximation; the derivative differentiates the same
    approximation.  Each line is one operation of 0.5 * x * (1 + tanh(c * x
    * (1 + k x^2))) and of its derivative, in the same order, so the results
    are the same bit for bit as the expressions written out.
    """
    np.multiply(h, h, out=u)
    u *= 0.044715
    u += 1.0
    np.multiply(h, _GELU_C, out=t)
    t *= u
    np.tanh(t, out=t)
    np.add(t, 1.0, out=u)
    if deriv is not None:
        # _GELU_C * (1 + 3k x^2), the derivative of t's argument
        np.multiply(h, h, out=deriv)
        deriv *= 0.134145
        deriv += 1.0
        deriv *= _GELU_C
        np.multiply(t, t, out=t)  # the slope 0.5 * x * (1 - t^2) * deriv
        np.subtract(1.0, t, out=t)
    h *= 0.5  # 0.5 * x, a factor of both the slope and the output
    if deriv is not None:
        t *= h
        t *= deriv
        np.multiply(u, 0.5, out=deriv)  # 0.5 * (1 + t), plus the slope
        deriv += t
    h *= u


# The rows of one tile of an ``mlp`` call's elementwise passes
MLP_TILE_ROWS = 256


def mlp(x: Tensor, *layers: Tensor) -> Tensor:
    """MLP of k >= 2 layers as one node: ``mlp(x, w1, b1, ..., wk, bk)`` is
    ``gelu(... gelu(x w1 + b1) ...) wk + bk``, with GELU between layers and
    none after the last; each ``bi`` is a ``(1, out)`` bias row.

    Each product runs over all rows.  Each hidden layer's bias add and GELU
    run over tiles of ``MLP_TILE_ROWS`` rows, in place, with two tile-sized
    scratch buffers, so each elementwise pass reads a tile that is still in
    cache.  A recorded node keeps each layer's input and each GELU's
    derivative, not the pre-activations.
    """
    if len(layers) < 4 or len(layers) % 2:
        raise NdiffError(f"mlp: expected weight and bias pairs of at least two layers, "
                         f"got {len(layers)} tensors after x")
    ws, bs = layers[0::2], layers[1::2]
    for i, (w, b) in enumerate(zip(ws, bs), 1):
        _check_same_dtype(x, w, f"mlp/w{i}")
        _check_same_dtype(x, b, f"mlp/b{i}")
    shapes = [t.shape for t in (x, *ws)]
    if any(len(s) != 2 for s in shapes) or any(s[1] != n[0] for s, n in zip(shapes, shapes[1:])):
        raise NdiffError(f"mlp: incompatible shapes {' @ '.join(map(str, shapes))}")
    for i, (w, b) in enumerate(zip(ws, bs), 1):
        if b.shape != (1, w.shape[1]):
            raise NdiffError(f"mlp: b{i} shape {b.shape} is not (1, {w.shape[1]})")
    taped = _records((x, *layers))
    acts, derivs = [x.data], []  # each layer's input, each hidden layer's GELU derivative
    tile = MLP_TILE_ROWS
    for w, b in zip(ws[:-1], bs[:-1]):
        act = acts[-1] @ w.data
        deriv = np.empty_like(act) if taped else None
        u = np.empty_like(act[:tile])
        t = np.empty_like(u)
        for s in range(0, act.shape[0], tile):
            h = act[s : s + tile]
            h += b.data
            n = h.shape[0]
            _gelu_into(h, u[:n], t[:n], None if deriv is None else deriv[s : s + n])
        acts.append(act)
        derivs.append(deriv)
    y = acts[-1] @ ws[-1].data
    y += bs[-1].data
    out = Tensor(y)

    def backward(g):
        grads = []  # (bias, weight) gradients, last layer first
        for i in reversed(range(len(ws))):
            grads += [_unbroadcast(g, bs[i].shape), acts[i].T @ g]
            if i:
                g = g @ ws[i].data.T
                g *= derivs[i - 1]
        # a constant input (cell rows, genetic rows) gets no gradient product
        return (g @ ws[0].data.T if x.needs_grad else None, *reversed(grads))

    return _record(out, (x, *layers), backward)


def l2_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit length over the last axis."""
    x = a.data
    norm = np.sqrt((x**2).sum(axis=-1, keepdims=True))
    if np.any(norm < _L2_EPS):
        raise NdiffError(f"l2_normalize: degenerate input with norm < {_L2_EPS}")
    y = x / norm
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
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
    tail = np.exp(-np.abs(x))  # never overflows, unlike exp(-x) for x << 0
    out = Tensor(np.maximum(x, 0.0) - x * y + np.log1p(tail))
    if not _records((logits, targets)):
        return out
    sig = np.where(x >= 0, 1.0, tail)  # sigmoid(x) from the same exp(-|x|)
    sig /= 1.0 + tail

    def backward(g):
        return g * (sig - y), g * (-x)

    return _record(out, (logits, targets), backward)


def _add_rows(full: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``full[idx] += rows`` in place, where an index may repeat and its rows
    are summed.  np.add.at is 5-10x slower than fancy indexing, so it sums
    only the rows of indices that repeat, in the same order it would use."""
    shared = np.bincount(idx, minlength=full.shape[0])[idx] > 1
    if shared.any():
        np.add.at(full, idx[shared], rows[shared])
        idx, rows = idx[~shared], rows[~shared]
    full[idx] += rows


def gather_rows(parts: Tensor | Sequence[Tensor], idx) -> Tensor:
    """Rows ``idx`` of ``parts``, one Tensor or several of one trailing shape
    with their rows stacked in order, in the order of ``idx``; an index may
    repeat, and its output rows' gradients are summed back into the one
    input row."""
    parts = (parts,) if isinstance(parts, Tensor) else tuple(parts)
    if not parts:
        raise NdiffError("gather_rows: no parts to gather from")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p, "gather_rows")
        if p.shape[1:] != parts[0].shape[1:]:
            raise NdiffError(f"gather_rows: trailing shapes differ: {parts[0].shape} and {p.shape}")
    sizes = [p.shape[0] for p in parts]
    rows = sum(sizes)
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise NdiffError(
            f"gather_rows: expected a 1-D integer index, got {idx.dtype.name} {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise NdiffError(f"gather_rows: index out of range for {rows} rows")
    idx = idx.astype(np.int64, copy=False)
    data = parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts])
    out = Tensor(data[idx])

    def backward(g):
        full = np.zeros((rows, *g.shape[1:]), g.dtype)
        _add_rows(full, idx, g)
        return tuple(np.split(full, np.cumsum(sizes)[:-1]))

    return _record(out, parts, backward)


# The float budget of one aggregator call (``aggregator.forward_bags`` packs
# its views under it) and of one untaped attention slice's scores
MAX_CALL_FLOATS = 1025**2

# The band [SOFTMAX_SUM_FLOOR, 1 / SOFTMAX_SUM_FLOOR] that every row sum of an
# unshifted softmax slice must lie in; otherwise the slice is computed again,
# each row shifted by its own max.  Inside the band no term overflows f32 (at
# most 2**64), and the row's largest term is at least 2**-64 / n, a normal
# f32 for any n below 2**62.
SOFTMAX_SUM_FLOOR = 2.0**-64


def _softmax_values(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """``softmax(q k^T) v`` over (sequence, head) batches, normalised after
    the value product: the head outputs, the unnormalised block ``e`` and
    its row sums ``r``, exponentiated unshifted and guarded as
    ``multi_head_attention`` describes."""
    e = q @ k.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow only sends r out of the band
        np.exp(e, out=e)
        r = _row_sums(e)
    if not ((r >= SOFTMAX_SUM_FLOOR) & (r <= 1.0 / SOFTMAX_SUM_FLOOR)).all():
        np.matmul(q, k.swapaxes(-1, -2), out=e)
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        r = _row_sums(e)
    heads = e @ v
    heads /= r
    return heads, e, r


def multi_head_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    seq_len: np.ndarray,
    queries=None,
) -> Tensor:
    """Fused softmax(x Wq (x Wk)^T / sqrt(dh)) x Wv Wo over n_heads.

    ``x`` holds sequences stacked one after another: ``seq_len`` is a 1-D
    array of per-sequence lengths.  A row attends only to the rows of
    its own sequence, so no padding or attention mask is involved.  One graph
    node instead of ~24: Q, K, V and the output projection are one matmul
    each over all rows; each run of consecutive sequences with equal length
    and query count runs the per-head arithmetic as batched matmuls over
    (sequence, head), with the combined backward derived analytically.

    ``queries`` (default: every row) is a 1-D index of the rows whose outputs
    are wanted, grouped by sequence in sequence order, at least one row from
    each; the count may differ between sequences.  Keys and values still
    come from every row, so the output has one row per query, row for row
    the full output at ``queries``, and a sequence of n rows and t queries
    holds a ``(h, t, n)`` score block.

    As in FlashAttention (Dao et al. 2022), the scale is folded into
    ``wq``, the block keeps ``e`` unnormalised, and its row sums ``r``
    divide the ``(t, dh)`` product ``e v``; the backward reads the softmax's
    row term from the head outputs, ``rowsum(G * O)``, in the merged rows.
    Every row sum is one BLAS matrix-vector product.

    The scores are exponentiated as they are, ``e = exp(s)``, with no max
    pass: softmax does not change under a per-row shift, and the shift by
    the row max (Milakov & Gimelshein 2018) only guards against overflow
    and underflow, which scores of a few units never reach.  The guard is
    one check per slice instead: if any row sum lies outside
    ``[SOFTMAX_SUM_FLOOR, 1 / SOFTMAX_SUM_FLOOR]``, the slice's scores are
    computed again into the same block, each row shifted by its own max,
    and that ``e`` and ``r`` are kept: the backward reads ``e / r`` as is.
    A slice that falls back pays a second score product and the row max:
    one untaped 1,025-row call whose scores all sit near 50 takes about 1.7
    times as long as with scores of a few units.

    Each run's query rows go through one loop of slices.  A recorded node
    takes each run as one slice and keeps its block for the backward.
    Otherwise nothing is kept, and a slice holds at most ``MAX_CALL_FLOATS``
    scores (at least one query row), which is exact (Rabe & Staats 2021), so
    a long sequence never holds its whole block.
    """
    for w, name in ((wq, "wq"), (wk, "wk"), (wv, "wv"), (wo, "wo")):
        _check_same_dtype(x, w, f"multi_head_attention/{name}")
    rows, d = x.shape
    if d % n_heads != 0:
        raise NdiffError(f"width {d} not divisible by {n_heads} heads")
    lengths = np.asarray(seq_len)
    if (lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not lengths.size
            or lengths.min() < 1 or lengths.sum() != rows):
        raise NdiffError(f"sequence lengths {lengths.tolist()} do not split {rows} rows")
    b = lengths.size
    starts = np.cumsum(lengths) - lengths
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    xq, counts = x.data, lengths
    if queries is not None:
        queries = np.asarray(queries)
        if queries.ndim != 1 or queries.dtype.kind not in "iu":
            raise NdiffError(
                f"queries: expected a 1-D integer index, got {queries.dtype.name} {queries.shape}"
            )
        owner = np.searchsorted(starts, queries, side="right") - 1
        if queries.size and (queries.min() < 0 or queries.max() >= rows or (np.diff(owner) < 0).any()):
            raise NdiffError(
                f"queries: a row is outside its block's sequence (the index must hold "
                f"rows of [0, {rows}), sequence by sequence in order)"
            )
        counts = np.bincount(owner, minlength=b)
        if not counts.all():
            raise NdiffError(f"queries: sequence {int(np.argmin(counts))} has no query row")
        xq = x.data[queries]
    # runs of consecutive sequences sharing (length, query count):
    # (first key row, first query row, sequences, length, queries per sequence)
    cuts = np.flatnonzero((np.diff(lengths) != 0) | (np.diff(counts) != 0)) + 1
    q_starts = np.cumsum(counts) - counts
    runs = [(int(starts[s]), int(q_starts[s]), int(e - s), int(lengths[s]), int(counts[s]))
            for s, e in zip(np.r_[0, cuts], np.r_[cuts, b])]

    def split(m, seqs):  # (seqs*t, d) -> (seqs, h, t, dh)
        return m.reshape(seqs, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(m):  # (seqs, h, t, dh) -> (seqs*t, d)
        return m.transpose(0, 2, 1, 3).reshape(-1, d)

    # the scale folds into Wq, a (d, d) pass, so no pass scales the scores
    wq_scaled = wq.data * scale
    q_all = xq @ wq_scaled
    k_all = x.data @ wk.data
    v_all = x.data @ wv.data
    merged = np.empty_like(q_all)
    taped = _records((x, wq, wk, wv, wo))
    blocks = []  # per run when taped: q, k, v, its (seqs, h, t, n) block e and its row sums r
    for r0, q0, seqs, n, t in runs:
        q = split(q_all[q0 : q0 + seqs * t], seqs)
        k = split(k_all[r0 : r0 + seqs * n], seqs)
        v = split(v_all[r0 : r0 + seqs * n], seqs)
        # slices of ss sequences by ts query rows: one slice when taped, else
        # at most MAX_CALL_FLOATS scores each
        step = seqs * t if taped else max(1, MAX_CALL_FLOATS // (n_heads * n))
        ss, ts = max(1, step // t), min(t, step)
        out_rows = merged[q0 : q0 + seqs * t].reshape(seqs, t, n_heads, dh)
        for s in range(0, seqs, ss):
            for a in range(0, t, ts):
                heads, e, r = _softmax_values(q[s : s + ss, :, a : a + ts], k[s : s + ss], v[s : s + ss])
                out_rows[s : s + ss, a : a + ts] = heads.transpose(0, 2, 1, 3)
                if taped:  # the run's one slice
                    blocks.append((q, k, v, e, r))
                del heads, e, r  # before the next slice's block is made
    out = Tensor(merged @ wo.data)

    def backward(g):
        d_merged = g @ wo.data.T
        d_wo = merged.T @ g
        # the softmax's row term rowsum(G * O) of every head, in the merged rows
        g_o = _row_sums((d_merged * merged).reshape(-1, n_heads, dh))
        dq, dk, dv = np.empty_like(q_all), np.empty_like(k_all), np.empty_like(v_all)
        for (r0, q0, seqs, n, t), (q, k, v, e, r) in zip(runs, blocks):
            g_r = split(d_merged[q0 : q0 + seqs * t], seqs) / r  # G / r
            dv[r0 : r0 + seqs * n] = merge(e.swapaxes(-1, -2) @ g_r)
            row_term = g_o[q0 : q0 + seqs * t].reshape(seqs, t, n_heads, 1).transpose(0, 2, 1, 3)
            d_scores = g_r @ v.swapaxes(-1, -2)  # ((G / r) V^T - rowsum(G * O) / r) * e
            d_scores -= row_term / r
            d_scores *= e
            dq[q0 : q0 + seqs * t] = merge(d_scores @ k)
            dk[r0 : r0 + seqs * n] = merge(d_scores.swapaxes(-1, -2) @ q)
        if queries is None:
            d_x = dq @ wq_scaled.T + dk @ wk.data.T + dv @ wv.data.T
        else:
            d_x = dk @ wk.data.T + dv @ wv.data.T
            _add_rows(d_x, queries, dq @ wq_scaled.T)  # a query row may repeat
        return (
            d_x,
            scale * (xq.T @ dq),
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

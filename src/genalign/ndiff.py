"""Minimal reverse-mode autodiff over numpy arrays.

Covers exactly the primitive set the training losses need.  Operations
record onto the active :class:`Tape` (if any); running without a tape is
the stop-gradient path used for teacher forwards.  f32 is the training
dtype, f64 the gradient-check dtype; binary ops require matching dtypes.

Accumulation order is fixed (reverse recording order, one plain sum per
contribution), so a seeded run reproduces bit-identical values.

Kernels work in place (``*=``, ``np.exp(..., out=)``) only on arrays they
allocated themselves or slots the tape hands them, never on an input or an
incoming gradient.  A kernel
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

A recorded node keeps only what its backward reads: arrays, shapes and
dtypes, never a Tensor.  The tape refers to a computed input by its node id
and holds only leaf Tensors (parameters, alive anyway), so an intermediate
Tensor the caller drops is freed at once, and its array too unless some
backward reads it.  A constant input gets None, and no operand that only
its gradient would read is kept, for ``mlp``'s ``x``, either operand of
``mul`` and of ``cross_entropy``, and the targets of
``binary_cross_entropy_with_logits``.

A leaf's gradient lives where the caller of ``Tape.backward`` says.  Given
slots (an optimizer's flat gradient buffer), each leaf's gradient is written
into its slot, and the weights and biases of ``mlp``,
``multi_head_attention`` and ``layer_norm`` by the kernel's own product or
sum (``out=``), so the step holds no other array of it.  Without slots, as
in ``grad_check`` and the unit tests, each is a new array.
"""

from __future__ import annotations

import itertools
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
    ``node`` is the id of the tape node that recorded the tensor as its
    output, None if no tape did: a tape refers to a computed input by this
    id, never by the tensor itself.
    """

    __slots__ = ("data", "requires_grad", "needs_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.needs_grad = requires_grad
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: "Tape | None" = None

# node ids, unique in the process: an id from another tape never matches
_NODE_IDS = itertools.count(1)


@dataclass
class _Node:
    output: int  # the output tensor's node id
    # per input: the leaf Tensor, the id of the node that computed it, or
    # None if it needs no gradient
    inputs: tuple[Tensor | int | None, ...]
    backward: Callable[..., tuple]  # grad_out -> grads per input (or None)
    # whether backward takes, after grad_out, per input an array to write
    # that input's gradient into (or None)
    into: bool = False


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

    def backward(
        self, loss: Tensor, slots: dict[Tensor, tuple[str, np.ndarray]] | None = None
    ) -> dict[Tensor, np.ndarray]:
        """dloss/dx for every requires_grad leaf reachable from loss, keyed by
        the leaf Tensor.  Other gradients are routed by node id, so a tensor
        recorded on another tape, consumed or not, passes nothing on to that
        tape's nodes.

        ``slots`` maps a leaf to its name and the array its gradient lives in
        (an optimizer's gradient buffer).  The leaf's first contribution is
        written into its slot, by the kernel itself where it can (``mlp``,
        ``multi_head_attention`` and ``layer_norm`` weights), and later ones
        are added in place.  A contribution of another shape or dtype than
        its slot's is refused where it arrives, naming the leaf, before it is
        written; slots written earlier in the pass keep what they got.  A
        slot-backed leaf's gradient is its slot, valid until the next
        backward writes it.  Any other gradient is a new array that may be
        shared with another (a kernel may pass its incoming gradient on, or a
        view of it), so it is read-only."""
        if self._consumed:
            raise NdiffError("tape already consumed by a previous backward call")
        if loss.data.size != 1:
            raise NdiffError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss.node not in {n.output for n in self._nodes}:
            raise NdiffError("loss was not recorded on this tape (detached graph)")
        self._consumed = True
        slots = slots or {}
        grads: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        leaf_grads: dict[Tensor, np.ndarray] = {}
        while self._nodes:  # each node, and what its backward holds, is freed once passed
            node = self._nodes.pop()
            gout = grads.pop(node.output, None)
            if gout is None:
                continue
            if node.into:
                gins = node.backward(gout, _offer(node.inputs, slots, leaf_grads))
            else:
                gins = node.backward(gout)
            for source, gin in zip(node.inputs, gins):
                if gin is None or source is None:
                    continue
                if source in slots:
                    name, slot = slots[source]
                    if gin is not slot:  # a kernel's in-place write has its slot's shape and dtype
                        if gin.shape != slot.shape or gin.dtype != slot.dtype:
                            raise NdiffError(f"gradient of {name}: {gin.dtype.name} {gin.shape}, "
                                             f"but its slot is {slot.dtype.name} {slot.shape}")
                        if source in leaf_grads:
                            slot += gin
                        else:
                            np.copyto(slot, gin)
                    leaf_grads[source] = slot
                    continue
                # a gradient may be shared (a kernel may pass its incoming one
                # on, or a view of it), so it is kept as is and never updated
                # in place; a second contribution makes a new sum
                held = leaf_grads if isinstance(source, Tensor) else grads
                held[source] = held[source] + gin if source in held else gin
        return leaf_grads


def _offer(inputs, slots, written) -> tuple[np.ndarray | None, ...]:
    """Per input of a node, the slot its kernel may write its gradient into:
    a slot-backed leaf's, if nothing is written there yet, only at the
    leaf's first place among ``inputs``, and only if the leaf's array has
    its slot's shape and dtype (numpy would cast a write into it)."""
    into = []
    for i, source in enumerate(inputs):
        slot = slots[source][1] if source in slots and source not in written else None
        if slot is not None and (source in inputs[:i] or source.shape != slot.shape
                                 or source.dtype != slot.dtype):
            slot = None
        into.append(slot)
    return tuple(into)


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether a node on ``inputs`` would be recorded on the active tape."""
    return _ACTIVE_TAPE is not None and any(t.needs_grad for t in inputs)


def _record(out: Tensor, inputs: Sequence[Tensor], backward, into: bool = False) -> Tensor:
    """Record ``out`` on the active tape as computed from ``inputs`` if any
    needs a gradient.  ``backward`` must not close over a Tensor; with
    ``into`` it takes, after the gradient, per input an array (or None) that
    it may write that input's gradient into and return as it."""
    if _records(inputs):
        out.needs_grad = True
        out.node = next(_NODE_IDS)
        sources = tuple(t if t.requires_grad else t.node if t.needs_grad else None for t in inputs)
        _ACTIVE_TAPE._nodes.append(_Node(out.node, sources, backward, into))
    return out


def _check_same_dtype(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise NdiffError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")


def _unbroadcast(grad: np.ndarray, shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Sum-reduce a broadcasted gradient back to the operand's shape.  A sum
    over the leading axis alone (a bias row's) is written into ``out`` if
    one is given; any other result is a new array, or ``grad`` itself."""
    if out is not None and grad.ndim == len(shape) and shape == (1, *grad.shape[1:]) and grad.shape[0] != 1:
        return np.sum(grad, axis=0, keepdims=True, out=out)
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
    a_data, b_data = a.data, b.data
    out = Tensor(a_data @ b_data)

    def backward(g):
        return g @ b_data.T, a_data.T @ g

    return _record(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise NdiffError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise NdiffError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    # each operand is kept for the other's gradient only: a constant input
    # (SupCon's weights) gets None
    a_shape, b_shape = a.shape, b.shape
    a_kept = a.data if b.needs_grad else None
    b_kept = b.data if a.needs_grad else None

    def backward(g):
        return (None if b_kept is None else _unbroadcast(g * b_kept, a_shape),
                None if a_kept is None else _unbroadcast(g * a_kept, b_shape))

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

    gamma_data, gamma_shape, beta_shape = gamma.data, gamma.shape, beta.shape

    def backward(g, into=(None,) * 3):
        dxhat = g * gamma_data
        dx = dxhat - _row_sums(dxhat, w)
        dx -= xhat * _row_sums(dxhat * xhat, w)
        dx *= inv
        return (dx, _unbroadcast(g * xhat, gamma_shape, into[1]),
                _unbroadcast(g, beta_shape, into[2]))

    return _record(out, (a, gamma, beta), backward, into=True)


def _gelu_into(h: np.ndarray, u: np.ndarray, t: np.ndarray, deriv=None) -> None:
    """Overwrite the pre-activation ``h`` with ``gelu(h)``, and write its
    derivative into ``deriv`` if given; ``u`` and ``t`` are scratch of
    ``h``'s shape.

    The tanh approximation; the derivative differentiates the same
    approximation.  Each line is one operation of 0.5 * x * (1 + tanh(c * x
    * (1 + k x^2))) and of its derivative, in the same order, so the results
    are the same bit for bit as the expressions written out.
    """
    h2 = u if deriv is None else deriv  # h^2, kept for the derivative if one is wanted
    np.multiply(h, h, out=h2)
    np.multiply(h2, 0.044715, out=u)
    u += 1.0
    np.multiply(h, _GELU_C, out=t)
    t *= u
    np.tanh(t, out=t)
    np.add(t, 1.0, out=u)
    if deriv is not None:
        # _GELU_C * (1 + 3k x^2), the derivative of t's argument
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
    w_data, b_shapes, x_grad = [w.data for w in ws], [b.shape for b in bs], x.needs_grad

    def backward(g, into=(None,) * (1 + len(layers))):
        grads = []  # (bias, weight) gradients, last layer first
        for i in reversed(range(len(w_data))):
            grads += [_unbroadcast(g, b_shapes[i], into[2 + 2 * i]),
                      np.matmul(acts[i].T, g, out=into[1 + 2 * i])]
            if i:
                g = g @ w_data[i].T
                g *= derivs[i - 1]
        # a constant input (cell rows, genetic rows) gets no gradient product
        return (g @ w_data[0].T if x_grad else None, *reversed(grads))

    return _record(out, (x, *layers), backward, into=True)


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
    # each operand is kept for the other's gradient only: a constant target
    # (the teacher's) gets None, and its log_q is not kept for it
    p_kept = p_target.data if log_q.needs_grad else None
    log_q_kept = log_q.data if p_target.needs_grad else None

    def backward(g):
        ge = np.expand_dims(g, -1)
        return (None if log_q_kept is None else -ge * log_q_kept,
                None if p_kept is None else -ge * p_kept)

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
    x_kept = x if targets.needs_grad else None  # read by the targets' gradient only

    def backward(g):
        return g * (sig - y), None if x_kept is None else g * (-x_kept)

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
# its views under it) and the most scores one untaped attention slice holds
MAX_CALL_FLOATS = 1025**2

# An untaped attention slice takes as many query rows as fit SCORE_TILE_FLOATS
# scores (512 KB of f32, a quarter of a 2 MB L2), but at least SLICE_MIN_ROWS,
# below which each product's fixed cost outweighs the cache it saves
SCORE_TILE_FLOATS = 2**17
SLICE_MIN_ROWS = 48

# The band [SOFTMAX_SUM_FLOOR, 1 / SOFTMAX_SUM_FLOOR] that every row sum of an
# unshifted softmax slice must lie in; otherwise the slice is computed again,
# each row shifted by its own max.  Inside the band no term overflows f32 (at
# most 2**64), and the row's largest term is at least 2**-64 / n, a normal
# f32 for any n below 2**62.
SOFTMAX_SUM_FLOOR = 2.0**-64


def _softmax_values(q: np.ndarray, kt: np.ndarray, v: np.ndarray):
    """``softmax(q kt) v`` over (sequence, head) batches, ``kt`` the keys
    transposed, ``(..., dh, n)``, normalised after the value product: the
    head outputs, the unnormalised block ``e`` and its row sums ``r``,
    exponentiated unshifted and guarded as ``multi_head_attention``
    describes."""
    e = q @ kt
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow only sends r out of the band
        np.exp(e, out=e)
        r = _row_sums(e)
    if not ((r >= SOFTMAX_SUM_FLOOR) & (r <= 1.0 / SOFTMAX_SUM_FLOOR)).all():
        np.matmul(q, kt, out=e)
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        r = _row_sums(e)
    heads = e @ v
    heads /= r
    return heads, e, r


def _slice_rows(scores_per_row: int) -> int:
    """Query rows per untaped attention slice, each row holding
    ``scores_per_row`` scores (heads times keys)."""
    tile = max(SCORE_TILE_FLOATS // scores_per_row, SLICE_MIN_ROWS)
    return max(1, min(tile, MAX_CALL_FLOATS // scores_per_row))


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
    one untaped 1,025-row call whose scores all sit near 50 takes about 1.9
    times as long as with scores of a few units.

    Each run's query rows go through one loop of slices.  A recorded node
    takes each run as one slice, multiplies its queries by a strided view of
    K transposed, and keeps its block for the backward, which reads K.
    Otherwise nothing is kept, and every slice multiplies by one contiguous
    ``(d, rows)`` K^T, made once per call as ``Wk^T x^T``: each (sequence,
    head) is a ``(dh, n)`` matrix at unit stride along n, which BLAS reads
    as it is, where the strided view had it pack the keys again for every
    slice (Goto & van de Geijn 2008).  A slice takes as many query rows as
    fit ``SCORE_TILE_FLOATS`` scores, so that the block it makes,
    exponentiates and multiplies by V stays in L2, as FlashAttention's
    tiles stay in fast memory; but at least ``SLICE_MIN_ROWS`` rows, and
    never more than ``MAX_CALL_FLOATS`` scores (nor fewer than one query
    row).  Slicing is exact (Rabe & Staats 2021), so a long sequence never
    holds its whole block.  At 4 heads of 16 dims, 64-cell views run seven
    to a slice, a 901-row sequence in slices of 48 query rows and a
    6,001-row one of 43.  One untaped 901-row call takes about 4.4 ms so,
    and took 5.3 ms in slices of at most ``MAX_CALL_FLOATS`` scores (291
    rows) against the strided view (2-vCPU Xeon, one BLAS thread).  A taped
    run gains nothing from K^T, whose product it would pay for its one
    block per run: that cost a 32-bag alignment batch's forward and
    backward about 1%.
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
    x_data, wk_data, wv_data, wo_data = x.data, wk.data, wv.data, wo.data
    xq, counts = x_data, lengths
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
        xq = x_data[queries]
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
    taped = _records((x, wq, wk, wv, wo))
    if taped:  # the backward reads K
        k_all = x_data @ wk_data
        kt_all = k_all.T
    else:  # K^T in one product, contiguous: keys at unit stride along each sequence
        kt_all = wk_data.T @ x_data.T
    v_all = x_data @ wv_data
    merged = np.empty_like(q_all)
    blocks = []  # per run when taped: q, k, v, its (seqs, h, t, n) block e and its row sums r
    for r0, q0, seqs, n, t in runs:
        q = split(q_all[q0 : q0 + seqs * t], seqs)
        kt = kt_all[:, r0 : r0 + seqs * n].reshape(n_heads, dh, seqs, n).transpose(2, 0, 1, 3)
        v = split(v_all[r0 : r0 + seqs * n], seqs)
        step = seqs * t if taped else _slice_rows(n_heads * n)
        # slices of ss whole sequences, or of ts query rows of one sequence
        ss, ts = max(1, step // t), min(t, step)
        out_rows = merged[q0 : q0 + seqs * t].reshape(seqs, t, n_heads, dh)
        for s in range(0, seqs, ss):
            for a in range(0, t, ts):
                heads, e, r = _softmax_values(q[s : s + ss, :, a : a + ts], kt[s : s + ss], v[s : s + ss])
                out_rows[s : s + ss, a : a + ts] = heads.transpose(0, 2, 1, 3)
                if taped:  # the run's one slice
                    blocks.append((q, split(k_all[r0 : r0 + seqs * n], seqs), v, e, r))
                del heads, e, r  # before the next slice's block is made
    out = Tensor(merged @ wo_data)

    def backward(g, into=(None,) * 5):
        d_merged = g @ wo_data.T
        d_wo = np.matmul(merged.T, g, out=into[4])
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
            d_x = dq @ wq_scaled.T + dk @ wk_data.T + dv @ wv_data.T
        else:
            d_x = dk @ wk_data.T + dv @ wv_data.T
            _add_rows(d_x, queries, dq @ wq_scaled.T)  # a query row may repeat
        d_wq = np.matmul(xq.T, dq, out=into[1])
        d_wq *= scale
        return (
            d_x,
            d_wq,
            np.matmul(x_data.T, dk, out=into[2]),
            np.matmul(x_data.T, dv, out=into[3]),
            d_wo,
        )

    return _record(out, (x, wq, wk, wv, wo), backward, into=True)


def mean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())
    shape, dtype, size = a.shape, a.dtype, a.data.size

    def backward(g):
        return (np.full(shape, float(g) / size, dtype),)

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

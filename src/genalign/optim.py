"""AdamW with decoupled weight decay, the warmup/cosine LR schedule, and
``AdamW.checked_step``: both trainers' one step from a taped loss.

The optimizer owns its parameters' storage: one flat buffer per dtype, laid
out in name order, with matching gradient and moment buffers.  Each
parameter's ``data`` is a view of its slot, updated in place (a parameter
given a new array is refused, not left behind), so a step walks a few long
runs of slots in cache-sized chunks instead of one tensor at a time (NVIDIA
Apex's multi-tensor ``FusedAdam``; ZeRO's flat buffers, Rajbhandari et al.
2020).

Gradients live in the gradient buffer and nowhere else: ``checked_step``
hands ``Tape.backward`` each parameter's gradient slot (``AdamW.slots``), the
backward writes each gradient there, checking its shape and dtype as it
arrives, and ``step`` reads the slots in place (as PyTorch DDP's gradients
are views of its buckets, Li et al. 2020)."""

from __future__ import annotations

import math
from typing import Container

import numpy as np

from .ndiff import Tape, Tensor

# floats per elementwise pass: a chunk of the four buffers and its two scratch
# rows (1.5 MB in f32) stay in a core's L2 across the pass's operations,
# and a step over the aligned model's 877k floats makes about 200 calls
CHUNK = 1 << 16


class TrainingError(RuntimeError):
    pass


class _Flat:
    """One dtype's parameters, gradients and moments as flat buffers, two
    chunk rows of scratch for a pass's temporaries, and the slots: each
    parameter, its view of ``param``, its ``[start, stop)`` and its lr scale."""

    def __init__(self, size: int, dtype: np.dtype):
        self.param, self.grad = np.empty(size, dtype), np.empty(size, dtype)
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.scratch = np.empty((2, min(size, CHUNK)), dtype)
        self.slots: list[tuple[Tensor, np.ndarray, int, int, float]] = []


class AdamW:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        total_steps: int,
        weight_decay: float = 0.0,
        lr_scale: dict[str, float] | None = None,
    ):
        """Copies each parameter into its slot and makes its ``data`` a view
        of it; an array the caller passed in is left as it was.  ``slots``
        maps each parameter to its name and its gradient's view, the
        ``slots`` a backward writes this optimizer's gradients into."""
        self.params = params
        self.lr = lr
        self.total_steps = total_steps
        self.weight_decay = weight_decay
        # per-parameter multiplier on the global lr (prefix match), e.g. a
        # smaller rate for a finetuned backbone than for fresh heads
        self.lr_scale = lr_scale or {}
        self.step_count = 0
        groups: dict[np.dtype, list[str]] = {}
        for name in sorted(params):
            groups.setdefault(params[name].data.dtype, []).append(name)
        self._flats = []
        self.slots: dict[Tensor, tuple[str, np.ndarray]] = {}
        self._m, self._v = {}, {}  # each parameter's view of the moments
        for dtype, names in groups.items():
            flat = _Flat(sum(params[n].data.size for n in names), dtype)
            start = 0
            for name in names:
                param = params[name]
                stop = start + param.data.size
                view, grad, self._m[name], self._v[name] = (
                    a[start:stop].reshape(param.shape) for a in (flat.param, flat.grad, flat.m, flat.v))
                view[...] = param.data
                param.data = view
                self.slots[param] = (name, grad)
                flat.slots.append((param, view, start, stop, self._scale_for(name)))
                start = stop
            self._flats.append(flat)

    def _scale_for(self, name: str) -> float:
        for prefix, scale in self.lr_scale.items():
            if name.startswith(prefix):
                return scale
        return 1.0

    def checked_step(self, tape: Tape, loss: Tensor, where: str) -> float:
        """Refuse a non-finite ``loss`` naming ``where``; else backward on
        ``tape`` into the gradient slots and step at the scheduled rate.
        Returns the loss.  A detached parameter (``step``) is refused before
        the backward writes any gradient slot."""
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingError(f"non-finite loss in {where}")
        self._refuse_detached()
        self.step(tape.backward(loss, self.slots),
                  warmup_cosine_lr(self.step_count, self.total_steps, self.lr))
        return loss_value

    def step(self, grads: Container[Tensor], lr: float) -> None:
        """Update, in place, the runs of adjacent slots that share an lr
        scale and whose parameter is in ``grads``, a ``Tape.backward`` result
        given ``slots``: each of them holds its parameter's gradient.  A
        parameter without a gradient, and its moments, are left as they
        were.  A parameter whose ``data`` is no longer the view of its slot
        (the caller assigned it a new array) is refused first, naming it:
        the step would move the slot and leave the parameter behind."""
        self._refuse_detached()
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for flat in self._flats:
            runs = []  # [start, stop, scale]
            for param, _, start, stop, scale in flat.slots:
                if param not in grads:
                    continue
                if runs and runs[-1][1] == start and runs[-1][2] == scale:
                    runs[-1][1] = stop
                else:
                    runs.append([start, stop, scale])
            for start, stop, scale in runs:
                for lo in range(start, stop, CHUNK):
                    self._update(flat, slice(lo, min(lo + CHUNK, stop)), lr * scale, bc1, bc2)

    def _refuse_detached(self) -> None:
        for flat in self._flats:
            for param, view, *_ in flat.slots:
                if param.data is not view:
                    raise TrainingError(f"{self.slots[param][0]}: its data is no longer the view of its "
                                        f"optimizer slot; assign into it in place (data[...] = ...)")

    def _update(self, flat: _Flat, part: slice, step_lr: float, bc1: float, bc2: float) -> None:
        param, grad, m, v = flat.param[part], flat.grad[part], flat.m[part], flat.v[part]
        tmp, update = flat.scratch[:, : part.stop - part.start]
        # the out-of-place formulas' operations, in their order, written
        # into reused buffers: m += (1 - beta1) * (grad - m), likewise v
        np.subtract(grad, m, out=tmp)
        tmp *= 1.0 - self.beta1
        m += tmp
        np.multiply(grad, grad, out=tmp)
        tmp -= v
        tmp *= 1.0 - self.beta2
        v += tmp
        # param -= step_lr * ((m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * param])
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        if self.weight_decay:
            update += np.multiply(param, self.weight_decay, out=tmp)
        update *= step_lr
        param -= update


WARMUP_FRAC = 0.05


def warmup_cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup over the first WARMUP_FRAC of steps, cosine decay after."""
    if total_steps <= 1:
        return base_lr
    warmup = max(1, int(round(WARMUP_FRAC * total_steps)))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    progress = (step - warmup) / max(1, total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))

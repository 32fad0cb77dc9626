"""AdamW with decoupled weight decay, the warmup/cosine LR schedule, and
``AdamW.checked_step``: both trainers' one step from a taped loss."""

from __future__ import annotations

import math

import numpy as np

from .ndiff import Tape, Tensor


class TrainingError(RuntimeError):
    pass


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
        self.params = params
        self.lr = lr
        self.total_steps = total_steps
        self.weight_decay = weight_decay
        # per-parameter multiplier on the global lr (prefix match), e.g. a
        # smaller rate for a finetuned backbone than for fresh heads
        self.lr_scale = lr_scale or {}
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # two scratch rows per dtype for the step's temporaries, shared by
        # every parameter: step updates one parameter at a time
        size = max((p.data.size for p in params.values()), default=0)
        self._scratch = {p.data.dtype: np.empty((2, size), p.data.dtype) for p in params.values()}

    def _scale_for(self, name: str) -> float:
        for prefix, scale in self.lr_scale.items():
            if name.startswith(prefix):
                return scale
        return 1.0

    def checked_step(self, tape: Tape, loss: Tensor, where: str) -> float:
        """Refuse a non-finite ``loss`` naming ``where``; else backward on
        ``tape`` and step at the scheduled rate.  Returns the loss."""
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingError(f"non-finite loss in {where}")
        self.step(tape.backward(loss), warmup_cosine_lr(self.step_count, self.total_steps, self.lr))
        return loss_value

    def step(self, grads: dict[Tensor, np.ndarray], lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name in sorted(self.params):
            param = self.params[name]
            grad = grads.get(param)
            if grad is None:
                continue
            m, v = self._m[name], self._v[name]
            tmp, update = (row[: m.size].reshape(m.shape) for row in self._scratch[m.dtype])
            # the out-of-place formulas' operations, in their order, written
            # into reused buffers: m += (1 - beta1) * (grad - m), likewise v
            np.subtract(grad, m, out=tmp)
            tmp *= 1.0 - self.beta1
            m += tmp
            np.multiply(grad, grad, out=tmp)
            tmp -= v
            tmp *= 1.0 - self.beta2
            v += tmp
            # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * param]
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, bc1, out=update)
            update /= tmp
            if self.weight_decay:
                update += np.multiply(param.data, self.weight_decay, out=tmp)
            update *= lr * self._scale_for(name)
            # a fresh array: callers may hold the old one
            param.data = param.data - update


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

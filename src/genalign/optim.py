"""AdamW with decoupled weight decay, plus the warmup/cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .ndiff import Tensor


class AdamW:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 5e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lr_scale: dict[str, float] | None = None,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # per-parameter multiplier on the global lr (prefix match), e.g. a
        # smaller rate for a finetuned backbone than for fresh heads
        self.lr_scale = lr_scale or {}
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def _scale_for(self, name: str) -> float:
        for prefix, scale in self.lr_scale.items():
            if name.startswith(prefix):
                return scale
        return 1.0

    def step(self, grads: dict[Tensor, np.ndarray], lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name in sorted(self.params):
            param = self.params[name]
            grad = grads.get(param)
            if grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - self.beta1) * (grad - m)
            v += (1.0 - self.beta2) * (grad * grad - v)
            step_lr = lr * self._scale_for(name)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * param.data
            param.data = param.data - step_lr * update


def warmup_cosine_lr(
    step: int, total_steps: int, base_lr: float, warmup_frac: float = 0.05
) -> float:
    """Linear warmup over the first fraction of steps, cosine decay after."""
    if total_steps <= 1:
        return base_lr
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    progress = (step - warmup) / max(1, total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))

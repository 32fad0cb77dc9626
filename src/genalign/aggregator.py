"""Permutation-invariant transformer over a patient's bag of cell embeddings.

Cells are projected by an MLP (no patchification), optionally replaced by a
learned mask token, prefixed with a CLS token, and run through pre-norm
transformer blocks with no positional encodings, so the CLS state depends
only on the multiset of cells.  ``forward`` takes a stack of equal-length
views and runs them as one batch of sequences: pretraining buckets its views
by exact length and makes one call per bucket, full-bag callers pass one bag.
Multi-crop view sampling draws global (70%) and local (20%) sub-bags with
per-view masks for the masked-prediction objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ndiff
from .ndiff import Tensor


@dataclass
class AggregatorConfig:
    depth: int = 2
    heads: int = 4
    embed_dim: int = 64
    mlp_dim: int = 0  # 0 -> 4 * embed_dim
    input_dim: int = 64
    max_cells: int = 64

    def __post_init__(self):
        if self.mlp_dim == 0:
            self.mlp_dim = 4 * self.embed_dim
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "heads": self.heads,
            "embed_dim": self.embed_dim,
            "mlp_dim": self.mlp_dim,
            "input_dim": self.input_dim,
            "max_cells": self.max_cells,
        }


@dataclass
class CellBag:
    patient_id: str
    cells: np.ndarray  # (n_cells, input_dim)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.float32)
        if self.cells.ndim != 2 or self.cells.shape[0] == 0:
            raise ValueError(f"bag {self.patient_id}: needs a non-empty (n, d) array")
        if not np.isfinite(self.cells).all():
            raise ValueError(f"bag {self.patient_id}: non-finite cell embedding")

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]


@dataclass
class BagView:
    patient_id: str
    kind: str  # "global" | "local"
    indices: np.ndarray  # positions into the bag
    mask: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    # mask holds view-local positions (into `indices`), student side only


@dataclass
class AggregatorOutput:
    cls: Tensor  # (B, D), one row per view
    tokens: Tensor  # (B * n, D): view b's cells, in order, at rows b*n .. b*n + n - 1


def cap_bag(bag: CellBag, max_cells: int, rng: np.random.Generator) -> CellBag:
    """Subsample oversized bags uniformly without replacement."""
    if bag.n_cells <= max_cells:
        return bag
    keep = rng.choice(bag.n_cells, size=max_cells, replace=False)
    return CellBag(bag.patient_id, bag.cells[keep])


def _trunc_normal(rng: np.random.Generator, shape, std=0.02):
    x = rng.standard_normal(shape) * std
    return np.clip(x, -2 * std, 2 * std)


def init_params(
    config: AggregatorConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    d = config.embed_dim

    def param(shape, std=0.02):
        return Tensor(_trunc_normal(rng, shape, std).astype(dtype), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    params: dict[str, Tensor] = {
        "embed.w1": param((config.input_dim, d)),
        "embed.b1": zeros((1, d)),
        "embed.w2": param((d, d)),
        "embed.b2": zeros((1, d)),
        "cls": param((1, d)),
        "mask_token": param((1, d)),
        "final_ln.gamma": ones((1, d)),
        "final_ln.beta": zeros((1, d)),
    }
    for i in range(config.depth):
        prefix = f"block{i}"
        params[f"{prefix}.ln1.gamma"] = ones((1, d))
        params[f"{prefix}.ln1.beta"] = zeros((1, d))
        params[f"{prefix}.ln2.gamma"] = ones((1, d))
        params[f"{prefix}.ln2.beta"] = zeros((1, d))
        params[f"{prefix}.attn.wq"] = param((d, d))
        params[f"{prefix}.attn.wk"] = param((d, d))
        params[f"{prefix}.attn.wv"] = param((d, d))
        params[f"{prefix}.attn.wo"] = param((d, d))
        params[f"{prefix}.attn.bo"] = zeros((1, d))
        params[f"{prefix}.mlp.w1"] = param((d, config.mlp_dim))
        params[f"{prefix}.mlp.b1"] = zeros((1, config.mlp_dim))
        params[f"{prefix}.mlp.w2"] = param((config.mlp_dim, d))
        params[f"{prefix}.mlp.b2"] = zeros((1, d))
    return params


def _attention(
    x: Tensor, params: dict[str, Tensor], prefix: str, config: AggregatorConfig, seq_len: int
) -> Tensor:
    out = ndiff.multi_head_attention(
        x,
        params[f"{prefix}.wq"],
        params[f"{prefix}.wk"],
        params[f"{prefix}.wv"],
        params[f"{prefix}.wo"],
        config.heads,
        seq_len,
    )
    return ndiff.add(out, params[f"{prefix}.bo"])


def mlp_forward(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Two-layer MLP ``gelu(x W1 + b1) W2 + b2`` on ``{prefix}.w1`` ... ``.b2``."""
    hidden = ndiff.gelu(ndiff.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ndiff.linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _layer_norm(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return ndiff.layer_norm(x, params[f"{prefix}.gamma"], params[f"{prefix}.beta"])


def forward(
    cells: np.ndarray | Tensor,
    mask: np.ndarray,
    params: dict[str, Tensor],
    config: AggregatorConfig,
) -> AggregatorOutput:
    """Run the aggregator on a stack of B equal-length views.

    ``cells`` is ``(B, n, input_dim)``; one ``(n, input_dim)`` view, as an
    array or as a Tensor when gradients w.r.t. the cells are wanted, is
    B=1.  ``mask`` holds one row of view-local cell positions per view,
    ``(B, m)`` (``(m,)`` for one view), whose projected embeddings are
    replaced by the learned mask token before the transformer.  The views
    run as one sequence each, ``[CLS, cells...]``, stacked as rows through
    every block: bags are sets, so equal-length views need no padding and
    no attention mask.
    """
    if isinstance(cells, Tensor):
        views = cells.data[None]
    else:
        views = np.asarray(cells, dtype=params["cls"].dtype)
        if views.ndim == 2:
            views = views[None]
    if views.ndim != 3 or views.shape[0] == 0 or views.shape[1] == 0:
        raise ValueError(f"empty bag or not a (B, n, d) stack of views: shape {views.shape}")
    b, n, width = views.shape
    if width != config.input_dim:
        raise ValueError(
            f"cell width {width} != configured input_dim {config.input_dim}"
        )
    if not isinstance(cells, Tensor):
        cells = Tensor(views.reshape(b * n, width))
    masks = np.asarray(mask, dtype=np.int64)
    if masks.ndim == 1:
        masks = masks[None]
    if masks.ndim != 2 or masks.shape[0] != b:
        raise ValueError(f"mask shape {masks.shape} does not give one row per view for {b} views")
    x = mlp_forward(cells, params, "embed")
    if masks.size:
        if masks.min() < 0 or masks.max() >= n:
            raise ValueError(f"mask positions out of range for a {n}-cell view")
        keep = np.ones((b * n, 1), dtype=x.dtype)
        keep[(np.arange(b)[:, None] * n + masks).ravel()] = 0.0
        keep_t = Tensor(keep)
        fill_t = Tensor(1.0 - keep)
        x = ndiff.add(ndiff.mul(x, keep_t), ndiff.mul(params["mask_token"], fill_t))
    # One view is already its sequence [CLS; cells] and takes row slices; a
    # stack gathers a copy of the CLS row to the head of every view.  The
    # gathers would cost a one-view call (every full-bag forward) about 5%.
    x = ndiff.concat_rows([params["cls"], x])
    seq = n + 1
    if b > 1:
        rows = np.zeros((b, seq), dtype=np.int64)
        rows[:, 1:] = np.arange(1, b * n + 1).reshape(b, n)
        x = ndiff.gather_rows(x, rows.ravel())
    for i in range(config.depth):
        prefix = f"block{i}"
        x = ndiff.add(x, _attention(_layer_norm(x, params, f"{prefix}.ln1"), params, f"{prefix}.attn", config, seq))
        x = ndiff.add(x, mlp_forward(_layer_norm(x, params, f"{prefix}.ln2"), params, f"{prefix}.mlp"))
    x = _layer_norm(x, params, "final_ln")
    if b == 1:
        return AggregatorOutput(cls=ndiff.slice_rows(x, 0, 1), tokens=ndiff.slice_rows(x, 1, seq))
    positions = np.arange(b * seq).reshape(b, seq)
    return AggregatorOutput(
        cls=ndiff.gather_rows(x, positions[:, 0]),
        tokens=ndiff.gather_rows(x, positions[:, 1:].ravel()),
    )


GLOBAL_FRACTION = 0.70
LOCAL_FRACTION = 0.20


def sample_views(
    bag: CellBag,
    k_global: int,
    k_local: int,
    mask_ratio: float,
    rng: np.random.Generator,
) -> list[BagView]:
    """Draw global and local sub-bag views, each with an independent mask."""
    if k_global < 1 or k_local < 0:
        raise ValueError("need k_global >= 1 and k_local >= 0")
    if not 0.0 <= mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in [0, 1)")
    n = bag.n_cells
    sizes = [("global", math.ceil(GLOBAL_FRACTION * n))] * k_global
    sizes += [("local", max(1, math.ceil(LOCAL_FRACTION * n)))] * k_local
    views = []
    for kind, size in sizes:
        indices = rng.choice(n, size=size, replace=False)
        n_masked = int(mask_ratio * size)
        mask = rng.choice(size, size=n_masked, replace=False) if n_masked else np.empty(0, dtype=np.int64)
        views.append(BagView(bag.patient_id, kind, indices.astype(np.int64), mask.astype(np.int64)))
    return views

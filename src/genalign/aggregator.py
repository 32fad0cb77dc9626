"""Permutation-invariant transformer over a patient's bag of cell embeddings.

Cells are projected by an MLP (no patchification).  One row gather from
``[CLS; mask token; cells]`` then builds every view's sequence ``[CLS;
cells]``, a masked cell reading the learned mask token, and the sequences
run through pre-norm transformer blocks with no positional encodings, so the
CLS state depends only on the multiset of cells.  ``forward`` has one row
layout in and one out: B views go in as stacked cell rows, and only the rows
a caller reads come out: each view's CLS row followed by its rows at the
requested token positions.  The last block runs attention queries, the MLP
and the final layer norm on those rows alone (keys and values still come
from every row), as CaiT's class-attention layers do.
Views of different lengths pack into one call, as packed sequences do
(Krell et al. 2021): the row-wise layers run once over every view's rows and
only attention is grouped per sequence.  Every caller (pretraining's sub-bag
views; alignment, embedding and evaluation's full bags) goes through
``forward_bags``, which packs its views into as few ``forward`` calls as a
per-call float budget allows.  Without a tape, attention runs its queries in
slices sized to the L2 cache against a contiguous K^T
(``ndiff.multi_head_attention``), so a bag of any size holds at most
``MAX_CALL_FLOATS`` (1,025^2) scores at once.
Multi-crop view sampling draws global (70%) and local (20%) sub-bags, with a
mask on each global view for the masked-prediction objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ndiff
from .ndiff import MAX_CALL_FLOATS, Tensor


@dataclass
class AggregatorConfig:
    depth: int = 2
    heads: int = 4
    embed_dim: int = 64
    mlp_dim: int = 0  # 0 -> 4 * embed_dim
    input_dim: int = 64
    max_cells: int = 64

    def __post_init__(self):
        for name in ("depth", "heads", "embed_dim", "input_dim", "max_cells"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.mlp_dim < 0:
            raise ValueError("mlp_dim must be >= 0")
        if self.mlp_dim == 0:
            self.mlp_dim = 4 * self.embed_dim
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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
    # mask holds view-local positions (into `indices`), global views only


def cap_bag(bag: CellBag, max_cells: int, rng: np.random.Generator) -> CellBag:
    """Subsample oversized bags uniformly without replacement."""
    if bag.n_cells <= max_cells:
        return bag
    keep = rng.choice(bag.n_cells, size=max_cells, replace=False)
    return CellBag(bag.patient_id, bag.cells[keep])


class ParamSpec(NamedTuple):
    """One parameter's shape and initial values: a normal draw of std
    ``std``, clipped at two stds when ``truncated``, or the constant ``fill``
    when ``std`` is 0.  A dict of specs names and shapes a model without
    drawing it, as ``gbio.check_tensors`` reads it."""

    shape: tuple[int, ...]
    std: float = 0.0
    fill: float = 0.0
    truncated: bool = True


def draw_params(
    specs: dict[str, ParamSpec], rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    """Trainable params of ``specs``, drawn from ``rng`` in the specs' order."""
    params = {}
    for name, spec in specs.items():
        if not spec.std:
            data = np.full(spec.shape, spec.fill, dtype)
        else:
            data = rng.standard_normal(spec.shape) * spec.std
            if spec.truncated:
                data = np.clip(data, -2 * spec.std, 2 * spec.std)
            data = data.astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def param_specs(config: AggregatorConfig) -> dict[str, ParamSpec]:
    """Every aggregator parameter, in the order ``init_params`` draws them."""
    d = config.embed_dim

    def weight(rows, cols):
        return ParamSpec((rows, cols), 0.02)

    zeros, ones = ParamSpec((1, d)), ParamSpec((1, d), fill=1.0)
    specs = {
        "embed.w1": weight(config.input_dim, d),
        "embed.b1": zeros,
        "embed.w2": weight(d, d),
        "embed.b2": zeros,
        "cls": weight(1, d),
        "mask_token": weight(1, d),
        "final_ln.gamma": ones,
        "final_ln.beta": zeros,
    }
    for i in range(config.depth):
        prefix = f"block{i}"
        specs[f"{prefix}.ln1.gamma"] = ones
        specs[f"{prefix}.ln1.beta"] = zeros
        specs[f"{prefix}.ln2.gamma"] = ones
        specs[f"{prefix}.ln2.beta"] = zeros
        specs[f"{prefix}.attn.wq"] = weight(d, d)
        specs[f"{prefix}.attn.wk"] = weight(d, d)
        specs[f"{prefix}.attn.wv"] = weight(d, d)
        specs[f"{prefix}.attn.wo"] = weight(d, d)
        specs[f"{prefix}.attn.bo"] = zeros
        specs[f"{prefix}.mlp.w1"] = weight(d, config.mlp_dim)
        specs[f"{prefix}.mlp.b1"] = ParamSpec((1, config.mlp_dim))
        specs[f"{prefix}.mlp.w2"] = weight(config.mlp_dim, d)
        specs[f"{prefix}.mlp.b2"] = zeros
    return specs


def init_params(
    config: AggregatorConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    return draw_params(param_specs(config), rng, dtype)


def _attention(
    x: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    config: AggregatorConfig,
    seq_len: np.ndarray,
    queries: np.ndarray | None = None,
) -> Tensor:
    out = ndiff.multi_head_attention(
        x,
        params[f"{prefix}.wq"],
        params[f"{prefix}.wk"],
        params[f"{prefix}.wv"],
        params[f"{prefix}.wo"],
        config.heads,
        seq_len,
        queries,
    )
    return ndiff.add(out, params[f"{prefix}.bo"])


def mlp_forward(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """MLP ``gelu(... gelu(x W1 + b1) ...) Wk + bk`` as one ``ndiff.mlp``
    node on ``{prefix}.w1``, ``.b1`` and on every further layer ``.w{i}``,
    ``.b{i}`` the params hold."""
    k = 1
    while f"{prefix}.w{k + 1}" in params:
        k += 1
    return ndiff.mlp(x, *(params[f"{prefix}.{kind}{i}"] for i in range(1, k + 1) for kind in "wb"))


def _layer_norm(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return ndiff.layer_norm(x, params[f"{prefix}.gamma"], params[f"{prefix}.beta"])


def forward(
    cells: np.ndarray | Tensor,
    mask: np.ndarray | list[np.ndarray],
    params: dict[str, Tensor],
    config: AggregatorConfig,
    tokens: np.ndarray | list[np.ndarray] | None = None,
    lengths: np.ndarray | list[int] | None = None,
) -> Tensor:
    """Run the aggregator on B views packed as stacked cell rows.

    ``cells`` holds the views' cell rows one view after another, as an array
    or as a Tensor when gradients w.r.t. the cells are wanted.  View b has
    ``lengths[b]`` cells, and ``mask`` and ``tokens`` hold one 1-D array of
    view-local cell positions per view, of any sizes; without ``lengths``,
    every row is one view and ``mask`` and ``tokens`` are its 1-D position
    arrays.  The masked cells' projected embeddings are replaced by the
    learned mask token before the transformer; ``tokens`` are the positions
    whose output rows are read.  Returns the final-layer-norm hidden rows,
    view by view: view b's CLS row, then its rows at ``tokens[b]`` in that
    order; without tokens, the CLS rows ``(B, D)``.

    Each view runs as one sequence ``[CLS, cells...]``: bags are sets, so
    views need no padding and no attention mask.  Every row-wise layer (the
    cell MLP, layer norms, residual adds, block MLPs) runs once over the rows
    of all views; only attention is grouped per sequence.  Every block but
    the last runs on all rows.  The last block normalizes all rows, so its
    keys and values are complete, but runs attention, the MLP and the final
    layer norm only on the rows it returns.
    """
    if not isinstance(cells, Tensor):
        cells = Tensor(np.asarray(cells, dtype=params["cls"].dtype))
    if cells.data.ndim != 2 or cells.shape[0] == 0:
        raise ValueError(f"empty bag or not (rows, input_dim) cells: shape {cells.shape}")
    if cells.shape[1] != config.input_dim:
        raise ValueError(
            f"cell width {cells.shape[1]} != configured input_dim {config.input_dim}"
        )
    if lengths is None:  # every row is one view
        lengths, mask, tokens = [cells.shape[0]], [mask], None if tokens is None else [tokens]
    lengths = np.asarray(lengths, dtype=np.int64)
    b = lengths.size
    if lengths.ndim != 1 or not b or lengths.min() < 1 or lengths.sum() != cells.shape[0]:
        raise ValueError(f"view lengths {lengths.tolist()} do not split {cells.shape[0]} cell rows")
    masks = [np.asarray(m, dtype=np.int64) for m in mask]
    tokens = ([np.empty(0, np.int64)] * b if tokens is None
              else [np.asarray(t, dtype=np.int64) for t in tokens])
    for name, positions in (("mask", masks), ("tokens", tokens)):
        if len(positions) != b or any(p.ndim != 1 for p in positions):
            raise ValueError(f"{name} does not give one 1-D position array per view of {b}")
    # each entry's view and position, flat over all views
    mask_view, mask_pos = _flatten(masks)
    token_view, token_pos = _flatten(tokens)
    for name, view, positions in (("mask", mask_view, mask_pos), ("tokens", token_view, token_pos)):
        bad = (positions < 0) | (positions >= lengths[view])
        if bad.any():
            raise ValueError(f"{name} positions out of range for a {lengths[view[bad][0]]}-cell view")
    x = mlp_forward(cells, params, "embed")
    # One gather from the rows [CLS; mask token; cells] builds each view's
    # [CLS; cells], a masked cell reading the mask token.  The mask token
    # joins only when a cell is masked: an unmasked call gives it no gradient.
    table = [params["cls"], params["mask_token"], x] if mask_pos.size else [params["cls"], x]
    seq = lengths + 1
    first = np.cumsum(seq) - seq  # each view's CLS row
    # sequence row r of view v reads cell row r - v - 1
    rows = len(table) - 2 + np.arange(seq.sum()) - np.repeat(np.arange(b), seq)
    rows[first] = 0
    rows[first[mask_view] + 1 + mask_pos] = 1
    x = ndiff.gather_rows(table, rows)
    # the rows returned: each view's CLS row, then its token rows
    n_tokens = np.bincount(token_view, minlength=b)
    read = np.repeat(first, 1 + n_tokens)
    is_token = np.ones(read.size, bool)
    is_token[np.arange(b) + np.cumsum(n_tokens) - n_tokens] = False
    read[is_token] += 1 + token_pos
    for i in range(config.depth):
        prefix = f"block{i}"
        h = _layer_norm(x, params, f"{prefix}.ln1")
        if i < config.depth - 1:
            x = ndiff.add(x, _attention(h, params, f"{prefix}.attn", config, seq))
        else:
            attn = _attention(h, params, f"{prefix}.attn", config, seq, read)
            x = ndiff.add(ndiff.gather_rows(x, read), attn)
        x = ndiff.add(x, mlp_forward(_layer_norm(x, params, f"{prefix}.ln2"), params, f"{prefix}.mlp"))
    return _layer_norm(x, params, "final_ln")


def _flatten(positions: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-view 1-D position arrays as each entry's view and position."""
    return np.repeat(np.arange(len(positions)), [p.size for p in positions]), np.concatenate(positions)


def forward_bags(
    cells: list[np.ndarray],
    params: dict[str, Tensor],
    config: AggregatorConfig,
    masks: list[np.ndarray] | None = None,
    tokens: list[np.ndarray] | None = None,
) -> Tensor:
    """Run views of any lengths: view i's ``(n_i, input_dim)`` cell rows and,
    as in ``forward``, its mask and token positions (none when omitted).  The
    views, sorted by (length, mask count, token count), are packed into as
    few ``forward`` calls as ``MAX_CALL_FLOATS`` allows, a view of n cells
    counting its attention scores, heads * (n + 1)^2, plus one MLP
    activation row per token, (n + 1) * mlp_dim.  A view over that budget
    runs alone.  Without a tape, attention queries run in slices of about
    ``ndiff.SCORE_TILE_FLOATS`` scores, at least ``ndiff.SLICE_MIN_ROWS``
    query rows and never more than ``MAX_CALL_FLOATS`` scores: at 4 heads,
    seven 64-cell views to a slice, 48 query rows of a 1,024-cell bag
    (196,800 scores) and 43 of a 6,000-cell one (1,032,172), so no bag
    holds its whole score tensor.  Returns every view's CLS row in input
    order, then each view's token rows."""
    if not len(cells):
        raise ValueError("forward_bags: no views were given")
    none = [np.empty(0, np.int64)] * len(cells)
    masks, tokens = (none if m is None else [np.asarray(x, np.int64) for x in m] for m in (masks, tokens))
    if not len(masks) == len(tokens) == len(cells):
        raise ValueError(f"{len(cells)} views, {len(masks)} masks and {len(tokens)} token arrays")
    lengths = np.array([len(c) for c in cells])
    n_tokens = np.array([t.size for t in tokens])
    order = np.lexsort((n_tokens, [m.size for m in masks], lengths))
    cost = config.heads * (lengths + 1) ** 2 + (lengths + 1) * config.mlp_dim
    chunks, used = [[]], 0
    for i in order:
        if chunks[-1] and used + cost[i] > MAX_CALL_FLOATS:
            chunks.append([])
            used = 0
        chunks[-1].append(i)
        used += cost[i]
    hidden = [forward(np.concatenate([cells[i] for i in chunk]), [masks[i] for i in chunk], params,
                      config, [tokens[i] for i in chunk], lengths[chunk])
              for chunk in chunks]
    view = np.repeat(order, 1 + n_tokens[order])  # each view's CLS row, then its token rows
    slot = np.concatenate([np.arange(1 + n_tokens[i]) for i in order])
    # CLS rows (slot 0) first, then token rows, each ordered by view, then slot
    return ndiff.gather_rows(hidden, np.lexsort((slot, view, slot > 0)))


GLOBAL_FRACTION = 0.70
LOCAL_FRACTION = 0.20


def sample_views(
    bag: CellBag,
    k_global: int,
    k_local: int,
    mask_ratio: float,
    rng: np.random.Generator,
) -> list[BagView]:
    """Draw global and local sub-bag views; each global view gets its own mask."""
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
        n_masked = int(mask_ratio * size) if kind == "global" else 0
        mask = rng.choice(size, size=n_masked, replace=False) if n_masked else np.empty(0, dtype=np.int64)
        views.append(BagView(bag.patient_id, kind, indices.astype(np.int64), mask.astype(np.int64)))
    return views

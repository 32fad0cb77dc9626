"""Self-supervised stage 1: CLS alignment across views plus masked-cell
prediction, trained student/teacher with an EMA teacher.

Per batch: each patient's bag is subsampled into global and local views; the
student sees every view with a random cell mask, the teacher sees the same
views unmasked.  CLS distributions over learned prototypes are matched across
(teacher global, student view) pairs; masked token distributions are matched
against the teacher's unmasked token output on the same view.  Teacher logits
are centered (running mean) and sharpened with a lower temperature.

Views are bucketed by exact length (length ascending, then (patient, view)),
and each bucket is one aggregator forward per side, as DINO's multi-crop
wrapper runs same-size crops together.  The head runs once on all CLS rows
and once on all masked-token rows per side: four head calls per step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gbio, ndiff
from .aggregator import (
    AggregatorConfig, BagView, CellBag, _trunc_normal, forward, init_params, sample_views,
)
from .ndiff import Tape, Tensor
from .optim import AdamW, warmup_cosine_lr


class TrainingError(RuntimeError):
    pass


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 0.04
    warmup_frac: float = 0.05
    ibot_weight: float = 1.0
    student_temp: float = 0.1
    teacher_temp_start: float = 0.04
    teacher_temp_end: float = 0.07
    teacher_temp_warmup_frac: float = 0.10
    center_momentum: float = 0.9
    ema_momentum: float = 0.99
    k_global: int = 2
    k_local: int = 8
    mask_ratio: float = 0.3
    n_prototypes: int = 256
    head_hidden: int = 256
    head_bottleneck: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.student_temp <= 0 or self.teacher_temp_start <= 0 or self.teacher_temp_end <= 0:
            raise ValueError("temperatures must be positive")
        if not 0 < self.ema_momentum < 1:
            raise ValueError("ema_momentum must be in (0, 1)")
        if not 0 <= self.center_momentum < 1:
            raise ValueError("center_momentum must be in [0, 1)")
        if self.k_global < 1 or self.k_global + self.k_local < 2:
            raise ValueError("need at least one global view and two views total")

    def teacher_temp_at(self, epoch: int) -> float:
        warm = max(1, int(round(self.teacher_temp_warmup_frac * self.epochs)))
        if epoch >= warm:
            return self.teacher_temp_end
        frac = (epoch + 1) / warm
        return self.teacher_temp_start + frac * (self.teacher_temp_end - self.teacher_temp_start)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def init_head_params(
    embed_dim: int, config: PretrainConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    def param(shape, std=0.02):
        return Tensor(_trunc_normal(rng, shape, std).astype(dtype), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    h, b = config.head_hidden, config.head_bottleneck
    return {
        "head.w1": param((embed_dim, h)),
        "head.b1": zeros((1, h)),
        "head.w2": param((h, h)),
        "head.b2": zeros((1, h)),
        "head.w3": param((h, b)),
        "head.b3": zeros((1, b)),
        "head.proto": param((config.n_prototypes, b), std=0.1),
    }


def head_forward(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """MLP to an l2-normalized bottleneck, then prototype logits.

    Prototype rows are normalized in-graph, so they stay unit vectors no
    matter what the optimizer did to the raw parameter.
    """
    h = ndiff.gelu(ndiff.add(ndiff.matmul(x, params["head.w1"]), params["head.b1"]))
    h = ndiff.gelu(ndiff.add(ndiff.matmul(h, params["head.w2"]), params["head.b2"]))
    z = ndiff.add(ndiff.matmul(h, params["head.w3"]), params["head.b3"])
    z = ndiff.l2_normalize(z, axis=-1)
    protos = ndiff.l2_normalize(params["head.proto"], axis=-1)
    return ndiff.matmul(z, ndiff.transpose(protos))


def teacher_probs(logits: np.ndarray, center: np.ndarray, teacher_temp: float) -> np.ndarray:
    """Centered, sharpened teacher distribution (plain numpy: stop-gradient)."""
    shifted = (logits - center) / teacher_temp
    shifted -= shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dino_loss(
    teacher_cls_logits: list[Tensor],
    student_cls_logits: list[Tensor],
    center: np.ndarray,
    teacher_temp: float,
    student_temp: float,
) -> Tensor:
    """Mean CE over (teacher global g, student view k != g) pairs."""
    if len(teacher_cls_logits) < 1 or len(student_cls_logits) < 2:
        raise ValueError("need >= 1 teacher global and >= 2 student views")
    total = None
    n_pairs = 0
    for g, t_logits in enumerate(teacher_cls_logits):
        p_t = Tensor(
            teacher_probs(t_logits.data, center, teacher_temp).astype(t_logits.dtype)
        )
        for k, s_logits in enumerate(student_cls_logits):
            if k == g:
                continue
            log_q = ndiff.log_softmax(ndiff.scalar_mul(s_logits, 1.0 / student_temp))
            ce = ndiff.mean(ndiff.cross_entropy(p_t, log_q))
            total = ce if total is None else ndiff.add(total, ce)
            n_pairs += 1
    return ndiff.scalar_mul(total, 1.0 / n_pairs)


def masked_token_ce(
    teacher_masked_logits: np.ndarray,
    student_masked_logits: Tensor,
    center: np.ndarray,
    teacher_temp: float,
    student_temp: float,
) -> Tensor:
    """Mean CE between teacher and student distributions at masked tokens
    (rows already gathered)."""
    p_t = teacher_probs(teacher_masked_logits, center, teacher_temp).astype(
        student_masked_logits.dtype
    )
    log_q = ndiff.log_softmax(
        ndiff.scalar_mul(student_masked_logits, 1.0 / student_temp)
    )
    return ndiff.mean(ndiff.cross_entropy(Tensor(p_t), log_q))


def ema_update(
    teacher_params: dict[str, Tensor], student_params: dict[str, Tensor], momentum: float
) -> None:
    if set(teacher_params) != set(student_params):
        raise ValueError("teacher/student parameter names differ")
    for name, t in teacher_params.items():
        s = student_params[name]
        if t.shape != s.shape:
            raise ValueError(f"{name}: shape {t.shape} vs {s.shape}")
        t.data = momentum * t.data + (1.0 - momentum) * s.data


def center_update(center: np.ndarray, teacher_logits: np.ndarray, momentum: float) -> np.ndarray:
    if teacher_logits.size == 0:
        raise ValueError("empty teacher logit batch")
    batch_mean = teacher_logits.reshape(-1, teacher_logits.shape[-1]).mean(axis=0)
    return momentum * center + (1.0 - momentum) * batch_mean


@dataclass
class TeacherState:
    params: dict[str, Tensor]
    center: np.ndarray
    momentum: float


def _copy_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(v.data.copy()) for k, v in params.items()}


def embed_bags(
    bags: list[CellBag], params: dict[str, Tensor], config: AggregatorConfig
) -> np.ndarray:
    """CLS embedding of each full bag (no masking, no gradient)."""
    out = np.zeros((len(bags), config.embed_dim), dtype=np.float32)
    for i, bag in enumerate(bags):
        out[i] = forward(bag.cells, np.empty(0, np.int64), params, config).cls.data[0]
    return out


def cls_dimension_std(embeddings: np.ndarray) -> float:
    """Collapse diagnostic: mean per-dimension std of l2-normalized rows."""
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    normed = embeddings / np.maximum(norms, 1e-12)
    return float(normed.std(axis=0).mean())


@dataclass
class PretrainResult:
    student_params: dict[str, Tensor]
    teacher: TeacherState
    metrics: list[dict] = field(default_factory=list)
    agg_config: AggregatorConfig = None
    config: PretrainConfig = None

    def save(self, path: str | Path) -> None:
        tensors: dict[str, np.ndarray] = {}
        for name, p in self.student_params.items():
            tensors[f"student.{name}"] = p.data
        for name, p in self.teacher.params.items():
            tensors[f"teacher.{name}"] = p.data
        tensors["center"] = self.teacher.center
        gbio.write_gbck(
            path,
            tensors,
            config={
                "stage": "pretrain",
                "aggregator": self.agg_config.to_dict(),
                "pretrain": self.config.to_dict(),
            },
            epoch=len(self.metrics),
            seed=self.config.seed,
        )


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], TeacherState, dict]:
    """Student params, teacher state, and the stored config header."""
    tensors, header = gbio.read_gbck(path)
    student: dict[str, Tensor] = {}
    teacher: dict[str, Tensor] = {}
    center = None
    for name, arr in tensors.items():
        if name.startswith("student."):
            student[name[len("student."):]] = Tensor(arr, requires_grad=True)
        elif name.startswith("teacher."):
            teacher[name[len("teacher."):]] = Tensor(arr)
        elif name == "center":
            center = arr
    momentum = header["config"].get("pretrain", {}).get("ema_momentum", 0.99)
    state = TeacherState(teacher, center if center is not None else np.zeros(1), momentum)
    return student, state, header["config"]


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def train_pretrain(
    bags: list[CellBag],
    agg_config: AggregatorConfig,
    config: PretrainConfig,
    metrics_path: str | Path | None = None,
) -> PretrainResult:
    if not bags:
        raise TrainingError("no bags to train on")
    rng = np.random.default_rng(config.seed)
    student = init_params(agg_config, rng)
    student.update(init_head_params(agg_config.embed_dim, config, rng))
    teacher = TeacherState(
        params=_copy_params(student),
        center=np.zeros(config.n_prototypes, dtype=np.float32),
        momentum=config.ema_momentum,
    )
    optimizer = AdamW(student, lr=config.lr, weight_decay=config.weight_decay)
    n_batches = math.ceil(len(bags) / config.batch_size)
    total_steps = config.epochs * n_batches
    metrics: list[dict] = []
    if metrics_path is not None:
        gbio.write_metrics(metrics_path, metrics)  # drop any earlier run's log
    step = 0
    for epoch in range(config.epochs):
        teacher_temp = config.teacher_temp_at(epoch)
        epoch_dino = epoch_ibot = epoch_total = 0.0
        batches = _batches(len(bags), config.batch_size, rng)
        for batch_idx, batch in enumerate(batches):
            views_per_patient = [
                sample_views(bags[i], config.k_global, config.k_local, config.mask_ratio, rng)
                for i in batch
            ]
            batch_id = f"epoch{epoch}/batch{batch_idx}"
            dino_value, ibot_value, loss_value = _train_step(
                [bags[i] for i in batch],
                views_per_patient,
                student,
                teacher,
                optimizer,
                agg_config,
                config,
                teacher_temp,
                warmup_cosine_lr(step, total_steps, config.lr, config.warmup_frac),
                batch_id,
            )
            epoch_dino += dino_value * len(batch)
            epoch_ibot += ibot_value * len(batch)
            epoch_total += loss_value * len(batch)
            step += 1
        embeddings = embed_bags(bags, student, agg_config)
        record = {
            "epoch": epoch,
            "dino_loss": epoch_dino / len(bags),
            "ibot_loss": epoch_ibot / len(bags),
            "total": epoch_total / len(bags),
            "cls_std": cls_dimension_std(embeddings),
        }
        metrics.append(record)
        if metrics_path is not None:
            gbio.write_metrics(metrics_path, metrics)
    return PretrainResult(student, teacher, metrics, agg_config, config)


def _bucketed_pass(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: PretrainConfig,
    student: bool,
) -> tuple[Tensor, Tensor | None]:
    """Run a batch's views through the aggregator, one forward per exact
    view length, in buckets by length ascending, then (patient, view).

    The student runs every view with its masked cells replaced by the mask
    token; the teacher runs the global views, plus every masked view when
    iBOT is on, unmasked.  Returns the CLS rows of the student's views or
    the teacher's global views in [view][patient] order, and with iBOT on
    the token rows at every masked position, in bucket order and within a
    view in mask order (``None`` when nothing is masked).  The order depends
    only on the views, so the teacher's masked rows line up with the
    student's.
    """
    n_cls_views = config.k_global + config.k_local if student else config.k_global
    with_tokens = config.ibot_weight != 0
    order = sorted(
        (len(view.indices), p, v)
        for p, views in enumerate(views_per_patient)
        for v, view in enumerate(views)
        if v < n_cls_views or (with_tokens and view.mask.size)
    )
    cls_parts, token_parts = [], []
    for _, bucket in itertools.groupby(order, key=lambda key: key[0]):
        pairs = [(p, views_per_patient[p][v]) for _, p, v in bucket]
        cells = np.stack([batch_bags[p].cells[view.indices] for p, view in pairs])
        if student:
            mask = np.stack([view.mask for _, view in pairs])
        else:
            mask = np.empty((len(pairs), 0), dtype=np.int64)
        out = forward(cells, mask, params, agg_config)
        cls_parts.append(out.cls)
        token_parts.append(out.tokens)
    position = {(p, v): i for i, (_, p, v) in enumerate(order)}
    cls = ndiff.gather_rows(
        ndiff.concat_rows(cls_parts),
        [position[(p, v)] for v in range(n_cls_views) for p in range(len(batch_bags))],
    )
    if not with_tokens:
        return cls, None
    starts = np.cumsum([0] + [n for n, _, _ in order])[:-1]
    masked_rows = np.concatenate(
        [start + views_per_patient[p][v].mask for start, (_, p, v) in zip(starts, order)]
    )
    if not masked_rows.size:
        return cls, None
    return cls, ndiff.gather_rows(ndiff.concat_rows(token_parts), masked_rows)


def teacher_targets(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    teacher_params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: PretrainConfig,
) -> tuple[list[Tensor], np.ndarray | None]:
    """Teacher pass, unmasked and untaped: CLS logits per global view (rows
    stacked over patients) and the token logits at every masked position,
    in the student's row order (``None`` when nothing is masked)."""
    cls, masked_tokens = _bucketed_pass(
        batch_bags, views_per_patient, teacher_params, agg_config, config, student=False
    )
    cls_logits = head_forward(cls, teacher_params)
    n_p = len(batch_bags)
    teacher_cls_logits = [
        ndiff.slice_rows(cls_logits, v * n_p, (v + 1) * n_p) for v in range(config.k_global)
    ]
    if masked_tokens is None:
        return teacher_cls_logits, None
    return teacher_cls_logits, head_forward(masked_tokens, teacher_params).data


def pretrain_objective(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    student: dict[str, Tensor],
    targets: tuple[list[Tensor], np.ndarray | None],
    center: np.ndarray,
    agg_config: AggregatorConfig,
    config: PretrainConfig,
    teacher_temp: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """Student pass against ``teacher_targets``: (dino, ibot, total).

    The views run one aggregator forward per exact length, and the head
    runs once on all CLS rows and once on all masked token rows (gathered
    before the head, so it never sees unmasked tokens).  ibot is the token
    CE averaged over every masked row of the batch, which weights each
    view by its mask size, and 0 when nothing is masked."""
    teacher_cls_logits, teacher_masked_logits = targets
    n_views = config.k_global + config.k_local
    cls, masked_tokens = _bucketed_pass(
        batch_bags, views_per_patient, student, agg_config, config, student=True
    )
    cls_logits = head_forward(cls, student)
    n_p = len(batch_bags)
    student_cls_logits = [
        ndiff.slice_rows(cls_logits, v * n_p, (v + 1) * n_p) for v in range(n_views)
    ]
    dino = dino_loss(
        teacher_cls_logits, student_cls_logits, center, teacher_temp, config.student_temp
    )
    if masked_tokens is None:
        return dino, Tensor(np.zeros((), dtype=np.float32)), dino
    ibot = masked_token_ce(
        teacher_masked_logits,
        head_forward(masked_tokens, student),
        center,
        teacher_temp,
        config.student_temp,
    )
    return dino, ibot, ndiff.add(dino, ndiff.scalar_mul(ibot, config.ibot_weight))


def _train_step(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    student: dict[str, Tensor],
    teacher: TeacherState,
    optimizer: AdamW,
    agg_config: AggregatorConfig,
    config: PretrainConfig,
    teacher_temp: float,
    lr: float,
    batch_id: str,
) -> tuple[float, float, float]:
    targets = teacher_targets(batch_bags, views_per_patient, teacher.params, agg_config, config)
    with Tape() as tape:
        dino, ibot, loss = pretrain_objective(
            batch_bags, views_per_patient, student, targets, teacher.center,
            agg_config, config, teacher_temp,
        )
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingError(f"non-finite loss in {batch_id}")
    grads = tape.backward(loss)
    optimizer.step(grads, lr=lr)
    ema_update(teacher.params, student, teacher.momentum)
    teacher.center = center_update(
        teacher.center,
        np.concatenate([t.data for t in targets[0]], axis=0),
        config.center_momentum,
    )
    return float(dino.data), float(ibot.data), loss_value

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
wrapper runs same-size crops together.  Each side's CLS rows and masked-token
rows stay stacked in one row matrix from the aggregator to the loss: the head
runs once per side (two head calls per step), and one log-softmax and one
cross entropy score every student row.
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
    h = ndiff.gelu(ndiff.linear(x, params["head.w1"], params["head.b1"]))
    h = ndiff.gelu(ndiff.linear(h, params["head.w2"], params["head.b2"]))
    z = ndiff.linear(h, params["head.w3"], params["head.b3"])
    z = ndiff.l2_normalize(z, axis=-1)
    protos = ndiff.l2_normalize(params["head.proto"], axis=-1)
    return ndiff.matmul(z, ndiff.transpose(protos))


def teacher_probs(logits: np.ndarray, center: np.ndarray, teacher_temp: float) -> np.ndarray:
    """Centered, sharpened teacher distribution (plain numpy: stop-gradient)."""
    shifted = (logits - center) / teacher_temp
    shifted -= shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dino_ibot_loss(
    teacher_logits: np.ndarray,
    student_logits: Tensor,
    n_patients: int,
    center: np.ndarray,
    teacher_temp: float,
    config: PretrainConfig,
) -> tuple[Tensor, Tensor, Tensor]:
    """(dino, ibot, total) on stacked rows: one log-softmax and one cross
    entropy over every student row.

    Teacher rows are the CLS rows of the ``k_global`` global views, then the
    token rows at every masked position; student rows are the CLS rows of all
    ``k_global + k_local`` views, then the same masked positions.  CLS rows
    are in [view][patient] order.  dino is the mean CE over (teacher global
    g, student view k != g) pairs; CE is linear in its target, so each
    student CLS row is scored once against the sum of its pairs' teacher
    distributions.  ibot is the mean CE over the masked rows, which weights
    each view by its mask size, and 0 when nothing is masked.
    """
    n_views = config.k_global + config.k_local
    n_cls = n_views * n_patients
    n_global = config.k_global * n_patients
    p_t = teacher_probs(teacher_logits, center, teacher_temp).astype(student_logits.dtype)
    p_global = p_t[:n_global].reshape(config.k_global, n_patients, -1)
    cls_target = np.tile(p_global.sum(axis=0), (n_views, 1))
    cls_target[:n_global] -= p_t[:n_global]  # a global view is not paired with itself
    log_q = ndiff.log_softmax(ndiff.scalar_mul(student_logits, 1.0 / config.student_temp))
    ce = ndiff.cross_entropy(Tensor(np.concatenate([cls_target, p_t[n_global:]])), log_q)
    n_pairs = config.k_global * (n_views - 1)
    dino = ndiff.scalar_mul(ndiff.mean(ndiff.slice_rows(ce, 0, n_cls)), n_views / n_pairs)
    if ce.shape[0] == n_cls:
        return dino, Tensor(np.zeros((), dtype=student_logits.dtype)), dino
    ibot = ndiff.mean(ndiff.slice_rows(ce, n_cls, ce.shape[0]))
    return dino, ibot, ndiff.add(dino, ndiff.scalar_mul(ibot, config.ibot_weight))


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
    """Student params, teacher state, and the stored config header of a
    stage-1 checkpoint; any other file is refused with ``gbio.FormatError``."""
    tensors, header = gbio.read_gbck(path)
    stage = header["config"].get("stage")
    if stage != "pretrain":
        raise gbio.FormatError(f"{path}: stage {stage!r} is not a pretraining checkpoint")
    if "center" not in tensors:
        raise gbio.FormatError(f"{path}: pretraining checkpoint has no 'center' tensor")
    student: dict[str, Tensor] = {}
    teacher: dict[str, Tensor] = {}
    for name, arr in tensors.items():
        if name.startswith("student."):
            student[name[len("student."):]] = Tensor(arr, requires_grad=True)
        elif name.startswith("teacher."):
            teacher[name[len("teacher."):]] = Tensor(arr)
    return student, TeacherState(teacher, tensors["center"]), header["config"]


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
) -> Tensor:
    """Run a batch's views through the aggregator, one forward per exact
    view length, in buckets by length ascending, then (patient, view), and
    the head once on the stacked rows.

    The student runs every view with its masked cells replaced by the mask
    token; the teacher runs the global views, plus every masked view when
    iBOT is on, unmasked.  Returns the head logits of one row matrix: the
    CLS rows of the student's views or the teacher's global views in
    [view][patient] order, then, with iBOT on, the token rows at every
    masked position, in bucket order and within a view in mask order.  The
    order depends only on the views, so the teacher's masked rows line up
    with the student's.
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
    rows = [position[(p, v)] for v in range(n_cls_views) for p in range(len(batch_bags))]
    parts = cls_parts
    if with_tokens:
        # token rows follow the len(order) CLS rows in the concatenation
        starts = len(order) + np.cumsum([0] + [n for n, _, _ in order])[:-1]
        masked = [start + views_per_patient[p][v].mask for start, (_, p, v) in zip(starts, order)]
        rows = np.concatenate([rows, *masked])
        parts = cls_parts + token_parts
    return head_forward(ndiff.gather_rows(ndiff.concat_rows(parts), rows), params)


def teacher_targets(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    teacher_params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: PretrainConfig,
) -> np.ndarray:
    """Teacher pass, unmasked and untaped: logits of the global views' CLS
    rows, then of the tokens at every masked position, in the student's row
    order (see ``dino_ibot_loss``)."""
    return _bucketed_pass(
        batch_bags, views_per_patient, teacher_params, agg_config, config, student=False
    ).data


def pretrain_objective(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    student: dict[str, Tensor],
    targets: np.ndarray,
    center: np.ndarray,
    agg_config: AggregatorConfig,
    config: PretrainConfig,
    teacher_temp: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """Student pass against ``teacher_targets``: (dino, ibot, total).

    The views run one aggregator forward per exact length and the head runs
    once on all CLS and masked token rows (gathered before the head, so it
    never sees unmasked tokens); ``dino_ibot_loss`` scores them."""
    logits = _bucketed_pass(
        batch_bags, views_per_patient, student, agg_config, config, student=True
    )
    return dino_ibot_loss(targets, logits, len(batch_bags), center, teacher_temp, config)


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
    ema_update(teacher.params, student, config.ema_momentum)
    teacher.center = center_update(
        teacher.center, targets[: config.k_global * len(batch_bags)], config.center_momentum
    )
    return float(dino.data), float(ibot.data), loss_value

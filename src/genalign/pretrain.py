"""Self-supervised stage 1: CLS alignment across views plus masked-cell
prediction, trained student/teacher with an EMA teacher.

Per batch: each patient's bag is subsampled into global and local views; the
student sees every view, the global ones with a random cell mask; the teacher
sees the global views alone, unmasked (iBOT, DINO multi-crop).  CLS
distributions over learned prototypes are matched across (teacher global,
student view) pairs; masked token distributions are matched against the
teacher's unmasked tokens of the same global view.  Teacher logits are
centered (running mean) and sharpened with a lower temperature.

A step's two passes, ``teacher_targets`` and ``pretrain_objective``, each run
their views in one ``aggregator.forward_bags`` call, which packs views of
every length into as few forwards as its budget allows (DINO's multi-crop
wrapper runs each crop size separately); it returns only each view's CLS row
and its rows at the masked positions (with iBOT on).  Those rows stay stacked in one row matrix from the aggregator to
the loss: the head runs once per pass (two head calls per step), and one
log-softmax and one cross entropy score every student row.

The schedule and the checked step are ``optim.AdamW.checked_step``'s.
``load_checkpoint`` hands stage 2 the student's aggregator alone, checked
against its header's aggregator config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gbio, ndiff
from .aggregator import (  # noqa: F401 (`forward` is not called; perfbench's tracer test looks it up)
    AggregatorConfig, BagView, CellBag, ParamSpec, draw_params, forward, forward_bags, init_params, mlp_forward,
    param_specs, sample_views,
)
from .ndiff import Tape, Tensor
from .optim import AdamW, TrainingError


# DINO's teacher schedule (Caron et al. 2021): temperature warm-up over the
# first tenth of the epochs, and the momentum of the teacher logits' center
TEACHER_TEMP_START = 0.04
TEACHER_TEMP_END = 0.07
TEACHER_TEMP_WARMUP_FRAC = 0.10
CENTER_MOMENTUM = 0.9


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 0.04
    ibot_weight: float = 1.0
    student_temp: float = 0.1
    ema_momentum: float = 0.99
    k_global: int = 2
    k_local: int = 8
    mask_ratio: float = 0.3
    n_prototypes: int = 256
    head_hidden: int = 256
    head_bottleneck: int = 64
    seed: int = 0

    def __post_init__(self):
        gbio.check_finite_floats(self)
        for name in ("epochs", "batch_size", "n_prototypes", "head_hidden", "head_bottleneck"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("weight_decay", "ibot_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.student_temp <= 0:
            raise ValueError("student_temp must be positive")
        if not 0 < self.ema_momentum < 1:
            raise ValueError("ema_momentum must be in (0, 1)")
        if self.k_global < 1 or self.k_global + self.k_local < 2:
            raise ValueError("need at least one global view and two views total")
        if self.k_local < 0:
            raise ValueError("k_local must be >= 0")
        if not 0 <= self.mask_ratio < 1:
            raise ValueError("mask_ratio must be in [0, 1)")

    def teacher_temp_at(self, epoch: int) -> float:
        warm = max(1, int(round(TEACHER_TEMP_WARMUP_FRAC * self.epochs)))
        if epoch >= warm:
            return TEACHER_TEMP_END
        frac = (epoch + 1) / warm
        return TEACHER_TEMP_START + frac * (TEACHER_TEMP_END - TEACHER_TEMP_START)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def init_head_params(
    embed_dim: int, config: PretrainConfig, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    h, b = config.head_hidden, config.head_bottleneck
    return draw_params({
        "head.w1": ParamSpec((embed_dim, h), 0.02),
        "head.b1": ParamSpec((1, h)),
        "head.w2": ParamSpec((h, h), 0.02),
        "head.b2": ParamSpec((1, h)),
        "head.w3": ParamSpec((h, b), 0.02),
        "head.b3": ParamSpec((1, b)),
        "head.proto": ParamSpec((config.n_prototypes, b), 0.1),
    }, rng, dtype)


def head_forward(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """The 3-layer head MLP (``head.w1`` ... ``head.b3``, one ``ndiff.mlp``
    node) to an l2-normalized bottleneck, then prototype logits.

    Prototype rows are normalized in-graph, so they stay unit vectors no
    matter what the optimizer did to the raw parameter.
    """
    z = ndiff.l2_normalize(mlp_forward(x, params, "head"))
    protos = ndiff.l2_normalize(params["head.proto"])
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
    dino = ndiff.scalar_mul(ndiff.mean(ndiff.gather_rows(ce, np.arange(n_cls))), n_views / n_pairs)
    if ce.shape[0] == n_cls:
        return dino, Tensor(np.zeros((), dtype=student_logits.dtype)), dino
    ibot = ndiff.mean(ndiff.gather_rows(ce, np.arange(n_cls, ce.shape[0])))
    return dino, ibot, ndiff.add(dino, ndiff.scalar_mul(ibot, config.ibot_weight))


def ema_update(
    teacher_params: dict[str, Tensor], student_params: dict[str, Tensor], momentum: float
) -> None:
    """teacher = momentum * teacher + (1 - momentum) * student, each
    teacher array updated in place: the out-of-place formula's operations in
    its order, the student term in one scratch array per dtype."""
    if set(teacher_params) != set(student_params):
        raise ValueError("teacher/student parameter names differ")
    for name, t in teacher_params.items():
        s = student_params[name]
        if t.shape != s.shape or t.dtype != s.dtype:
            raise ValueError(f"{name}: teacher {t.dtype.name} of shape {t.shape}, "
                             f"student {s.dtype.name} of shape {s.shape}")
    size = max((t.data.size for t in teacher_params.values()), default=0)
    scratch = {dtype: np.empty(size, dtype) for dtype in {t.dtype for t in teacher_params.values()}}
    for name, t in teacher_params.items():
        s = student_params[name].data
        t.data *= momentum
        t.data += np.multiply(s, 1.0 - momentum, out=scratch[t.dtype][: s.size].reshape(s.shape))


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
    if not bags:
        return np.zeros((0, config.embed_dim), dtype=np.float32)
    return forward_bags([bag.cells for bag in bags], params, config).data.astype(np.float32)


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
        gbio.write_checkpoint(path, tensors, "pretrain", self.agg_config, self.config)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], AggregatorConfig]:
    """The student's aggregator params (no head) and aggregator config of a
    stage-1 checkpoint; any other file, or tensors other than the ones that
    config declares, is refused with ``gbio.FormatError``."""
    tensors, configs = gbio.read_checkpoint(path, "pretrain", {"aggregator": AggregatorConfig})
    if "center" not in tensors:
        raise gbio.FormatError(f"{path}: pretraining checkpoint has no 'center' tensor")
    agg_config = configs["aggregator"]
    student = {name[len("student."):]: Tensor(arr, requires_grad=True)
               for name, arr in tensors.items()
               if name.startswith("student.") and not name.startswith("student.head.")}
    gbio.check_tensors(student, param_specs(agg_config), f"{path}: {gbio.MODEL_MISMATCH}",
                       prefix="student.")
    return student, agg_config


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
    optimizer = AdamW(student, config.lr, config.epochs * math.ceil(len(bags) / config.batch_size),
                      weight_decay=config.weight_decay)
    metrics: list[dict] = []
    for epoch in range(config.epochs):
        teacher_temp = config.teacher_temp_at(epoch)
        epoch_dino = epoch_ibot = epoch_total = 0.0
        batches = _batches(len(bags), config.batch_size, rng)
        teacher_cls = []
        for batch_idx, batch in enumerate(batches):
            views_per_patient = [
                sample_views(bags[i], config.k_global, config.k_local, config.mask_ratio, rng)
                for i in batch
            ]
            dino_value, ibot_value, loss_value, cls_rows = _train_step(
                [bags[i] for i in batch], views_per_patient, student, teacher, optimizer,
                agg_config, config, teacher_temp, f"epoch{epoch}/batch{batch_idx}")
            epoch_dino += dino_value * len(batch)
            epoch_ibot += ibot_value * len(batch)
            epoch_total += loss_value * len(batch)
            teacher_cls.append(cls_rows)
        record = {
            "epoch": epoch,
            "dino_loss": epoch_dino / len(bags),
            "ibot_loss": epoch_ibot / len(bags),
            "total": epoch_total / len(bags),
            "cls_std": cls_dimension_std(np.concatenate(teacher_cls)),
        }
        metrics.append(record)
        if metrics_path is not None:
            gbio.write_metrics(metrics_path, metrics)
    return PretrainResult(student, teacher, metrics, agg_config, config)


def _views_in_row_order(
    batch_bags: list[CellBag], views_per_patient: list[list[BagView]], n_views: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cells and masks of each patient's first ``n_views`` views, in the
    [view][patient] order of the rows ``dino_ibot_loss`` reads."""
    pairs = [(batch_bags[p], view) for views in list(zip(*views_per_patient))[:n_views]
             for p, view in enumerate(views)]
    return [bag.cells[view.indices] for bag, view in pairs], [view.mask for _, view in pairs]


def teacher_targets(
    batch_bags: list[CellBag],
    views_per_patient: list[list[BagView]],
    teacher_params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: PretrainConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher pass on the global views only, unmasked and untaped: their CLS
    rows (before the head), and the logits of those rows, then of the tokens
    at every masked position, in the student's row order (``dino_ibot_loss``)."""
    cells, masks = _views_in_row_order(batch_bags, views_per_patient, config.k_global)
    hidden = forward_bags(cells, teacher_params, agg_config, None,
                          masks if config.ibot_weight != 0 else None)
    return hidden.data[: len(cells)], head_forward(hidden, teacher_params).data


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
    """Student pass against the logits of ``teacher_targets``: (dino, ibot, total).

    Every view runs, masked cells read as the mask token, in one
    ``forward_bags`` call; the head runs once on all CLS and masked token rows,
    and ``dino_ibot_loss`` scores them.  Only global views may carry a mask:
    the teacher returns no token rows for a local one."""
    for views in views_per_patient:
        for k, view in enumerate(views[config.k_global:], config.k_global):
            if len(view.mask):
                raise ValueError(f"patient {view.patient_id}: view {k} is a local view with a "
                                 f"mask; only the {config.k_global} global views may carry one")
    cells, masks = _views_in_row_order(batch_bags, views_per_patient, config.k_global + config.k_local)
    hidden = forward_bags(cells, student, agg_config, masks, masks if config.ibot_weight != 0 else None)
    return dino_ibot_loss(targets, head_forward(hidden, student), len(batch_bags), center,
                          teacher_temp, config)


def _train_step(
    batch_bags: list[CellBag], views_per_patient: list[list[BagView]], student: dict[str, Tensor],
    teacher: TeacherState, optimizer: AdamW, agg_config: AggregatorConfig, config: PretrainConfig,
    teacher_temp: float, batch_id: str,
) -> tuple[float, float, float, np.ndarray]:
    """One optimizer step: (dino, ibot, total) and the teacher's global CLS rows."""
    cls_rows, targets = teacher_targets(
        batch_bags, views_per_patient, teacher.params, agg_config, config
    )
    with Tape() as tape:
        dino, ibot, loss = pretrain_objective(
            batch_bags, views_per_patient, student, targets, teacher.center,
            agg_config, config, teacher_temp,
        )
    loss_value = optimizer.checked_step(tape, loss, batch_id)
    ema_update(teacher.params, student, config.ema_momentum)
    teacher.center = center_update(teacher.center, targets[: len(cls_rows)], CENTER_MOMENTUM)
    return float(dino.data), float(ibot.data), loss_value, cls_rows

"""Supervised stage 2: project slide, karyotype and mutation modalities into
a shared unit sphere and pull same-class patients together across modalities.

The contrastive loss treats every same-class batch member of the target
modality as a positive for the anchor; each modality pair is trained in both
directions, read from one similarity matrix.  Decoders reconstruct the binary
genetic vectors from their own projected embedding (BCE), weighted by
``recon_weight``.
Training and inference take patients to rows along one path:
``slide_rows`` (cell means under mean_pool, else one packed
``aggregator.forward_bags`` call) and ``genetic_rows``.  The schedule and the
checked step are ``optim.AdamW.checked_step``'s, planned over the batches
``stratified_batches`` makes, a lone leftover patient folded into the last one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gbio, ndiff
# `forward` is not called here; perfbench's tracer test looks the name up
from .aggregator import (  # noqa: F401
    AggregatorConfig, ParamSpec, draw_params, forward, forward_bags, mlp_forward, param_specs,
)
from .cohort import Cohort, Patient
from .karyogram import load_band_table, rollup_to_arms
from .ndiff import Tape, Tensor
from .optim import AdamW, TrainingError

logger = logging.getLogger(__name__)

AGGREGATOR_MODES = ("finetune", "mean_pool")
INIT_MODES = ("pretrained", "random")
KARYOTYPE_RESOLUTIONS = ("band", "arm")


@dataclass
class AlignConfig:
    temperature: float = 0.1
    recon_weight: float = 1.0
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-4
    aggregator_lr: float = 1e-5
    init: str = "pretrained"
    aggregator_mode: str = "finetune"
    karyotype_resolution: str = "band"
    shared_dim: int = 128
    head_hidden: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "shared_dim", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.recon_weight < 0:
            raise ValueError("recon_weight must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.aggregator_lr < 0:
            raise ValueError("aggregator_lr must be >= 0")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.aggregator_mode not in AGGREGATOR_MODES:
            raise ValueError(f"aggregator_mode must be one of {AGGREGATOR_MODES}")
        if self.karyotype_resolution not in KARYOTYPE_RESOLUTIONS:
            raise ValueError(
                f"karyotype_resolution must be one of {KARYOTYPE_RESOLUTIONS}"
            )

    @property
    def reads_checkpoint(self) -> bool:
        """Whether training starts the aggregator from a stage-1 checkpoint."""
        return self.init == "pretrained" and self.aggregator_mode != "mean_pool"

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SupconStats:
    empty_anchor_count: int = 0


def _check_unit_rows(x: Tensor, name: str) -> None:
    norms = np.linalg.norm(x.data, axis=-1)
    if np.abs(norms - 1.0).max() > 1e-4:
        raise ValueError(f"{name}: rows must be unit-norm (max deviation "
                         f"{np.abs(norms - 1.0).max():.2e})")


def supcon_symmetric(
    z_a: Tensor,
    z_b: Tensor,
    labels: np.ndarray,
    temperature: float,
    stats: SupconStats | None = None,
) -> Tensor:
    """Mean of the a->b and b->a supervised contrastive losses over one batch.

    Positives for anchor p are the other batch rows with the same label.  As in
    CLIP, both directions read one ``sim = z_a z_b^T / temperature``: a->b takes
    the log-softmax over its rows, b->a over its columns.  Anchors without
    positives are left out of the average (``stats`` counts them per direction);
    a batch without a same-class pair gives a zero that is still on the tape.
    """
    labels = np.asarray(labels)
    batch = z_a.shape[0]
    if batch < 2:
        raise ValueError(f"supcon needs a batch of >= 2, got {batch}")
    if z_a.shape != z_b.shape:
        raise ValueError(f"modality shapes differ: {z_a.shape} vs {z_b.shape}")
    _check_unit_rows(z_a, "z_a")
    _check_unit_rows(z_b, "z_b")
    positives = (labels[:, None] == labels[None, :]) & ~np.eye(batch, dtype=bool)
    counts = positives.sum(axis=1)
    alive = counts > 0
    n_alive = int(alive.sum())
    if stats is not None:
        stats.empty_anchor_count += 2 * (batch - n_alive)
    weights = np.zeros((batch, batch), dtype=z_a.data.dtype)
    weights[alive] = positives[alive] / counts[alive, None]
    sim = ndiff.scalar_mul(ndiff.matmul(z_a, ndiff.transpose(z_b)), 1.0 / temperature)
    weighted = ndiff.add(
        ndiff.mul(Tensor(weights), ndiff.log_softmax(sim, axis=-1)),
        ndiff.mul(Tensor(weights.T), ndiff.log_softmax(sim, axis=0)),
    )
    # mean over B^2 entries -> rescale to -(1/(2 n_alive)) * sum
    return ndiff.scalar_mul(ndiff.mean(weighted), -(batch * batch) / (2 * max(n_alive, 1)))


def reconstruction_loss(logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Mean BCE-with-logits over all entries."""
    if not isinstance(targets, Tensor):
        targets = Tensor(np.asarray(targets, dtype=logits.dtype))
    return ndiff.mean(ndiff.binary_cross_entropy_with_logits(logits, targets))


def mlp_param_specs(in_dim: int, hidden: int, out_dim: int, prefix: str) -> dict[str, ParamSpec]:
    """A projection or decoder MLP's params: He-scaled normal weights."""
    # hidden bias gets small noise so an all-zero input (e.g. a normal
    # karyotype) still projects to a usable direction instead of the exact
    # zero vector
    return {
        f"{prefix}.w1": ParamSpec((in_dim, hidden), math.sqrt(2.0 / in_dim), truncated=False),
        f"{prefix}.b1": ParamSpec((1, hidden), 0.01, truncated=False),
        f"{prefix}.w2": ParamSpec((hidden, out_dim), math.sqrt(2.0 / hidden), truncated=False),
        f"{prefix}.b2": ParamSpec((1, out_dim)),
    }


def project(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return ndiff.l2_normalize(mlp_forward(x, params, prefix))


@dataclass
class AlignedTable:
    patient_ids: list[str]
    labels: list[str]
    splits: list[str]
    slide: np.ndarray  # (N, D) patient embeddings
    z_slide: np.ndarray  # (N, shared_dim) unit rows
    z_karyotype: np.ndarray
    z_mutation: np.ndarray

    def rows(self, split: str) -> np.ndarray:
        return np.flatnonzero([s == split for s in self.splits])

    def save(self, out_dir: str | Path) -> list[Path]:
        out_dir = Path(out_dir)
        paths = []
        for name, mat in [
            ("slide", self.slide),
            ("zs", self.z_slide),
            ("zk", self.z_karyotype),
            ("zm", self.z_mutation),
        ]:
            path = out_dir / f"aligned.{name}.gbm"
            gbio.write_gbm(path, gbio.Matrix(mat.astype(np.float32), self.patient_ids))
            paths.append(path)
        index = {
            "patient_ids": self.patient_ids,
            "labels": self.labels,
            "splits": self.splits,
            "files": {p.name.split(".")[-2]: p.name for p in paths},
        }
        index_path = out_dir / "aligned.index.json"
        gbio.write_json(index_path, index)
        paths.append(index_path)
        return paths


def load_table(out_dir: str | Path) -> AlignedTable:
    out_dir = Path(out_dir)
    index_path = out_dir / "aligned.index.json"
    index = gbio.read_json(index_path)
    keys = ("patient_ids", "labels", "splits")
    if not (isinstance(index, dict) and all(isinstance(index.get(k), list) for k in keys)
            and len({len(index[k]) for k in keys}) == 1):
        raise gbio.FormatError(f"{index_path}: needs lists {', '.join(keys)} of one length")
    mats = {}
    for name in ("slide", "zs", "zk", "zm"):
        path = out_dir / f"aligned.{name}.gbm"
        matrix = gbio.read_gbm(path)
        if matrix.patient_ids != index["patient_ids"]:
            raise gbio.FormatError(f"{path}: patient ids differ from aligned.index.json's")
        mats[name] = matrix.data
    return AlignedTable(
        patient_ids=index["patient_ids"],
        labels=index["labels"],
        splits=index["splits"],
        slide=mats["slide"],
        z_slide=mats["zs"],
        z_karyotype=mats["zk"],
        z_mutation=mats["zm"],
    )


def stratified_batches(
    labels: list[str], batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Class-stratified batches: members are dealt out two per class per
    round and cut into batches of ``batch_size``.  An odd class count or a
    batch boundary can leave a class alone in a batch while more of it
    remain unassigned; such an anchor counts in ``empty_anchors``."""
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    queues = {}
    for lab in sorted(by_class):
        members = np.array(by_class[lab])
        queues[lab] = list(rng.permutation(members))
    class_order = sorted(queues)
    batches: list[list[int]] = []
    current: list[int] = []
    while any(queues.values()):
        for lab in class_order:
            queue = queues[lab]
            take = min(2, len(queue))
            for _ in range(take):
                current.append(int(queue.pop()))
                if len(current) == batch_size:
                    batches.append(current)
                    current = []
    if current:
        if len(current) == 1 and batches:
            batches[-1].extend(current)
        else:
            batches.append(current)
    return [np.array(b) for b in batches]


def genetic_rows(patients: list[Patient], config: AlignConfig) -> tuple[np.ndarray, np.ndarray]:
    """The patients' karyotype rows, at the configured resolution, and
    their mutation rows, both f32."""
    karyo = np.stack([p.karyotype for p in patients])
    if config.karyotype_resolution == "arm":
        karyo = rollup_to_arms(karyo, load_band_table())
    return karyo.astype(np.float32), np.stack([p.mutations for p in patients]).astype(np.float32)


@dataclass
class AlignResult:
    params: dict[str, Tensor]
    agg_config: AggregatorConfig
    config: AlignConfig
    metrics: list[dict]
    table: AlignedTable
    excluded: list[str] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        gbio.write_checkpoint(path, {name: p.data for name, p in self.params.items()}, "align",
                              self.agg_config, self.config)


def align_param_specs(
    agg_config: AggregatorConfig, config: AlignConfig, d_karyotype: int, d_mutation: int
) -> dict[str, ParamSpec]:
    """Every aligned-model parameter, in the order ``init_align_params``
    draws them: the ``agg.*`` aggregator (unless mean_pool), then the
    projections and decoders."""
    specs: dict[str, ParamSpec] = {}
    slide_dim = agg_config.input_dim
    if config.aggregator_mode != "mean_pool":
        specs.update((f"agg.{name}", spec) for name, spec in param_specs(agg_config).items())
        slide_dim = agg_config.embed_dim
    shared = config.shared_dim
    for prefix, in_dim, out_dim in (("proj_s", slide_dim, shared), ("proj_k", d_karyotype, shared),
                                    ("proj_m", d_mutation, shared), ("dec_k", shared, d_karyotype),
                                    ("dec_m", shared, d_mutation)):
        specs.update(mlp_param_specs(in_dim, config.head_hidden, out_dim, prefix))
    return specs


def init_align_params(
    agg_config: AggregatorConfig,
    config: AlignConfig,
    d_karyotype: int,
    d_mutation: int,
    rng: np.random.Generator,
    aggregator_params: dict[str, Tensor] | None = None,
) -> dict[str, Tensor]:
    """Params of ``align_param_specs``; the ``agg.*`` ones are
    ``aggregator_params`` when given, else drawn."""
    specs = align_param_specs(agg_config, config, d_karyotype, d_mutation)
    params: dict[str, Tensor] = {}
    if aggregator_params is not None and config.aggregator_mode != "mean_pool":
        params.update((f"agg.{name}", p) for name, p in aggregator_params.items())
        specs = {name: spec for name, spec in specs.items() if name not in params}
    params.update(draw_params(specs, rng))
    return params


def slide_rows(
    patients: list[Patient],
    params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: AlignConfig,
) -> Tensor:
    """Each patient's slide row: for mean_pool the constant unweighted
    average of the raw cell embeddings, else the full-bag CLS under the
    ``agg.*`` params, recorded on the active tape if there is one."""
    if config.aggregator_mode == "mean_pool":
        return Tensor(np.stack([p.bag.cells.mean(axis=0) for p in patients]))
    aggregator = {k[len("agg."):]: v for k, v in params.items() if k.startswith("agg.")}
    return forward_bags([p.bag.cells for p in patients], aggregator, agg_config)


def train_align(
    cohort: Cohort,
    agg_config: AggregatorConfig,
    config: AlignConfig,
    pretrained_aggregator: dict[str, Tensor] | None = None,
    metrics_path: str | Path | None = None,
) -> AlignResult:
    if pretrained_aggregator is not None and not config.reads_checkpoint:
        raise TrainingError(f"init={config.init!r} with aggregator_mode={config.aggregator_mode!r} "
                            f"does not use the stage-1 checkpoint given")
    rng = np.random.default_rng(config.seed)
    train_all = cohort.subset("train")
    excluded = [p.patient_id for p in train_all if not p.complete]
    if excluded:
        logger.warning("excluding %d patients with missing modalities: %s",
                       len(excluded), ", ".join(excluded))
    train = [p for p in train_all if p.complete]
    if len(train) < 2:
        raise TrainingError("need at least 2 complete training patients")
    width = train[0].bag.cells.shape[1]
    if width != agg_config.input_dim:
        raise TrainingError(
            f"cells are {width} wide but the aggregator's input_dim is {agg_config.input_dim}")
    if config.reads_checkpoint:
        if pretrained_aggregator is None:
            raise TrainingError("init='pretrained' requires a stage-1 checkpoint")
        gbio.check_tensors(pretrained_aggregator, param_specs(agg_config),
                           "the stage-1 aggregator differs from the configured one", TrainingError)
        aggregator_params = {k: Tensor(v.data.copy(), requires_grad=True)
                             for k, v in pretrained_aggregator.items()}
    else:
        aggregator_params = None  # fresh random init (or unused for mean_pool)

    karyo, mut = genetic_rows(train, config)
    labels = [p.label for p in train]
    params = init_align_params(
        agg_config, config, karyo.shape[1], mut.shape[1], rng, aggregator_params
    )

    # the batch count does not depend on the shuffle, so a throwaway one counts it
    n_batches = len(stratified_batches(labels, config.batch_size, np.random.default_rng(0)))
    optimizer = AdamW(params, config.lr, config.epochs * n_batches,
                      lr_scale={"agg.": config.aggregator_lr / config.lr})
    metrics: list[dict] = []
    for epoch in range(config.epochs):
        stats = SupconStats()
        sums = {"supcon_sk": 0.0, "supcon_sm": 0.0, "recon": 0.0, "total": 0.0}
        weight = 0
        for batch_idx, batch in enumerate(stratified_batches(labels, config.batch_size, rng)):
            batch_labels = np.array([labels[i] for i in batch])
            with Tape() as tape:
                slide = slide_rows([train[i] for i in batch], params, agg_config, config)
                z_s = project(slide, params, "proj_s")
                z_k = project(Tensor(karyo[batch]), params, "proj_k")
                z_m = project(Tensor(mut[batch]), params, "proj_m")
                loss_sk = supcon_symmetric(z_s, z_k, batch_labels, config.temperature, stats)
                loss_sm = supcon_symmetric(z_s, z_m, batch_labels, config.temperature, stats)
                loss = ndiff.add(loss_sk, loss_sm)
                recon_value = 0.0
                if config.recon_weight > 0:
                    recon_k = reconstruction_loss(
                        mlp_forward(z_k, params, "dec_k"), karyo[batch]
                    )
                    recon_m = reconstruction_loss(
                        mlp_forward(z_m, params, "dec_m"), mut[batch]
                    )
                    recon = ndiff.add(recon_k, recon_m)
                    recon_value = float(recon.data)
                    loss = ndiff.add(loss, ndiff.scalar_mul(recon, config.recon_weight))
            loss_value = optimizer.checked_step(tape, loss, f"epoch{epoch}/batch{batch_idx}")
            b = len(batch)
            weight += b
            sums["supcon_sk"] += float(loss_sk.data) * b
            sums["supcon_sm"] += float(loss_sm.data) * b
            sums["recon"] += recon_value * b
            sums["total"] += loss_value * b
        record = {"epoch": epoch, **{k: v / weight for k, v in sums.items()},
                  "empty_anchors": stats.empty_anchor_count}
        metrics.append(record)
        if metrics_path is not None:
            gbio.write_metrics(metrics_path, metrics)

    table = embed_cohort(cohort, params, agg_config, config)
    return AlignResult(
        params=params,
        agg_config=agg_config,
        config=config,
        metrics=metrics,
        table=table,
        excluded=excluded,
    )


def project_slides(
    patients: list[Patient],
    params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: AlignConfig,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Slide embeddings and their shared-space projections (no genetics
    needed, no gradients)."""
    if not patients:
        raise ValueError("no patients with cell bags")
    slide = slide_rows(patients, params, agg_config, config).data.astype(np.float32)
    z_s = project(Tensor(slide), params, "proj_s").data
    ids = [p.patient_id for p in patients]
    return ids, slide, z_s.astype(np.float32)


def embed_cohort(
    cohort: Cohort,
    params: dict[str, Tensor],
    agg_config: AggregatorConfig,
    config: AlignConfig,
) -> AlignedTable:
    """Project every complete patient into the shared space (no gradients)."""
    patients = [p for p in cohort.patients if p.complete]
    _, slide, z_s = project_slides(patients, params, agg_config, config)
    karyo, mut = genetic_rows(patients, config)
    z_k = project(Tensor(karyo), params, "proj_k").data
    z_m = project(Tensor(mut), params, "proj_m").data
    return AlignedTable(
        patient_ids=[p.patient_id for p in patients],
        labels=[p.label for p in patients],
        splits=[p.split for p in patients],
        slide=slide,
        z_slide=z_s,
        z_karyotype=z_k.astype(np.float32),
        z_mutation=z_m.astype(np.float32),
    )


def load_align_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], AggregatorConfig, AlignConfig]:
    """Params and configs of an aligned checkpoint; any other file, or
    tensors other than the model its configs declare at the genetic widths
    of ``proj_k.w1`` and ``proj_m.w1``, is refused with ``gbio.FormatError``."""
    tensors, configs = gbio.read_checkpoint(
        path, "align", {"aggregator": AggregatorConfig, "align": AlignConfig})
    agg_config, config = configs["aggregator"], configs["align"]
    widths = []
    for name in ("proj_k.w1", "proj_m.w1"):
        if name not in tensors or tensors[name].ndim != 2 or tensors[name].shape[0] < 1:
            raise gbio.FormatError(f"{path}: needs a 2-D tensor {name!r} with at least one row")
        widths.append(tensors[name].shape[0])
    gbio.check_tensors(tensors, align_param_specs(agg_config, config, *widths),
                       f"{path}: {gbio.MODEL_MISMATCH}")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    return params, agg_config, config

"""The benchmark's workloads: inputs made from a seed, one timed repetition,
and the checks on its outputs.

Every call into genalign goes through a module attribute
(``pretrain.train_pretrain``, not a name imported into this file), so the
tracer's patches see these calls too.

An operation is a training step, an embedded bag or an evaluation task.
Each check covers some operations; when it fails, they count as failed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from genalign import aggregator, align, cohort, evalkit, harness, pretrain, synthcohort

UNIT_NORM_TOL = 1e-4
# f32 tolerance for the CLS of a permuted 1,024-cell bag: summation order
# changes, the set does not
PERMUTATION_TOL = 1e-5
PERMUTED_BAGS = 3


@dataclass(frozen=True)
class Size:
    n_patients: int
    cells: tuple[int, int]        # cells per bag on pretrain and align_eval
    large_cells: tuple[int, int]  # cells per bag on embed_large
    pretrain_slice: int           # patients per pretrain repetition
    embed_slice: int              # bags per embed_large repetition
    align_epochs: int
    n_boot: int


# FULL is the benchmark; TINY only exercises the code paths in the smoke tests.
# Repetitions last one to three seconds, so that a run holds several and the
# reference kernel timed after each tracks the machine's speed closely.
FULL = Size(250, (48, 64), (768, 1024), pretrain_slice=50, embed_slice=25,
            align_epochs=3, n_boot=1000)
TINY = Size(24, (8, 12), (24, 32), pretrain_slice=12, embed_slice=8,
            align_epochs=2, n_boot=20)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, what: str, n_ops: int, ok: bool) -> None:
        self.attempted += n_ops
        if not ok:
            self.failed += n_ops
            self.failures.append(what)

    def add_each(self, what: str, oks: np.ndarray) -> None:
        bad = int(np.count_nonzero(~oks))
        self.attempted += int(oks.size)
        self.failed += bad
        if bad:
            self.failures.append(f"{what} ({bad} of {oks.size})")

    def merge(self, other: "Checks", fail_all: str | None = None) -> None:
        """Add another repetition's checks; ``fail_all`` fails all its operations."""
        self.attempted += other.attempted
        self.failed += other.attempted if fail_all else other.failed
        self.failures += [fail_all] if fail_all else other.failures


@dataclass
class Rep:
    """What one repetition did: which slice of the cohort it ran on, the
    main call's time and work, and a digest of every output, which must
    repeat exactly whenever the slice comes round again."""

    slice: int
    main_s: float
    bags: int
    cells: int
    digest: str


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _unit_rows(*matrices: np.ndarray) -> np.ndarray:
    ok = np.ones(len(matrices[0]), dtype=bool)
    for m in matrices:
        norms = np.linalg.norm(m.astype(np.float64), axis=1)
        ok &= np.isfinite(m).all(axis=1) & (np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    return ok


def _in_unit_interval(*values) -> bool:
    return all(v is not None and math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def _knn(patients: list[cohort.Patient], x: np.ndarray) -> float:
    """Balanced accuracy of the kNN probe, fitted on train and scored on test."""
    y = np.array([p.label for p in patients])
    split = np.array([p.split for p in patients])
    train, test = split == "train", split == "test"
    return evalkit.knn_probe(x[train], y[train], x[test], y[test])


def _slices(n: int, size: int) -> list[slice]:
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def make_cohort(seed: int, cells: tuple[int, int], n_patients: int, scratch: Path) -> cohort.Cohort:
    """Generate the cohort and round-trip it through disk as the CLI does."""
    config = synthcohort.SynthConfig(
        seed=seed, n_patients=n_patients, cells_min=cells[0], cells_max=cells[1]
    )
    generated = synthcohort.generate(config)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        generated.save(tmp)
        return cohort.load_cohort_dir(tmp)


class Pretrain:
    """Stage-1 self-supervised pretraining: each repetition is a one-epoch
    ``train_pretrain`` on the next slice of the cohort.  Afterwards a kNN
    probe runs on the stage-1 CLS of every bag under the first slice's model."""

    def __init__(self, seed: int, size: Size, scratch: Path):
        self.cohort = make_cohort(seed, size.cells, size.n_patients, scratch)
        self.agg = aggregator.AggregatorConfig()
        self.config = pretrain.PretrainConfig(epochs=1, seed=seed)
        cap_rng = np.random.default_rng(seed)
        self.bags = [
            aggregator.cap_bag(p.bag, self.agg.max_cells, cap_rng) for p in self.cohort.patients
        ]
        self.slices = _slices(len(self.bags), size.pretrain_slice)
        self.first_model: pretrain.PretrainResult | None = None

    def run(self, checks: Checks, i: int) -> Rep:
        k = i % len(self.slices)
        bags = self.bags[self.slices[k]]
        start = time.perf_counter()
        result = pretrain.train_pretrain(bags, self.agg, self.config)
        train_s = time.perf_counter() - start
        losses = np.array([[m["dino_loss"], m["ibot_loss"], m["total"], m["cls_std"]]
                           for m in result.metrics])
        steps = math.ceil(len(bags) / self.config.batch_size)
        for epoch_losses in losses:
            checks.add("finite epoch loss", steps, bool(np.isfinite(epoch_losses).all()))
        if k == 0 and self.first_model is None:
            self.first_model = result
        epochs = self.config.epochs
        return Rep(
            slice=k,
            main_s=train_s,
            bags=len(bags) * epochs,
            cells=sum(b.n_cells for b in bags) * epochs,
            digest=_digest(losses, *(p.data for p in result.student_params.values())),
        )

    def finish(self, checks: Checks) -> dict[str, float]:
        result = self.first_model
        emb = pretrain.embed_bags(self.bags, result.student_params, self.agg)
        checks.add_each("finite stage-1 embedding", np.isfinite(emb).all(axis=1))
        knn = _knn(self.cohort.patients, emb)
        checks.add("knn probe", 1, _in_unit_interval(knn))
        return {"knn_bacc": knn, "final_loss": result.metrics[-1]["total"]}


class AlignEval:
    """Genetic alignment from a random aggregator, then the full report;
    each repetition runs both on the whole cohort."""

    def __init__(self, seed: int, size: Size, scratch: Path):
        self.cohort = make_cohort(seed, size.cells, size.n_patients, scratch)
        self.agg = aggregator.AggregatorConfig()
        self.config = align.AlignConfig(
            epochs=size.align_epochs, init="random", aggregator_mode="finetune",
            karyotype_resolution="band", recon_weight=1.0, seed=seed,
        )
        self.seed = seed
        self.n_boot = size.n_boot
        train = [p for p in self.cohort.subset("train") if p.complete]
        labels = [p.label for p in train]
        # the batch count does not depend on the shuffle
        self.steps_per_epoch = len(
            align.stratified_batches(labels, self.config.batch_size, np.random.default_rng(0))
        )
        self.n_train = len(train)
        self.n_cells = sum(p.bag.n_cells for p in train)
        self.quality: dict[str, float] = {}
        self.slices = [slice(None)]

    def run(self, checks: Checks, i: int) -> Rep:
        start = time.perf_counter()
        result = align.train_align(self.cohort, self.agg, self.config)
        train_s = time.perf_counter() - start
        losses = np.array([[m["supcon_sk"], m["supcon_sm"], m["recon"], m["total"]]
                           for m in result.metrics])
        for epoch_losses in losses:
            checks.add("finite epoch loss", self.steps_per_epoch, bool(np.isfinite(epoch_losses).all()))
        table = result.table
        checks.add_each("unit-norm shared-space rows",
                        _unit_rows(table.z_slide, table.z_karyotype, table.z_mutation))
        report = harness.evaluate_report(
            self.cohort, result.params, result.agg_config, self.config,
            seed=self.seed, n_boot=self.n_boot,
        )
        tasks = report["tasks"]
        retrieval = tasks["retrieval"]
        directions = [harness.direction_tag(q, t) for q, t in harness.DIRECTIONS]
        checks.add("retrieval: four directions, p-values in [0, 1]", 1,
                   len(directions) == 4 and sorted(retrieval) == sorted(directions)
                   and all(_in_unit_interval(retrieval[d]["mrr"]["point"],
                                             retrieval[d]["wilcoxon"]["p_value"],
                                             retrieval[d]["wilcoxon"]["p_bonferroni"])
                           for d in directions))
        checks.add("slide retrieval mAP in [0, 1]", 1,
                   _in_unit_interval(tasks["slide_retrieval"]["map_at_k"]["point"]))
        knn = tasks["probes"]["knn"]["balanced_accuracy"]
        logreg = tasks["probes"]["logreg"]["balanced_accuracy"]
        checks.add("knn probe", 1, _in_unit_interval(knn))
        checks.add("logreg probe", 1, _in_unit_interval(logreg))
        checks.add("per-gene F1 in [0, 1]", 1, all(
            _in_unit_interval(g["gene_to_slide_f1"], g["slide_to_gene_f1"], g["random_f1"])
            for g in tasks["per_gene"]["genes"].values()))
        if not self.quality:
            self.quality = {
                "knn_bacc": knn,
                "final_loss": float(losses[-1, 3]),
                "logreg_bacc": logreg,
                "sk_mrr": retrieval["S->K"]["mrr"]["point"],
                "ms_mrr": retrieval["M->S"]["mrr"]["point"],
            }
        epochs = self.config.epochs
        return Rep(
            slice=0,
            main_s=train_s,
            bags=self.n_train * epochs,
            cells=self.n_cells * epochs,
            digest=_digest(losses, table.z_slide, table.z_karyotype, table.z_mutation,
                           np.frombuffer(harness.report_to_tsv(report).encode(), np.uint8)),
        )

    def finish(self, checks: Checks) -> dict[str, float]:
        return self.quality


class EmbedLarge:
    """Shared-space embedding of real-slide-sized bags (``genalign embed
    --space shared``), forward only: each repetition embeds the next slice
    of the cohort.  Afterwards a kNN probe runs on the shared space and a
    few bags are embedded again with their cells permuted."""

    def __init__(self, seed: int, size: Size, scratch: Path):
        self.cohort = make_cohort(seed, size.large_cells, size.n_patients, scratch)
        self.agg = aggregator.AggregatorConfig()
        self.config = align.AlignConfig(init="random", seed=seed)
        first = self.cohort.patients[0]
        self.params = align.init_align_params(
            self.agg, self.config, first.karyotype.size, first.mutations.size,
            np.random.default_rng(seed),
        )
        self.seed = seed
        self.slices = _slices(len(self.cohort.patients), size.embed_slice)
        self.z: dict[int, np.ndarray] = {}

    def run(self, checks: Checks, i: int) -> Rep:
        k = i % len(self.slices)
        patients = self.cohort.patients[self.slices[k]]
        start = time.perf_counter()
        _, slide, z = align.project_slides(patients, self.params, self.agg, self.config)
        embed_s = time.perf_counter() - start
        checks.add_each("finite unit-norm shared-space rows",
                        _unit_rows(z) & np.isfinite(slide).all(axis=1))
        self.z.setdefault(k, z)
        return Rep(
            slice=k,
            main_s=embed_s,
            bags=len(patients),
            cells=sum(p.bag.n_cells for p in patients),
            digest=_digest(slide, z),
        )

    def finish(self, checks: Checks) -> dict[str, float]:
        z_all = np.concatenate([self.z[k] for k in range(len(self.slices))])
        knn = _knn(self.cohort.patients, z_all)
        checks.add("knn probe", 1, _in_unit_interval(knn))
        # the aggregator is permutation-invariant: shuffling the cells of a
        # few sampled bags leaves their embeddings unchanged within f32
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(self.cohort.patients), size=PERMUTED_BAGS, replace=False)
        permuted = []
        for i in picks:
            p = self.cohort.patients[i]
            cells = p.bag.cells[rng.permutation(p.bag.n_cells)]
            permuted.append(dataclasses.replace(p, bag=aggregator.CellBag(p.patient_id, cells)))
        _, _, z = align.project_slides(permuted, self.params, self.agg, self.config)
        diff = np.abs(z - z_all[picks]).max(axis=1)
        checks.add_each("permutation-invariant embedding",
                        np.isfinite(z).all(axis=1) & (diff <= PERMUTATION_TOL))
        return {"knn_bacc": knn}


WORKLOADS = {"pretrain": Pretrain, "align_eval": AlignEval, "embed_large": EmbedLarge}

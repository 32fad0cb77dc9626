"""Evaluation report assembly and the ablation grid.

``score_table`` is the one scorer: ``evaluate_report`` embeds a cohort and
hands it the table, and every ablation row is a slice of its report.  Each
retrieval task ranks its query block with one ``evalkit.retrieve`` call and
builds one hit matrix from the ranking: the same-patient counterpart for
the four cross-modal directions, the same-class slides (own slide dropped)
for slide-to-slide, and the split's mutation matrix for gene-to-slide.
Every retrieval metric is read from that matrix as a per-query vector
(reciprocal ranks, top-k hits, AP@k, per-gene F1), and the random
baselines permute its rows.  Paired Wilcoxon tests on reciprocal ranks are
Bonferroni-corrected over the four directions.  Each probe is fitted once
per table, and only when its task is requested; the logistic probe's
interval resamples that fit's test predictions, as ``evalkit.bootstrap``
resamples the rows of each metric.

Each ablation row is one align config with one factor replaced
(aggregator init/pooling, karyotype resolution, reconstruction weight).
Every row's config is built, and so checked, before any row trains, and
all rows train and score at the base config's seed, so reruns are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evalkit as ek
from . import gbio
from .align import AlignConfig, AlignedTable, embed_cohort, project, train_align
from .aggregator import AggregatorConfig
from .cohort import Cohort
from .evalkit import StatReport
from .ndiff import Tensor

MODALITY_TAGS = {"slide": "S", "karyotype": "K", "mutation": "M"}
DIRECTIONS = [
    ("slide", "karyotype"),
    ("karyotype", "slide"),
    ("slide", "mutation"),
    ("mutation", "slide"),
]
SPLIT = "test"  # the split every retrieval metric scores
TOP_KS = (1, 5)
KNN_K = 5


def _modality_matrix(table: AlignedTable, modality: str) -> np.ndarray:
    return {
        "slide": table.z_slide,
        "karyotype": table.z_karyotype,
        "mutation": table.z_mutation,
    }[modality]


def direction_tag(query: str, target: str) -> str:
    return f"{MODALITY_TAGS[query]}->{MODALITY_TAGS[target]}"


def _split_rows(table: AlignedTable, split: str) -> np.ndarray:
    """The split's row indices; a split without patients is refused."""
    rows = table.rows(split)
    if rows.size == 0:
        raise ek.EvalError(f"no patients in split {split!r}")
    return rows


def cross_modal_rankings(
    table: AlignedTable, query: str, target: str, split: str = "test"
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The split's patient ids and the ``(order, scores)`` ranking of every
    query-modality row against every target-modality row; query j's true
    match is candidate j, its same-patient counterpart."""
    rows = _split_rows(table, split)
    ids = [table.patient_ids[i] for i in rows]
    order, scores = ek.retrieve(_modality_matrix(table, query)[rows],
                                _modality_matrix(table, target)[rows], ids)
    return ids, order, scores


def cross_modal_hits(table: AlignedTable, query: str, target: str) -> np.ndarray:
    """Hit matrix of a cross-modal direction: true at each query's
    same-patient counterpart."""
    _, order, _ = cross_modal_rankings(table, query, target, SPLIT)
    return order == np.arange(len(order))[:, None]


def random_rankings(hits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each row of a hit matrix shuffled on its own, in row order, as one
    ``rng.permutation`` per row would: the hits of a per-query shuffled
    candidate order (the random retrieval baseline)."""
    return rng.permuted(hits, axis=1)


def _mean_stat(name: str, values: np.ndarray, n_boot: int, seed: int) -> StatReport:
    """Bootstrap of a per-query vector's mean."""
    return ek.bootstrap(lambda rows: values[rows].mean(axis=-1), len(values),
                        n_boot, seed, name)


def retrieval_block(table: AlignedTable, n_boot: int = 1000, seed: int = 0) -> dict:
    """Cross-modal retrieval metrics vs the random baseline, all directions."""
    rng = np.random.default_rng(seed)
    block: dict = {}
    m_corrections = len(DIRECTIONS)
    for d, (query, target) in enumerate(DIRECTIONS):
        hits = cross_modal_hits(table, query, target)
        baseline = random_rankings(hits, rng)
        rr_model = ek.reciprocal_ranks(hits)
        rr_random = ek.reciprocal_ranks(baseline)
        tag = direction_tag(query, target)
        entry: dict = {}
        for k in TOP_KS:
            entry[f"top{k}"] = _mean_stat(
                f"{tag} top-{k}", ek.hits_at_k(hits, k), n_boot,
                seed + 10 * d + k,
            ).to_dict()
            entry[f"top{k}_random"] = _mean_stat(
                f"{tag} top-{k} random", ek.hits_at_k(baseline, k), n_boot,
                seed + 10 * d + k + 1000,
            ).to_dict()
        test = ek.wilcoxon_signed_rank(rr_model, rr_random)
        mrr_stat = _mean_stat(f"{tag} MRR", rr_model, n_boot, seed + 10 * d + 7)
        mrr_stat.p_value = test.p_value
        mrr_stat.p_bonferroni = ek.bonferroni(test.p_value, m_corrections)
        entry["mrr"] = mrr_stat.to_dict()
        entry["mrr_random"] = _mean_stat(
            f"{tag} MRR random", rr_random, n_boot, seed + 10 * d + 1007
        ).to_dict()
        entry["wilcoxon"] = {
            "statistic": test.statistic,
            "n": test.n,
            "method": test.method,
            "p_value": test.p_value,
            "p_bonferroni": ek.bonferroni(test.p_value, m_corrections),
        }
        block[tag] = entry
    return block


def slide_retrieval_block(
    table: AlignedTable, k: int = 3, n_boot: int = 1000, seed: int = 0
) -> dict:
    """Same-class slide-to-slide retrieval, mAP@k.  Each query's own column
    is dropped from its ranking; queries with no same-class partner are
    skipped and counted."""
    rows = _split_rows(table, SPLIT)
    ids = [table.patient_ids[i] for i in rows]
    labels = np.array([table.labels[i] for i in rows])
    order, _ = ek.retrieve(table.z_slide[rows], table.z_slide[rows], ids)
    n = len(ids)
    order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    hits = labels[order] == labels[:, None]
    answerable = hits.any(axis=1)
    if not answerable.any():
        raise ek.EvalError("no query had a same-class partner")
    aps = ek.average_precision_at_k(hits[answerable], k)
    stat = _mean_stat(f"S->S mAP@{k}", aps, n_boot, seed)
    return {"map_at_k": stat.to_dict(), "k": k,
            "skipped_queries": int(n - answerable.sum()),
            "ap_normalizer": "min(|relevant|, k)"}


def _probe_inputs(table: AlignedTable) -> tuple[np.ndarray, ...]:
    """(train_x, train_y, test_x, test_y): slide embeddings and labels."""
    train_rows = _split_rows(table, "train")
    test_rows = _split_rows(table, "test")
    return (table.slide[train_rows], np.array([table.labels[i] for i in train_rows]),
            table.slide[test_rows], np.array([table.labels[i] for i in test_rows]))


def probe_block(
    table: AlignedTable, probes: tuple[str, ...] = ("knn", "logreg"),
    n_boot: int = 1000, seed: int = 0,
) -> dict:
    """The requested k-NN and logistic-regression probes on the slide
    embeddings, each fitted once; the logistic probe's interval bootstraps
    its fit's test (truth, prediction) pairs."""
    inputs = _probe_inputs(table)
    block: dict = {}
    if "knn" in probes:
        block["knn"] = {"k": KNN_K, "balanced_accuracy": ek.knn_probe(*inputs, k=KNN_K)}
    if "logreg" in probes:
        logreg = ek.logreg_probe(*inputs)
        test_y, pred = inputs[3], logreg.predictions
        block["logreg"] = {
            "balanced_accuracy": logreg.balanced_accuracy,
            "converged": logreg.converged,
            "l2_strength": ek.LOGREG_L2,
            "interval": ek.bootstrap(
                lambda rows: ek.balanced_accuracy(test_y[rows], pred[rows]),
                len(test_y), n_boot, seed, "logreg bAcc",
            ).to_dict(),
        }
    return block


def per_gene_block(
    table: AlignedTable,
    cohort: Cohort,
    params: dict,
    n_boot: int = 200,
    seed: int = 0,
) -> dict:
    """Per-gene retrieval F1 over the genes with at least one positive and
    one negative patient in the split: gene->slide via one-hot gene queries
    through the mutation projector, slide->gene by assigning each slide to
    its most similar gene (ties: first gene in name order)."""
    rows = _split_rows(table, SPLIT)
    ids = [table.patient_ids[i] for i in rows]
    by_id = {p.patient_id: p for p in cohort.patients}
    relevant = np.array([by_id[pid].mutations for pid in ids], dtype=bool).T
    n_genes = relevant.shape[0]
    names = [f"gene{g:02d}" for g in range(n_genes)]
    n_positive = relevant.sum(axis=1)
    usable = np.flatnonzero((n_positive > 0) & (n_positive < len(ids)))
    if usable.size == 0:
        return {"genes": {}}
    relevant = relevant[usable]
    gene_embeddings = project(
        Tensor(np.eye(n_genes, dtype=np.float32)), params, "proj_m"
    ).data[usable]
    slides = table.z_slide[rows]
    order, scores = ek.retrieve(gene_embeddings, slides, ids)
    gene_to_slide = ek.f1_at_n_relevant(np.take_along_axis(relevant, order, axis=1))
    sims = np.empty_like(scores)  # (gene, slide), slides back in row order
    np.put_along_axis(sims, order, scores, axis=1)
    by_name = np.array(sorted(range(len(usable)), key=lambda j: names[usable[j]]))
    predicted = by_name[sims[by_name].argmax(axis=0)] == np.arange(len(usable))[:, None]
    slide_to_gene = ek.f1_score((predicted & relevant).sum(axis=1),
                                predicted.sum(axis=1), n_positive[usable])
    tiles = random_rankings(np.repeat(relevant, n_boot, axis=0), np.random.default_rng(seed))
    random_f1 = ek.f1_at_n_relevant(tiles).reshape(len(usable), n_boot).mean(axis=1)
    return {
        "genes": {
            names[g]: {
                "n_positive": int(n_positive[g]),
                "gene_to_slide_f1": float(gene_to_slide[j]),
                "slide_to_gene_f1": float(slide_to_gene[j]),
                "random_f1": float(random_f1[j]),
            }
            for j, g in enumerate(usable)
        }
    }


ALL_TASKS = ("retrieval", "slide_retrieval", "knn", "logreg", "per_gene")


def evaluate_report(
    cohort: Cohort,
    params: dict,
    agg_config: AggregatorConfig,
    align_config: AlignConfig,
    tasks: tuple[str, ...] = ALL_TASKS,
    seed: int = 0,
    n_boot: int = 1000,
) -> dict:
    """The cohort embedded by the aligned model, scored by ``score_table``."""
    table = embed_cohort(cohort, params, agg_config, align_config)
    return score_table(table, cohort, params, tasks, seed, n_boot)


def score_table(table: AlignedTable, cohort: Cohort, params: dict,
                tasks: tuple[str, ...] = ALL_TASKS, seed: int = 0, n_boot: int = 1000) -> dict:
    """The evaluation report of an embedded table: the requested tasks
    only, at one seed and resample count.  ``per_gene`` reads the cohort's
    mutations and projects gene queries with ``params``."""
    report: dict = {
        "seed": seed,
        "n_boot": n_boot,
        "n_patients": {"train": int(table.rows("train").size),
                       "test": int(table.rows("test").size)},
        "tasks": {},
    }
    wanted = set(tasks)
    if "retrieval" in wanted:
        report["tasks"]["retrieval"] = retrieval_block(table, n_boot=n_boot, seed=seed)
    if "slide_retrieval" in wanted:
        report["tasks"]["slide_retrieval"] = slide_retrieval_block(
            table, n_boot=n_boot, seed=seed
        )
    probes = tuple(p for p in ("knn", "logreg") if p in wanted)
    if probes:
        report["tasks"]["probes"] = probe_block(table, probes, n_boot=n_boot, seed=seed)
    if "per_gene" in wanted:
        report["tasks"]["per_gene"] = per_gene_block(
            table, cohort, params, seed=seed, n_boot=min(n_boot, 200)
        )
    return report


def report_to_tsv(report: dict) -> str:
    """Flatten every numeric leaf into metric<TAB>value lines."""
    lines = ["metric\tvalue"]

    def walk(prefix, node):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}.{key}" if prefix else str(key), node[key])
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            lines.append(f"{prefix}\t{node}")

    walk("", report)
    return "\n".join(lines) + "\n"


AGGREGATOR_SETTINGS = {
    "transformer_pretrained": {"aggregator_mode": "finetune", "init": "pretrained"},
    "transformer_random": {"aggregator_mode": "finetune", "init": "random"},
    "mean_pool": {"aggregator_mode": "mean_pool", "init": "random"},
}


@dataclass
class AblationAxes:
    """The settings each axis of the grid runs, in row order."""
    aggregator: list[str] = field(default_factory=lambda: list(AGGREGATOR_SETTINGS))
    karyotype_resolution: list[str] = field(default_factory=lambda: ["band", "arm"])
    recon_weight: list[float] = field(default_factory=lambda: [1.0, 0.1, 0.0])

    def __post_init__(self):
        unknown = [s for s in self.aggregator if s not in AGGREGATOR_SETTINGS]
        if unknown:
            raise ValueError(f"unknown aggregator settings {unknown}; "
                             f"valid: {list(AGGREGATOR_SETTINGS)}")


def ablation_configs(base: AlignConfig, axes: AblationAxes) -> list[tuple[str, str, AlignConfig]]:
    """Each grid row's ``(ablation, setting, config)``, in row order: ``base``
    with that setting's fields replaced, so ``AlignConfig`` checks every
    axis value."""
    settings = (
        [("aggregator", s, AGGREGATOR_SETTINGS[s]) for s in axes.aggregator]
        + [("karyotype_resolution", r, {"karyotype_resolution": r})
           for r in axes.karyotype_resolution]
        + [("recon_weight", f"lambda_r={w}", {"recon_weight": w}) for w in axes.recon_weight]
    )
    return [(ablation, setting, replace(base, **fields)) for ablation, setting, fields in settings]


def run_ablation(
    cohort: Cohort,
    agg_config: AggregatorConfig,
    base: AlignConfig,
    axes: AblationAxes,
    n_boot: int,
    pretrained_aggregator: dict | None = None,
) -> dict:
    """One row per setting per axis, each ``base`` with that setting's
    fields replaced.

    Every row's config is built first, and the grid is refused if a row
    would start from a stage-1 checkpoint and none is given.  Only then is
    each distinct config trained once and scored at ``base.seed``; each of
    its rows reads the logistic probe's interval and the S->K and K->S MRRs
    from that one report."""
    grid = ablation_configs(base, axes)
    if pretrained_aggregator is None:
        needing = [setting for _, setting, cfg in grid if cfg.reads_checkpoint]
        if needing:
            raise ValueError(f"rows {needing} have init='pretrained' and need a stage-1 "
                             f"checkpoint; none is given")
    reports: dict[str, dict] = {}  # config hash -> its report's tasks
    rows = []
    for ablation, setting, cfg in grid:
        key = gbio.config_hash(cfg.to_dict())
        if key not in reports:
            result = train_align(
                cohort, agg_config, cfg,
                pretrained_aggregator=pretrained_aggregator if cfg.reads_checkpoint else None,
            )
            reports[key] = score_table(result.table, cohort, result.params,
                                       ("retrieval", "logreg"), base.seed, n_boot)["tasks"]
        tasks = reports[key]
        rows.append({
            "ablation": ablation,
            "setting": setting,
            "logreg_bacc": tasks["probes"]["logreg"]["interval"],
            "sk_mrr": tasks["retrieval"]["S->K"]["mrr"],
            "ks_mrr": tasks["retrieval"]["K->S"]["mrr"],
        })
    return {"seed": base.seed, "n_boot": n_boot, "rows": rows}


def ablation_to_tsv(result: dict) -> str:
    header = ["ablation", "setting", "logreg_bacc", "logreg_std",
              "sk_mrr", "sk_std", "ks_mrr", "ks_std"]
    lines = ["\t".join(header)]
    for row in result["rows"]:
        lines.append("\t".join([
            row["ablation"],
            row["setting"],
            f"{row['logreg_bacc']['point']:.4f}",
            f"{row['logreg_bacc']['boot_std']:.4f}",
            f"{row['sk_mrr']['point']:.4f}",
            f"{row['sk_mrr']['boot_std']:.4f}",
            f"{row['ks_mrr']['point']:.4f}",
            f"{row['ks_mrr']['boot_std']:.4f}",
        ]))
    return "\n".join(lines) + "\n"


def save_report(report: dict, json_path: str | Path, tsv_path: str | Path | None = None) -> None:
    gbio.write_json(json_path, report)
    if tsv_path is not None:
        gbio.write_text(tsv_path, report_to_tsv(report))

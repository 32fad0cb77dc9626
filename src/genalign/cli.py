"""``genalign`` command line: synth, encode-karyotype, pretrain, align,
embed, retrieve, evaluate, ablate, inspect.

Heavy modules are imported inside the handlers so ``--threads`` can cap the
BLAS pool before numpy loads.  A handler returns ``(out_dir, config, seed,
artifacts)``; ``main`` times it and writes the run manifest (config hash,
seed, artifact checksums, wall time) next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import BLAS_THREAD_VARS

logger = logging.getLogger("genalign")


def _set_threads(n: int) -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)


def _read_config(path: str | None, sections: dict[str, type]) -> dict:
    """The sections a sectioned config JSON holds (none without a path),
    each as its config class."""
    from . import gbio

    raw = gbio.json_object(gbio.read_json(path), sections, path) if path else {}
    return {name: gbio.config_from(sections[name], value, path, name)
            for name, value in raw.items()}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _apply_seed(config, seed_flag):
    if seed_flag is not None:
        config.seed = seed_flag
    return config


def cmd_synth(args):
    from . import gbio
    from .synthcohort import SynthConfig, generate, oracle_report

    raw = gbio.read_json(args.config) if args.config else {}
    config = _apply_seed(gbio.config_from(SynthConfig, raw, args.config), args.seed)
    cohort = generate(config)
    out_dir = Path(args.out_dir)
    paths = cohort.save(out_dir)
    oracle_path = out_dir / "oracle.json"
    gbio.write_json(oracle_path, oracle_report(cohort, config))
    paths.append(oracle_path)
    logger.info("wrote cohort of %d patients to %s", len(cohort), out_dir)
    return out_dir, config.to_dict(), config.seed, paths


def cmd_encode_karyotype(args):
    import numpy as np

    from . import gbio
    from .karyogram import (
        encode_karyotype,
        load_band_table,
        parse_iscn,
        parse_iscn_lenient,
        rollup_to_arms,
    )

    table = load_band_table()
    records = gbio.read_patient_rows(args.infile, 2)  # patient_id<TAB>iscn
    if not records:
        raise ValueError(f"{args.infile}: no karyotypes found")
    rows, warnings = [], []
    for pid, (iscn,) in records.items():
        if args.lenient:
            events, skipped = parse_iscn_lenient(iscn, table)
            for token in skipped:
                warnings.append({"patient_id": pid, "skipped_token": token})
                logger.warning("%s: skipped token %r", pid, token)
        else:
            events = parse_iscn(iscn, table)
        rows.append(encode_karyotype(events, table))
    bits = np.stack(rows)
    if args.arm_level:
        bits = rollup_to_arms(bits, table)
    gbio.write_gbm(args.out, gbio.Matrix(bits, list(records), band_table_sha256=table.sha256))
    config = {
        "infile": str(args.infile),
        "arm_level": bool(args.arm_level),
        "lenient": bool(args.lenient),
        "warnings": warnings,
    }
    logger.info("encoded %d karyotypes -> %s", len(rows), args.out)
    return Path(args.out).parent, config, args.seed or 0, [args.out]


def cmd_pretrain(args):
    from .aggregator import AggregatorConfig, cap_bag
    from .cohort import load_cohort
    from .pretrain import PretrainConfig, train_pretrain
    import numpy as np

    configs = _read_config(args.config, {"aggregator": AggregatorConfig, "pretrain": PretrainConfig})
    agg_config = configs.get("aggregator") or AggregatorConfig()
    config = _apply_seed(configs.get("pretrain") or PretrainConfig(), args.seed)
    cohort = load_cohort(args.cohort)
    cap_rng = np.random.default_rng(config.seed)
    bags = [cap_bag(p.bag, agg_config.max_cells, cap_rng) for p in cohort.patients]
    result = train_pretrain(bags, agg_config, config, metrics_path=args.metrics)
    result.save(args.out)
    artifacts = [args.out] + ([args.metrics] if args.metrics else [])
    logger.info("pretrained %d epochs on %d bags -> %s",
                config.epochs, len(bags), args.out)
    return (Path(args.out).parent,
            {"aggregator": agg_config.to_dict(), "pretrain": config.to_dict()},
            config.seed, artifacts)


def _aggregator_inputs(path, configs: dict, checkpoint: str, align_configs, cohort):
    """The aggregator config and stage-1 params of an ``align`` or ``ablate``
    run: a checkpoint's config (an ``aggregator`` section in ``path`` next
    to it is refused), else the ``aggregator`` section, else, when every
    config is ``mean_pool``, one as wide as the cohort's cells; any other
    run is refused."""
    from .aggregator import AggregatorConfig
    from .pretrain import load_checkpoint

    if checkpoint:
        if "aggregator" in configs:
            raise ValueError(f"{path}: an 'aggregator' section next to the stage-1 "
                             f"checkpoint {checkpoint}, whose config the run uses")
        pretrained, agg_config = load_checkpoint(checkpoint)
        return agg_config, pretrained
    if "aggregator" in configs:
        return configs["aggregator"], None
    if all(c.aggregator_mode == "mean_pool" for c in align_configs):
        width = cohort.patients[0].bag.cells.shape[1]
        return AggregatorConfig(depth=1, heads=1, embed_dim=width,
                                mlp_dim=width, input_dim=width), None
    raise ValueError("a run that is not all mean_pool needs a stage-1 checkpoint "
                     "or an 'aggregator' config section")


def cmd_align(args):
    from .aggregator import AggregatorConfig
    from .align import AlignConfig, train_align
    from .cohort import load_cohort

    configs = _read_config(args.config, {"aggregator": AggregatorConfig, "align": AlignConfig})
    config = _apply_seed(configs.get("align") or AlignConfig(), args.seed)
    cohort = load_cohort(args.cohort, args.karyo, args.mut, args.labels)
    agg_config, pretrained = _aggregator_inputs(args.config, configs, args.init, [config], cohort)
    result = train_align(cohort, agg_config, config,
                         pretrained_aggregator=pretrained,
                         metrics_path=args.metrics)
    result.save(args.out)
    artifacts = [args.out]
    if args.table_dir:
        artifacts += result.table.save(args.table_dir)
    if args.metrics:
        artifacts.append(args.metrics)
    logger.info("aligned %d epochs -> %s", config.epochs, args.out)
    return (Path(args.out).parent,
            {"aggregator": agg_config.to_dict(), "align": config.to_dict()},
            config.seed, artifacts)


def cmd_embed(args):
    import numpy as np

    from . import gbio
    from .cohort import load_cohort

    # the stage from the header alone; its loader reads the tensors once
    config = gbio.inspect_header(args.ckpt)["header"].get("config")
    if isinstance(config, dict) and config.get("stage") == "pretrain":
        if args.space != "slide":
            raise ValueError("a pretrain checkpoint only provides --space slide")
        from .pretrain import embed_bags, load_checkpoint

        student, agg_config = load_checkpoint(args.ckpt)
        patients = load_cohort(args.cohort).patients
        ids = [p.patient_id for p in patients]
        matrix = embed_bags([p.bag for p in patients], student, agg_config)
    else:
        from .align import load_align_checkpoint, project_slides

        params, agg_config, align_config = load_align_checkpoint(args.ckpt)
        ids, slide, z_slide = project_slides(
            load_cohort(args.cohort).patients, params, agg_config, align_config
        )
        matrix = slide if args.space == "slide" else z_slide
    gbio.write_gbm(args.out, gbio.Matrix(matrix.astype(np.float32), ids))
    logger.info("embedded %d patients -> %s", len(ids), args.out)
    return (Path(args.out).parent, {"ckpt": str(args.ckpt), "space": args.space},
            args.seed or 0, [args.out])


def cmd_retrieve(args):
    from . import gbio
    from .align import load_table
    from .harness import cross_modal_rankings

    table = load_table(args.table_dir)
    ids, order, scores = cross_modal_rankings(table, args.query, args.target, args.split)
    payload = {
        "query_modality": args.query,
        "target_modality": args.target,
        "split": args.split,
        "rankings": [
            {
                "query_id": query_id,
                "candidates": [ids[i] for i in order[j, : args.k]],
                "scores": [round(float(s), 6) for s in scores[j, : args.k]],
            }
            for j, query_id in enumerate(ids)
        ],
    }
    gbio.write_json(args.out, payload)
    return (Path(args.out).parent,
            {"query": args.query, "target": args.target, "k": args.k},
            args.seed or 0, [args.out])


def cmd_evaluate(args):
    from .align import load_align_checkpoint
    from .cohort import load_cohort
    from .harness import ALL_TASKS, evaluate_report, save_report

    tasks = tuple(args.tasks.split(",")) if args.tasks else ALL_TASKS
    unknown = set(tasks) - set(ALL_TASKS)
    if unknown:
        raise ValueError(f"unknown tasks: {sorted(unknown)}; valid: {ALL_TASKS}")
    params, agg_config, align_config = load_align_checkpoint(args.aligned)
    cohort = load_cohort(args.cohort, args.karyo, args.mut, args.labels)
    report = evaluate_report(
        cohort, params, agg_config, align_config,
        tasks=tasks, seed=args.seed or 0, n_boot=args.n_boot,
    )
    save_report(report, args.out, args.tsv)
    artifacts = [args.out] + ([args.tsv] if args.tsv else [])
    logger.info("evaluation report -> %s", args.out)
    return (Path(args.out).parent, {"tasks": list(tasks), "n_boot": args.n_boot},
            args.seed or 0, artifacts)


@dataclass
class GridFile:
    """An ablation grid JSON's own keys; its ``aggregator``, ``align`` and
    ``axes`` keys are config sections."""
    cohort_dir: str
    init_checkpoint: str = ""
    n_boot: int = 200
    out: str = "ablation.json"
    out_tsv: str = ""

    def __post_init__(self):
        if self.n_boot < 1:
            raise ValueError("n_boot must be >= 1")


def cmd_ablate(args):
    from . import gbio
    from .aggregator import AggregatorConfig
    from .align import AlignConfig
    from .cohort import load_cohort_dir
    from .harness import AblationAxes, ablation_configs, ablation_to_tsv, run_ablation

    # a bad grid is refused before any row trains: here, or in run_ablation
    sections = {"aggregator": AggregatorConfig, "align": AlignConfig, "axes": AblationAxes}
    keys = [*sections, *(f.name for f in fields(GridFile))]
    raw = gbio.json_object(gbio.read_json(args.grid), keys, args.grid)
    spec = gbio.config_from(GridFile, {k: v for k, v in raw.items() if k not in sections},
                            args.grid)
    configs = {k: gbio.config_from(sections[k], v, args.grid, k)
               for k, v in raw.items() if k in sections}
    base = _apply_seed(configs.get("align") or AlignConfig(), args.seed)
    axes = configs.get("axes") or AblationAxes()
    try:
        rows = ablation_configs(base, axes)
    except ValueError as exc:
        raise gbio.FormatError(f"{args.grid}, section 'axes': {exc}") from exc
    cohort = load_cohort_dir(spec.cohort_dir)
    agg_config, pretrained = _aggregator_inputs(args.grid, configs, spec.init_checkpoint,
                                                [cfg for *_, cfg in rows], cohort)
    result = run_ablation(cohort, agg_config, base, axes, spec.n_boot,
                          pretrained_aggregator=pretrained)
    out = Path(spec.out)
    gbio.write_json(out, result)
    artifacts = [out]
    if spec.out_tsv:
        tsv = Path(spec.out_tsv)
        gbio.write_text(tsv, ablation_to_tsv(result))
        artifacts.append(tsv)
    logger.info("ablation grid (%d rows) -> %s", len(result["rows"]), out)
    config = {"aggregator": agg_config.to_dict(), "align": base.to_dict(),
              "axes": asdict(axes), "n_boot": spec.n_boot}
    return out.parent, config, base.seed, artifacts


def cmd_inspect(args) -> None:
    from . import gbio

    info = gbio.inspect_header(args.file)
    print(json.dumps(info, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genalign",
        description="Patient-level aggregation of cell embeddings with "
                    "supervised genetic alignment and retrieval evaluation.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="cap BLAS/OpenMP threads")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--config", help="SynthConfig JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("encode-karyotype", help="encode ISCN strings to a .gbm matrix")
    p.add_argument("--in", dest="infile", required=True,
                   help="TSV of patient_id<TAB>iscn_string")
    p.add_argument("--out", required=True)
    p.add_argument("--arm-level", action="store_true")
    p.add_argument("--lenient", action="store_true",
                   help="skip unsupported tokens with a warning")
    p.set_defaults(handler=cmd_encode_karyotype)

    p = sub.add_parser("pretrain", help="stage-1 self-supervised training")
    p.add_argument("--config", help="JSON with 'aggregator' and 'pretrain' sections")
    p.add_argument("--cohort", required=True, help="bags .gbm")
    p.add_argument("--out", required=True, help="checkpoint .gbck")
    p.add_argument("--metrics", help="JSON-lines metrics log")
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("align", help="stage-2 supervised genetic alignment")
    p.add_argument("--config", help="JSON with 'align' (and optional 'aggregator')")
    p.add_argument("--cohort", required=True, help="bags .gbm")
    p.add_argument("--karyo", required=True, help="karyotype .gbm")
    p.add_argument("--mut", required=True, help="mutation .gbm")
    p.add_argument("--labels", required=True, help="labels TSV")
    p.add_argument("--init", help="stage-1 checkpoint .gbck")
    p.add_argument("--out", required=True, help="aligned checkpoint .gbck")
    p.add_argument("--table-dir", help="also write the aligned-patient table here")
    p.add_argument("--metrics", help="JSON-lines metrics log")
    p.set_defaults(handler=cmd_align)

    p = sub.add_parser("embed", help="patient embeddings from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--space", choices=["slide", "shared"], default="slide")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("retrieve", help="cross-modal retrieval from a table")
    p.add_argument("--table-dir", required=True)
    p.add_argument("--query", required=True,
                   choices=["slide", "karyotype", "mutation"])
    p.add_argument("--target", required=True,
                   choices=["slide", "karyotype", "mutation"])
    p.add_argument("--split", default="test")
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_retrieve)

    p = sub.add_parser("evaluate", help="full evaluation report")
    p.add_argument("--aligned", required=True, help="aligned checkpoint .gbck")
    p.add_argument("--cohort", required=True)
    p.add_argument("--karyo", required=True)
    p.add_argument("--mut", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--tasks", help="comma list: retrieval,slide_retrieval,knn,logreg,per_gene")
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--tsv", help="flat TSV twin of the report")
    p.add_argument("--n-boot", type=_positive_int, default=1000)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the ablation grid")
    p.add_argument("--grid", required=True, help="grid JSON")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("inspect", help="print a .gbm/.gbck header")
    p.add_argument("file")
    p.set_defaults(handler=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        _set_threads(args.threads)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    started = time.perf_counter()
    try:
        run = args.handler(args)
        if run is not None:
            from . import gbio

            out_dir, config, seed, artifacts = run
            gbio.write_manifest(out_dir, args.command, config, seed, artifacts, started)
        return 0
    except Exception as exc:  # structured failure -> exit 1
        logger.error("%s", exc)
        if args.log_level == "debug":
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())

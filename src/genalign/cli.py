"""``genalign`` command line: synth, encode-karyotype, pretrain, align,
embed, retrieve, evaluate, ablate, inspect.

Heavy modules are imported inside the handlers so ``--threads`` can cap the
BLAS pool before numpy loads.  A handler returns ``(out_dir, config, seed,
artifacts)``; ``main`` times it and writes the run manifest (config hash,
seed, artifact checksums, wall time) next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
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
    gbio.write_text(
        oracle_path, json.dumps(oracle_report(cohort, config), sort_keys=True, indent=2) + "\n"
    )
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
    first_line, rows, warnings = {}, [], []  # first_line: each patient id's line number
    with open(args.infile, newline="") as fh:
        for line_no, record in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not record:
                continue
            if len(record) != 2:
                raise ValueError(f"{args.infile}:{line_no}: expected patient_id<TAB>iscn")
            pid, iscn = record
            if pid in first_line:
                raise ValueError(f"{args.infile}:{line_no}: second row for patient {pid!r} "
                                 f"(first on line {first_line[pid]})")
            first_line[pid] = line_no
            if args.lenient:
                events, skipped = parse_iscn_lenient(iscn, table)
                for token in skipped:
                    warnings.append({"patient_id": pid, "skipped_token": token})
                    logger.warning("%s: skipped token %r", pid, token)
            else:
                events = parse_iscn(iscn, table)
            vec = encode_karyotype(events, table)
            if args.arm_level:
                vec = rollup_to_arms(vec, table)
            rows.append(vec)
    if not rows:
        raise ValueError(f"{args.infile}: no karyotypes found")
    matrix = gbio.Matrix(
        np.stack(rows).astype(np.uint8), list(first_line), band_table_sha256=table.sha256
    )
    gbio.write_gbm(args.out, matrix)
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


def _load_align_inputs(args):
    from .aggregator import AggregatorConfig
    from .align import AlignConfig
    from .cohort import load_cohort
    from .pretrain import load_checkpoint

    configs = _read_config(args.config, {"aggregator": AggregatorConfig, "align": AlignConfig})
    config = _apply_seed(configs.get("align") or AlignConfig(), args.seed)
    cohort = load_cohort(args.cohort, args.karyo, args.mut, args.labels)
    pretrained = None
    if args.init:
        pretrained, agg_config = load_checkpoint(args.init)
    elif "aggregator" in configs:
        agg_config = configs["aggregator"]
    elif config.aggregator_mode == "mean_pool":
        width = cohort.patients[0].bag.cells.shape[1]
        agg_config = AggregatorConfig(depth=1, heads=1, embed_dim=width,
                                      mlp_dim=width, input_dim=width)
    else:
        raise ValueError(
            "align needs --init checkpoint or an 'aggregator' config section"
        )
    return cohort, agg_config, config, pretrained


def cmd_align(args):
    from .align import train_align

    cohort, agg_config, config, pretrained = _load_align_inputs(args)
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

    stage, _, _ = gbio.read_checkpoint(args.ckpt, {"pretrain": {}, "align": {}})
    cohort = load_cohort(args.cohort)
    ids = [p.patient_id for p in cohort.patients]
    if stage == "pretrain":
        if args.space != "slide":
            raise ValueError("a pretrain checkpoint only provides --space slide")
        from .pretrain import embed_bags, load_checkpoint

        student, agg_config = load_checkpoint(args.ckpt)
        matrix = embed_bags([p.bag for p in cohort.patients], student, agg_config)
    else:
        from .align import load_align_checkpoint, project_slides

        params, agg_config, align_config = load_align_checkpoint(args.ckpt)
        ids, slide, z_slide = project_slides(
            cohort.patients, params, agg_config, align_config
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

    table = load_table(args.table_dir, stem=args.stem)
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
    gbio.write_text(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
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
    """An ablation grid JSON; ``aggregator`` and ``align`` are config
    sections and ``axes`` the grid's ``AblationAxes``."""
    cohort_dir: str
    init_checkpoint: str = ""
    aggregator: dict = field(default_factory=dict)
    align: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)
    n_boot: int = 200
    seed: int = 0
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
    from .harness import AblationAxes, AblationGrid, ablation_to_tsv, run_ablation
    from .pretrain import load_checkpoint

    # every part of the grid is refused here, before any row trains
    raw = gbio.read_json(args.grid)
    spec = _apply_seed(gbio.config_from(GridFile, raw, args.grid), args.seed)
    axes = gbio.config_from(AblationAxes, spec.axes, args.grid, "axes")
    gbio.config_from(AlignConfig, spec.align, args.grid, "align")  # each row's starting point
    pretrained = None
    if spec.init_checkpoint:
        pretrained, agg_config = load_checkpoint(spec.init_checkpoint)
    else:
        agg_config = gbio.config_from(AggregatorConfig, spec.aggregator, args.grid, "aggregator")
    cohort = load_cohort_dir(spec.cohort_dir)
    grid = AblationGrid(**vars(axes), defaults=spec.align, n_boot=spec.n_boot, seed=spec.seed)
    result = run_ablation(cohort, agg_config, grid, pretrained_aggregator=pretrained)
    out = Path(spec.out)
    gbio.write_text(out, json.dumps(result, sort_keys=True, indent=2) + "\n")
    artifacts = [out]
    if spec.out_tsv:
        tsv = Path(spec.out_tsv)
        gbio.write_text(tsv, ablation_to_tsv(result))
        artifacts.append(tsv)
    logger.info("ablation grid (%d rows) -> %s", len(result["rows"]), out)
    return out.parent, raw, grid.seed, artifacts


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
    parser.add_argument("--threads", type=int, default=None,
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
    p.add_argument("--stem", default="aligned")
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
    p.add_argument("--n-boot", type=int, default=1000)
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
    if args.threads:
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

import json
from pathlib import Path

import numpy as np
import pytest

from genalign import gbio
from genalign.cli import main

SYNTH_CFG = {
    "n_patients": 14,
    "n_classes": 2,
    "cells_min": 6,
    "cells_max": 6,
    "input_dim": 16,
    "n_cell_archetypes": 4,
    "karyotype_signatures": [["t(15;17)(q24;q21)"], ["+8"]],
    "mutation_rates": [[0.8] + [0.05] * 24, [0.05, 0.8] + [0.05] * 23],
    "test_fraction": 0.3,
    "seed": 9,
}

PRETRAIN_CFG = {
    "aggregator": {"depth": 1, "heads": 2, "embed_dim": 16, "mlp_dim": 32,
                   "input_dim": 16, "max_cells": 6},
    "pretrain": {"epochs": 1, "batch_size": 8, "k_global": 2, "k_local": 2,
                 "mask_ratio": 0.25, "n_prototypes": 16, "head_hidden": 16,
                 "head_bottleneck": 8, "seed": 4},
}

ALIGN_CFG = {
    "align": {"epochs": 2, "batch_size": 6, "seed": 4},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> encode-karyotype -> pretrain -> align, shared by the tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cohort_dir = root / "cohort"
    cfg = root / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(cohort_dir)]) == 0

    pre_cfg = root / "pretrain.json"
    pre_cfg.write_text(json.dumps(PRETRAIN_CFG))
    ckpt = root / "ckpt.gbck"
    assert main([
        "pretrain", "--config", str(pre_cfg),
        "--cohort", str(cohort_dir / "bags.gbm"),
        "--out", str(ckpt),
        "--metrics", str(root / "pretrain_metrics.jsonl"),
    ]) == 0

    align_cfg = root / "align.json"
    align_cfg.write_text(json.dumps(ALIGN_CFG))
    aligned = root / "aligned.gbck"
    table_dir = root / "table"
    assert main([
        "align", "--config", str(align_cfg),
        "--cohort", str(cohort_dir / "bags.gbm"),
        "--karyo", str(cohort_dir / "karyotypes.gbm"),
        "--mut", str(cohort_dir / "mutations.gbm"),
        "--labels", str(cohort_dir / "labels.tsv"),
        "--init", str(ckpt),
        "--out", str(aligned),
        "--table-dir", str(table_dir),
    ]) == 0
    return root


class TestSynth:
    def test_outputs_and_manifest(self, pipeline):
        cohort_dir = pipeline / "cohort"
        for name in ("bags.gbm", "karyotypes.gbm", "mutations.gbm",
                     "labels.tsv", "oracle.json"):
            assert (cohort_dir / name).exists(), name
        manifest = json.loads((cohort_dir / "manifest_synth.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["artifacts"]["bags.gbm"] == gbio.file_sha256(
            cohort_dir / "bags.gbm"
        )

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        cfg = pipeline / "synth.json"
        again = tmp_path / "again"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(again)]) == 0
        for name in ("bags.gbm", "karyotypes.gbm", "mutations.gbm", "labels.tsv"):
            assert (again / name).read_bytes() == (
                pipeline / "cohort" / name
            ).read_bytes(), name

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_patients": 4, "bogus_knob": 1}))
        assert main(["synth", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1


    def test_test_fraction_of_one_or_more_refused(self, tmp_path, caplog):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({**SYNTH_CFG, "test_fraction": 1.5}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "test_fraction must lie in [0, 1)" in caplog.text
        assert not out.exists()


class TestEncodeKaryotype:
    def test_encode_matches_library(self, tmp_path, band_table):
        from genalign.karyogram import encode_karyotype, parse_iscn
        tsv = tmp_path / "k.tsv"
        tsv.write_text("p1\t47,XY,+8\np2\t46,XX,t(15;17)(q24;q21)\n")
        out = tmp_path / "k.gbm"
        assert main(["encode-karyotype", "--in", str(tsv), "--out", str(out)]) == 0
        matrix = gbio.read_gbm(out)
        assert matrix.patient_ids == ["p1", "p2"]
        assert matrix.band_table_sha256 == band_table.sha256
        expected = encode_karyotype(parse_iscn("47,XY,+8", band_table), band_table)
        assert np.array_equal(matrix.data[0], expected)

    def test_arm_level_width(self, tmp_path):
        tsv = tmp_path / "k.tsv"
        tsv.write_text("p1\t45,XX,-7\n")
        out = tmp_path / "arm.gbm"
        assert main(["encode-karyotype", "--in", str(tsv), "--out", str(out),
                     "--arm-level"]) == 0
        assert gbio.read_gbm(out).data.shape == (1, 144)

    def test_unsupported_token_fails_strict(self, tmp_path):
        tsv = tmp_path / "k.tsv"
        tsv.write_text("p1\t46,XX,add(5)(q31)\n")
        assert main(["encode-karyotype", "--in", str(tsv),
                     "--out", str(tmp_path / "x.gbm")]) == 1

    def test_lenient_records_warnings(self, tmp_path):
        tsv = tmp_path / "k.tsv"
        tsv.write_text("p1\t46,XX,add(5)(q31),+8\n")
        out = tmp_path / "len.gbm"
        assert main(["encode-karyotype", "--in", str(tsv), "--out", str(out),
                     "--lenient"]) == 0
        manifest = json.loads(
            (tmp_path / "manifest_encode-karyotype.json").read_text()
        )
        assert manifest["artifacts"]["len.gbm"]
        matrix = gbio.read_gbm(out)
        assert matrix.data[0].sum() > 0  # +8 still encoded


    def test_repeated_patient_id_refused(self, tmp_path, caplog):
        tsv = tmp_path / "k.tsv"
        tsv.write_text("p1\t47,XY,+8\np2\t46,XX\np1\t45,XX,-7\n")
        out = tmp_path / "k.gbm"
        assert main(["encode-karyotype", "--in", str(tsv), "--out", str(out)]) == 1
        assert f"{tsv}:3: second row for patient 'p1' (first on line 1)" in caplog.text
        assert not out.exists()


class TestPretrainAlign:
    def test_checkpoint_inspectable(self, pipeline, capsys):
        assert main(["inspect", str(pipeline / "ckpt.gbck")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "gbck"
        assert info["header"]["config"]["stage"] == "pretrain"

    def test_align_artifacts(self, pipeline):
        assert (pipeline / "aligned.gbck").exists()
        table_dir = pipeline / "table"
        index = json.loads((table_dir / "aligned.index.json").read_text())
        assert len(index["patient_ids"]) == SYNTH_CFG["n_patients"]
        zs = gbio.read_gbm(table_dir / "aligned.zs.gbm")
        assert np.allclose(np.linalg.norm(zs.data, axis=1), 1.0, atol=1e-4)

    def test_manifest_per_command(self, pipeline):
        for command, artifact in (("pretrain", "ckpt.gbck"), ("align", "aligned.gbck")):
            manifest = json.loads((pipeline / f"manifest_{command}.json").read_text())
            assert manifest["command"] == command
            assert manifest["seed"] == 4
            assert manifest["artifacts"][artifact] == gbio.file_sha256(pipeline / artifact)

    def test_inspect_writes_no_manifest(self, pipeline, tmp_path, capsys):
        target = tmp_path / "ckpt.gbck"
        target.write_bytes((pipeline / "ckpt.gbck").read_bytes())
        assert main(["inspect", str(target)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.gbck"]

    def test_unknown_config_section_rejected(self, pipeline, tmp_path):
        cfg = tmp_path / "pretrain.json"
        cfg.write_text(json.dumps({**PRETRAIN_CFG, "pretrian": {}}))
        assert main(["pretrain", "--config", str(cfg),
                     "--cohort", str(pipeline / "cohort" / "bags.gbm"),
                     "--out", str(tmp_path / "x.gbck")]) == 1
        assert not (tmp_path / "x.gbck").exists()

    def test_metrics_log_replaced_on_rerun(self, pipeline, tmp_path):
        cohort_dir = pipeline / "cohort"
        metrics = tmp_path / "m.jsonl"
        for _ in range(2):
            assert main([
                "align", "--config", str(pipeline / "align.json"),
                "--cohort", str(cohort_dir / "bags.gbm"),
                "--karyo", str(cohort_dir / "karyotypes.gbm"),
                "--mut", str(cohort_dir / "mutations.gbm"),
                "--labels", str(cohort_dir / "labels.tsv"),
                "--init", str(pipeline / "ckpt.gbck"),
                "--out", str(tmp_path / "aligned.gbck"),
                "--metrics", str(metrics),
            ]) == 0
        epochs = [json.loads(line)["epoch"] for line in metrics.read_text().splitlines()]
        assert epochs == list(range(ALIGN_CFG["align"]["epochs"]))

    def test_align_init_rejects_aligned_checkpoint(self, pipeline, tmp_path, caplog):
        cohort_dir = pipeline / "cohort"
        code = main([
            "align", "--config", str(pipeline / "align.json"),
            "--cohort", str(cohort_dir / "bags.gbm"),
            "--karyo", str(cohort_dir / "karyotypes.gbm"),
            "--mut", str(cohort_dir / "mutations.gbm"),
            "--labels", str(cohort_dir / "labels.tsv"),
            "--init", str(pipeline / "aligned.gbck"),
            "--out", str(tmp_path / "x.gbck"),
        ])
        assert code == 1
        assert f"{pipeline / 'aligned.gbck'}: stage 'align'" in caplog.text
        assert not (tmp_path / "x.gbck").exists()

    def test_align_zero_lr_refused(self, pipeline, tmp_path, caplog):
        cohort_dir = pipeline / "cohort"
        cfg = tmp_path / "align.json"
        cfg.write_text(json.dumps({"align": {**ALIGN_CFG["align"], "lr": 0.0}}))
        code = main([
            "align", "--config", str(cfg),
            "--cohort", str(cohort_dir / "bags.gbm"),
            "--karyo", str(cohort_dir / "karyotypes.gbm"),
            "--mut", str(cohort_dir / "mutations.gbm"),
            "--labels", str(cohort_dir / "labels.tsv"),
            "--init", str(pipeline / "ckpt.gbck"),
            "--out", str(tmp_path / "x.gbck"),
        ])
        assert code == 1
        assert "lr must be positive" in caplog.text
        assert not (tmp_path / "x.gbck").exists()

    def test_align_without_init_or_aggregator_fails(self, pipeline, tmp_path):
        cohort_dir = pipeline / "cohort"
        cfg = tmp_path / "align.json"
        cfg.write_text(json.dumps({"align": {"epochs": 1, "aggregator_mode": "finetune",
                                             "init": "random"}}))
        code = main([
            "align", "--config", str(cfg),
            "--cohort", str(cohort_dir / "bags.gbm"),
            "--karyo", str(cohort_dir / "karyotypes.gbm"),
            "--mut", str(cohort_dir / "mutations.gbm"),
            "--labels", str(cohort_dir / "labels.tsv"),
            "--out", str(tmp_path / "x.gbck"),
        ])
        assert code == 1


class TestEmbedRetrieveEvaluate:
    def test_embed_slide_and_shared(self, pipeline, tmp_path):
        cohort = pipeline / "cohort"
        out1 = tmp_path / "v.gbm"
        assert main(["embed", "--ckpt", str(pipeline / "ckpt.gbck"),
                     "--cohort", str(cohort / "bags.gbm"), "--out", str(out1)]) == 0
        assert gbio.read_gbm(out1).data.shape == (14, 16)
        out2 = tmp_path / "z.gbm"
        assert main(["embed", "--ckpt", str(pipeline / "aligned.gbck"),
                     "--cohort", str(cohort / "bags.gbm"), "--out", str(out2),
                     "--space", "shared"]) == 0
        assert gbio.read_gbm(out2).data.shape == (14, 128)

    @pytest.mark.parametrize("ckpt", ["ckpt.gbck", "aligned.gbck"])
    def test_embed_refuses_header_without_aggregator(self, pipeline, tmp_path, caplog, ckpt):
        tensors, header = gbio.read_gbck(pipeline / ckpt)
        del header["config"]["aggregator"]
        bad = tmp_path / ckpt
        gbio.write_gbck(bad, tensors, header["config"], header["epoch"], header["seed"])
        assert main(["embed", "--ckpt", str(bad), "--cohort", str(pipeline / "cohort" / "bags.gbm"),
                     "--out", str(tmp_path / "x.gbm")]) == 1
        assert f"{bad}: checkpoint header has no 'aggregator' config section" in caplog.text
        assert not (tmp_path / "x.gbm").exists()

    def test_pretrain_ckpt_rejects_shared_space(self, pipeline, tmp_path):
        assert main(["embed", "--ckpt", str(pipeline / "ckpt.gbck"),
                     "--cohort", str(pipeline / "cohort" / "bags.gbm"),
                     "--out", str(tmp_path / "x.gbm"), "--space", "shared"]) == 1

    def test_retrieve(self, pipeline, tmp_path):
        out = tmp_path / "ranked.json"
        assert main(["retrieve", "--table-dir", str(pipeline / "table"),
                     "--query", "karyotype", "--target", "slide",
                     "--k", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["query_modality"] == "karyotype"
        assert all(len(r["candidates"]) <= 3 for r in payload["rankings"])

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_retrieve_k_below_one_is_usage_error(self, pipeline, tmp_path, k):
        out = tmp_path / "ranked.json"
        with pytest.raises(SystemExit) as err:
            main(["retrieve", "--table-dir", str(pipeline / "table"),
                  "--query", "karyotype", "--target", "slide",
                  "--k", k, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_evaluate_report(self, pipeline, tmp_path):
        cohort = pipeline / "cohort"
        out = tmp_path / "report.json"
        tsv = tmp_path / "report.tsv"
        assert main([
            "evaluate", "--aligned", str(pipeline / "aligned.gbck"),
            "--cohort", str(cohort / "bags.gbm"),
            "--karyo", str(cohort / "karyotypes.gbm"),
            "--mut", str(cohort / "mutations.gbm"),
            "--labels", str(cohort / "labels.tsv"),
            "--tasks", "retrieval,knn,logreg",
            "--n-boot", "30",
            "--out", str(out), "--tsv", str(tsv),
        ]) == 0
        report = json.loads(out.read_text())
        assert "S->K" in report["tasks"]["retrieval"]
        assert "probes" in report["tasks"]
        assert tsv.read_text().startswith("metric\tvalue")

    def test_evaluate_unknown_task(self, pipeline, tmp_path):
        cohort = pipeline / "cohort"
        assert main([
            "evaluate", "--aligned", str(pipeline / "aligned.gbck"),
            "--cohort", str(cohort / "bags.gbm"),
            "--karyo", str(cohort / "karyotypes.gbm"),
            "--mut", str(cohort / "mutations.gbm"),
            "--labels", str(cohort / "labels.tsv"),
            "--tasks", "nope",
            "--out", str(tmp_path / "r.json"),
        ]) == 1


class TestAblate:
    def test_grid_runs_and_is_deterministic(self, pipeline, tmp_path):
        grid = {
            "cohort_dir": str(pipeline / "cohort"),
            "init_checkpoint": str(pipeline / "ckpt.gbck"),
            "axes": {"aggregator": ["mean_pool"],
                     "karyotype_resolution": ["band"],
                     "recon_weight": [1.0, 0.0]},
            "align": {"epochs": 1, "batch_size": 6},
            "n_boot": 20,
            "seed": 3,
            "out": str(tmp_path / "ablation.json"),
            "out_tsv": str(tmp_path / "ablation.tsv"),
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["ablate", "--grid", str(grid_path)]) == 0
        first = (tmp_path / "ablation.json").read_bytes()
        assert main(["ablate", "--grid", str(grid_path)]) == 0
        assert (tmp_path / "ablation.json").read_bytes() == first
        rows = json.loads(first)["rows"]
        assert len(rows) == 4
        tsv_lines = (tmp_path / "ablation.tsv").read_text().strip().splitlines()
        assert len(tsv_lines) == 5

    def test_misspelled_axis_rejected(self, pipeline, tmp_path, caplog):
        grid = {
            "cohort_dir": str(pipeline / "cohort"),
            "axes": {"recon_weights": [0.0]},
            "align": {"epochs": 1, "batch_size": 6},
            "out": str(tmp_path / "ablation.json"),
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["ablate", "--grid", str(grid_path)]) == 1
        assert f"{grid_path}, section 'axes': unknown keys ['recon_weights']" in caplog.text
        assert not (tmp_path / "ablation.json").exists()


# Each case: the command that reads the bad file, and the file's content.  A
# grid case's content is merged into a runnable grid; a checkpoint case's
# content replaces the stage-1 checkpoint's header config (an object is
# merged into its sections).
BAD_INPUTS = {
    "config_not_json": ("align", "{not json"),
    "top_level_list": ("align", [1]),
    "synth_top_level_empty_list": ("synth", []),
    "section_not_object": ("align", {"align": 5}),
    "axes_not_object": ("ablate", {"axes": 5}),
    "grid_align_unknown_key": ("ablate", {"align": {"epochs": 1, "epoch": 1}}),
    "wrong_typed_field": ("align", {"align": {"epochs": "3"}}),
    "synth_wrong_typed_field": ("synth", {"n_patients": "20"}),
    "synth_signature_not_strings": ("synth", {"karyotype_signatures": [5, 6, 7, 8]}),
    "grid_n_boot_string": ("ablate", {"n_boot": "20"}),
    "grid_n_boot_zero": ("ablate", {"n_boot": 0}),
    "grid_axis_not_list": ("ablate", {"axes": {"recon_weight": 0.5}}),
    "grid_unknown_aggregator": ("ablate", {"axes": {"aggregator": ["mean_pool", "nope"]}}),
    "checkpoint_config_not_object": ("embed", 5),
    "checkpoint_section_extra_key": ("embed", {"aggregator": {"extra": 1}}),
    "checkpoint_wrong_typed_field": ("embed", {"aggregator": {"heads": "2"}}),
}


class TestRefusedInputs:
    @pytest.mark.parametrize("command, content", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
    def test_refused_naming_the_file_without_output(self, pipeline, tmp_path, caplog,
                                                    command, content):
        cohort, ckpt = pipeline / "cohort", pipeline / "ckpt.gbck"
        out = tmp_path / "out"
        bad = tmp_path / ("bad.gbck" if command == "embed" else "bad.json")
        if command == "embed":
            tensors, header = gbio.read_gbck(ckpt)
            config = header["config"]
            if isinstance(content, dict):
                content = {**config, **{k: {**config[k], **v} for k, v in content.items()}}
            gbio.write_gbck(bad, tensors, content, header["epoch"], header["seed"])
        else:
            if command == "ablate":
                content = {"cohort_dir": str(cohort), "init_checkpoint": str(ckpt),
                           "align": {"epochs": 1, "batch_size": 6}, "out": str(out), **content}
            bad.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = {
            "synth": ["synth", "--config", str(bad), "--out-dir", str(out)],
            "align": ["align", "--config", str(bad), "--cohort", str(cohort / "bags.gbm"),
                      "--karyo", str(cohort / "karyotypes.gbm"),
                      "--mut", str(cohort / "mutations.gbm"),
                      "--labels", str(cohort / "labels.tsv"), "--init", str(ckpt),
                      "--out", str(out)],
            "ablate": ["ablate", "--grid", str(bad)],
            "embed": ["embed", "--ckpt", str(bad), "--cohort", str(cohort / "bags.gbm"),
                      "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert str(bad) in caplog.text
        assert not out.exists()

    def test_grid_without_cohort_dir_refused(self, pipeline, tmp_path, caplog):
        out = tmp_path / "ablation.json"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"init_checkpoint": str(pipeline / "ckpt.gbck"),
                                    "align": {"epochs": 1, "batch_size": 6}, "out": str(out)}))
        assert main(["ablate", "--grid", str(grid)]) == 1
        assert f"{grid}: 'cohort_dir' is required" in caplog.text
        assert not out.exists()


class TestErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--bogus"])
        assert err.value.code == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["inspect", str(tmp_path / "missing.gbm")]) == 1

    def test_bad_magic_exits_1(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX123456")
        assert main(["inspect", str(bad)]) == 1

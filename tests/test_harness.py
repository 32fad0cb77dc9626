import json

import numpy as np
import pytest

from genalign import evalkit as ek
from genalign import harness
from genalign.align import AlignConfig, AlignedTable, init_mlp_params
from genalign.aggregator import AggregatorConfig, CellBag
from genalign.cohort import Cohort, Patient
from genalign.harness import (
    AblationGrid,
    ablation_to_tsv,
    cross_modal_hits,
    cross_modal_rankings,
    per_gene_block,
    probe_block,
    random_rankings,
    report_to_tsv,
    retrieval_block,
    run_ablation,
    score_table,
    slide_retrieval_block,
)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_table(rng, n_train=12, n_test=8, dim=16, n_classes=2, noise=0.0):
    """Slide/karyotype/mutation projections identical per patient (perfectly
    aligned shared space), slide embeddings class-separable."""
    n = n_train + n_test
    ids = [f"p{i:02d}" for i in range(n)]
    labels = [f"class{i % n_classes}" for i in range(n)]
    splits = ["train"] * n_train + ["test"] * n_test
    class_means = rng.standard_normal((n_classes, dim)) * 8
    slide = np.stack([
        class_means[i % n_classes] + rng.standard_normal(dim) for i in range(n)
    ]).astype(np.float32)
    z = unit_rows(rng.standard_normal((n, 32)))
    z_k = unit_rows(z + noise * rng.standard_normal((n, 32)))
    z_m = unit_rows(z + noise * rng.standard_normal((n, 32)))
    return AlignedTable(ids, labels, splits, slide,
                        z.astype(np.float32), z_k.astype(np.float32),
                        z_m.astype(np.float32))


def slide_table(z_slide, labels):
    """A test-split table whose slide space is ``z_slide``."""
    n = len(labels)
    z = np.asarray(z_slide, dtype=np.float32)
    return AlignedTable([f"p{i}" for i in range(n)], list(labels), ["test"] * n,
                        z, z, z, z)


def old_balanced_accuracy(y_true, y_pred):
    """The mean of per-class recalls, one class at a time."""
    return float(np.mean([float((y_pred[y_true == c] == c).mean())
                          for c in np.unique(y_true)]))


def gene_cohort(rng, table, n_genes=6):
    """A cohort of the table's patients with random mutations, and a gene
    projector."""
    params = init_mlp_params(n_genes, 32, 32, "proj_m", np.random.default_rng(0))
    patients = [
        Patient(pid, lab, spl,
                CellBag(pid, rng.standard_normal((4, 8)).astype(np.float32)),
                np.zeros(12, np.uint8),
                (rng.random(n_genes) < 0.4).astype(np.uint8))
        for pid, lab, spl in zip(table.patient_ids, table.labels, table.splits)
    ]
    return Cohort(patients), params


class TestRankings:
    def test_cross_modal_identity_alignment_ranks_self_first(self, rng):
        table = make_table(rng)
        ids, order, _ = cross_modal_rankings(table, "slide", "karyotype")
        assert len(ids) == 8
        assert ids == [table.patient_ids[i] for i in table.rows("test")]
        assert list(order[:, 0]) == list(range(8))
        hits = cross_modal_hits(table, "slide", "karyotype")
        assert hits[:, 0].all() and hits.sum() == 8

    def test_random_rankings_are_permutations(self, rng):
        table = make_table(rng)
        _, order, _ = cross_modal_rankings(table, "slide", "mutation")
        shuffles = np.random.default_rng(5)
        baseline = random_rankings(order, shuffles)
        draws = np.random.default_rng(5)
        for orig, rand in zip(order, baseline):
            assert sorted(orig) == sorted(rand)
            assert list(rand) == list(orig[draws.permutation(len(orig))])
        assert shuffles.bit_generator.state == draws.bit_generator.state

    def test_unknown_split_rejected(self, rng):
        table = make_table(rng)
        with pytest.raises(Exception, match="split"):
            cross_modal_rankings(table, "slide", "karyotype", split="nope")


class TestRetrievalBlock:
    def test_perfect_alignment_beats_random(self, rng):
        table = make_table(rng, n_test=12)
        block = retrieval_block(table, n_boot=200, seed=0)
        assert set(block) == {"S->K", "K->S", "S->M", "M->S"}
        for entry in block.values():
            assert entry["top1"]["point"] == 1.0
            assert entry["mrr"]["point"] == 1.0
            assert entry["mrr_random"]["point"] < 1.0
            assert entry["wilcoxon"]["p_value"] < 0.05
            assert entry["wilcoxon"]["p_bonferroni"] == pytest.approx(
                min(1.0, 4 * entry["wilcoxon"]["p_value"])
            )

    def test_deterministic(self, rng):
        table = make_table(rng)
        a = retrieval_block(table, n_boot=50, seed=3)
        b = retrieval_block(table, n_boot=50, seed=3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestOtherBlocks:
    def test_slide_retrieval_clustered(self, rng):
        table = make_table(rng, noise=0.0)
        # make z_slide reflect class structure so same-class ranks first
        n = len(table.patient_ids)
        class_axis = {lab: j for j, lab in enumerate(sorted(set(table.labels)))}
        z = np.zeros((n, 32), dtype=np.float32)
        for i in range(n):
            z[i, class_axis[table.labels[i]]] = 1.0
        table.z_slide = unit_rows(z + 0.01 * np.random.default_rng(0).standard_normal((n, 32))).astype(np.float32)
        block = slide_retrieval_block(table, k=3, n_boot=50, seed=0)
        assert block["map_at_k"]["point"] > 0.95
        assert block["skipped_queries"] == 0

    def test_slide_retrieval_excludes_self(self):
        # each slide's nearest other slide is of the other class: with its
        # own (same-class) slide dropped from its ranking, mAP@1 is 0
        angles = np.radians([0.0, 90.0, 10.0, 100.0])
        z = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        table = slide_table(z, ["x", "x", "y", "y"])
        block = slide_retrieval_block(table, k=1, n_boot=10, seed=0)
        assert block["map_at_k"]["point"] == 0.0
        assert block["skipped_queries"] == 0

    def test_slide_retrieval_skips_query_without_partner(self):
        # "z" has no same-class partner: skipped and counted; the other
        # two queries retrieve each other at rank 1
        angles = np.radians([0.0, 10.0, 90.0])
        z = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        table = slide_table(z, ["x", "x", "z"])
        block = slide_retrieval_block(table, k=2, n_boot=10, seed=0)
        assert block["map_at_k"]["point"] == 1.0
        assert block["skipped_queries"] == 1

    @pytest.mark.parametrize("split,block", [
        ("test", lambda table: slide_retrieval_block(table, n_boot=10)),
        ("test", probe_block),
        ("train", probe_block),
        ("test", lambda table: per_gene_block(table, *gene_cohort(np.random.default_rng(0), table),
                                              n_boot=10)),
    ], ids=["slide_retrieval", "probes_without_test", "probes_without_train", "per_gene"])
    def test_empty_split_refused(self, rng, split, block):
        table = make_table(rng, **{f"n_{split}": 0})
        assert table.rows(split).dtype.kind == "i"
        with pytest.raises(ek.EvalError, match=f"no patients in split '{split}'"):
            block(table)

    def test_probe_block_separable(self, rng):
        table = make_table(rng)
        block = probe_block(table)
        assert block["knn"]["balanced_accuracy"] == 1.0
        assert block["logreg"]["balanced_accuracy"] == 1.0
        assert block["logreg"]["converged"]
        assert probe_block(table, ("knn",)) == {"knn": block["knn"]}

    def test_balanced_accuracy_of_resamples_equals_one_call_each(self, rng):
        # with 8 or more classes present np.mean sums the recalls pairwise
        for n_classes, n in ((3, 9), (10, 40)):
            y_true = np.array([f"class{c}" for c in rng.integers(0, n_classes, size=n)])
            y_pred = np.where(rng.random(n) < 0.6, y_true, "class1")
            rows = rng.integers(0, n, size=(300, n))
            per_row = ek.balanced_accuracy(y_true[rows], y_pred[rows])
            assert per_row.shape == (300,)
            assert any(len(set(y_true[r])) < len(set(y_true)) for r in rows), \
                "no resample missed a class"
            for r, got in zip(rows, per_row):
                one = ek.balanced_accuracy(y_true[r], y_pred[r])
                assert isinstance(one, float) and got == one == old_balanced_accuracy(
                    y_true[r], y_pred[r])

    def test_logreg_interval_equals_per_resample_loop(self, rng):
        table = make_table(rng, n_train=30, n_test=15, n_classes=3)
        table.slide = rng.standard_normal(table.slide.shape).astype(np.float32)
        train_x, train_y, test_x, test_y = harness._probe_inputs(table)
        pred = ek.logreg_probe(train_x, train_y, test_x, test_y).predictions
        logreg = probe_block(table, ("logreg",), n_boot=300, seed=3)["logreg"]
        out = logreg["interval"]
        assert 0.0 < out["point"] < 1.0
        assert out["point"] == logreg["balanced_accuracy"]
        draws = np.random.default_rng(3)
        values = [old_balanced_accuracy(test_y[r], pred[r])
                  for r in (draws.integers(0, 15, size=15) for _ in range(300))]
        assert (out["point"], out["boot_mean"], out["boot_std"]) == (
            old_balanced_accuracy(test_y, pred), float(np.mean(values)),
            float(np.std(values)))

    def test_logreg_interval_deterministic(self, rng):
        table = make_table(rng)
        a = probe_block(table, ("logreg",), n_boot=100, seed=1)["logreg"]["interval"]
        b = probe_block(table, ("logreg",), n_boot=100, seed=1)["logreg"]["interval"]
        assert a == b
        assert a["point"] == 1.0

    def test_per_gene_block_structure(self, rng):
        table = make_table(rng)
        cohort, params = gene_cohort(rng, table)
        block = per_gene_block(table, cohort, params, n_boot=2000, seed=0)
        assert block["genes"], "no usable genes"
        n_test = len(table.rows("test"))
        for info in block["genes"].values():
            assert 0.0 <= info["gene_to_slide_f1"] <= 1.0
            assert 0.0 <= info["slide_to_gene_f1"] <= 1.0
            assert info["n_positive"] > 0
            # a random ranking puts N_g/N of the top-N_g on positives
            assert info["random_f1"] == pytest.approx(info["n_positive"] / n_test,
                                                      abs=0.03)

    def test_per_gene_random_f1_equals_per_gene_loop(self, rng):
        table = make_table(rng)
        cohort, params = gene_cohort(rng, table)
        genes = per_gene_block(table, cohort, params, n_boot=50, seed=7)["genes"]
        test = [p for p in cohort.patients if p.split == "test"]
        relevant = np.array([p.mutations for p in test], dtype=bool).T
        usable = [g for g, row in enumerate(relevant) if 0 < row.sum() < len(test)]
        assert [f"gene{g:02d}" for g in usable] == list(genes)
        draws = np.random.default_rng(7)
        for g in usable:
            row = relevant[g]
            tiles = np.stack([row[draws.permutation(len(row))] for _ in range(50)])
            assert genes[f"gene{g:02d}"]["random_f1"] == ek.f1_at_n_relevant(tiles).mean()

    def test_per_gene_block_without_usable_gene(self, rng):
        # identical mutations: no gene has both a positive and a negative
        table = make_table(rng, n_train=2, n_test=4)
        params = init_mlp_params(3, 32, 32, "proj_m", np.random.default_rng(0))
        patients = [
            Patient(pid, lab, spl, CellBag(pid, np.zeros((2, 8), np.float32)),
                    np.zeros(12, np.uint8), np.array([1, 0, 1], np.uint8))
            for pid, lab, spl in zip(table.patient_ids, table.labels, table.splits)
        ]
        assert per_gene_block(table, Cohort(patients), params) == {"genes": {}}

    def test_report_to_tsv_flattens(self):
        tsv = report_to_tsv({"a": {"b": 1.5, "name": "x"}, "c": 2})
        lines = tsv.strip().splitlines()
        assert lines[0] == "metric\tvalue"
        assert "a.b\t1.5" in lines
        assert "c\t2" in lines
        assert not any("name" in l for l in lines[1:])


def tiny_cohort(rng, n_per_class=8):
    patients = []
    means = rng.standard_normal((2, 12)) * 4
    for c in range(2):
        for i in range(n_per_class):
            pid = f"c{c}_{i}"
            cells = (means[c] + rng.standard_normal((6, 12))).astype(np.float32)
            karyo = np.zeros(1104, dtype=np.uint8)
            karyo[c * 7: c * 7 + 4] = 1
            mut = np.zeros(25, dtype=np.uint8)
            mut[c * 2] = 1
            split = "test" if i >= n_per_class - 3 else "train"
            patients.append(Patient(pid, f"class{c}", split,
                                    CellBag(pid, cells), karyo, mut))
    from genalign.karyogram import load_band_table
    return Cohort(patients, band_table_sha256=load_band_table().sha256)


TINY_AGG = AggregatorConfig(depth=1, heads=2, embed_dim=12, mlp_dim=24,
                            input_dim=12, max_cells=8)


class TestAblation:
    def test_grid_shape_and_determinism(self, rng, tmp_path):
        cohort = tiny_cohort(rng)
        grid = AblationGrid(defaults={"epochs": 2, "batch_size": 6}, n_boot=30, seed=5)
        from genalign.aggregator import init_params
        pretrained = init_params(TINY_AGG, np.random.default_rng(1))
        result = run_ablation(cohort, TINY_AGG, grid, pretrained_aggregator=pretrained)
        assert [r["ablation"] for r in result["rows"]] == (
            ["aggregator"] * 3 + ["karyotype_resolution"] * 2 + ["recon_weight"] * 3
        )
        settings = [r["setting"] for r in result["rows"]]
        assert settings[:3] == ["transformer_pretrained", "transformer_random", "mean_pool"]
        assert settings[3:5] == ["band", "arm"]
        assert settings[5:] == ["lambda_r=1.0", "lambda_r=0.1", "lambda_r=0.0"]
        rerun = run_ablation(cohort, TINY_AGG, grid, pretrained_aggregator=pretrained)
        assert json.dumps(result, sort_keys=True) == json.dumps(rerun, sort_keys=True)
        tsv = ablation_to_tsv(result)
        assert len(tsv.strip().splitlines()) == 9  # header + 8 rows

    def test_default_grid_trains_each_distinct_config_once(self, rng, monkeypatch):
        from genalign.aggregator import init_params
        cohort = tiny_cohort(rng)
        trained = []
        real_train_align = harness.train_align

        def counting_train_align(cohort, agg_config, config, **kwargs):
            trained.append(config)
            return real_train_align(cohort, agg_config, config, **kwargs)

        monkeypatch.setattr(harness, "train_align", counting_train_align)
        grid = AblationGrid(defaults={"epochs": 1, "batch_size": 6}, n_boot=10, seed=5)
        pretrained = init_params(TINY_AGG, np.random.default_rng(1))
        rows = run_ablation(cohort, TINY_AGG, grid, pretrained_aggregator=pretrained)["rows"]
        assert len(rows) == 8
        assert len(trained) == 6
        assert len({json.dumps(c.to_dict(), sort_keys=True) for c in trained}) == 6
        # transformer_pretrained, band and lambda_r=1.0 are all the defaults
        metrics = [{k: v for k, v in rows[i].items() if k not in ("ablation", "setting")}
                   for i in (0, 3, 5)]
        assert metrics[0] == metrics[1] == metrics[2]

    def test_rows_are_slices_of_the_report_of_their_config(self, rng, monkeypatch):
        cohort = tiny_cohort(rng)
        results = []
        real_train_align = harness.train_align

        def keeping_train_align(*args, **kwargs):
            results.append(real_train_align(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "train_align", keeping_train_align)
        grid = AblationGrid(aggregator=["mean_pool"], karyotype_resolution=["arm"],
                            recon_weight=[0.0], defaults={"epochs": 1, "batch_size": 6},
                            n_boot=20, seed=4)
        rows = run_ablation(cohort, TINY_AGG, grid)["rows"]
        assert len(rows) == len(results) == 3
        for row, result in zip(rows, results):
            tasks = score_table(result.table, cohort, result.params,
                                ("retrieval", "logreg"), seed=4, n_boot=20)["tasks"]
            assert row["logreg_bacc"] == tasks["probes"]["logreg"]["interval"]
            assert row["sk_mrr"] == tasks["retrieval"]["S->K"]["mrr"]
            assert row["ks_mrr"] == tasks["retrieval"]["K->S"]["mrr"]

    def test_one_probe_fit_per_config_and_no_second_embedding(self, rng, monkeypatch):
        from genalign import evalkit
        cohort = tiny_cohort(rng)
        calls = {"logreg_probe": 0, "embed_cohort": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(evalkit, "logreg_probe")
        counting(harness, "embed_cohort")
        grid = AblationGrid(aggregator=["mean_pool", "transformer_random"],
                            karyotype_resolution=["band"], recon_weight=[],
                            defaults={"epochs": 1, "batch_size": 6}, n_boot=10, seed=0)
        rows = run_ablation(cohort, TINY_AGG, grid)["rows"]
        # transformer_random at band resolution is one config, scored once
        assert len(rows) == 3
        assert calls == {"logreg_probe": 2, "embed_cohort": 0}

    def test_unknown_aggregator_setting_refused_before_training(self):
        with pytest.raises(ValueError, match=r"unknown aggregator settings \['nope'\]"):
            AblationGrid(aggregator=["mean_pool", "nope"])

    def test_single_axis_single_value(self, rng):
        cohort = tiny_cohort(rng)
        grid = AblationGrid(aggregator=["mean_pool"], karyotype_resolution=[],
                            recon_weight=[], defaults={"epochs": 1, "batch_size": 6},
                            n_boot=10, seed=0)
        result = run_ablation(cohort, TINY_AGG, grid)
        assert len(result["rows"]) == 1
        assert result["rows"][0]["setting"] == "mean_pool"


class TestEvaluateReport:
    def test_task_selection(self, rng):
        cohort = tiny_cohort(rng)
        cfg = AlignConfig(epochs=2, batch_size=6, aggregator_mode="mean_pool",
                          init="random", seed=2)
        from genalign.align import train_align
        result = train_align(cohort, TINY_AGG, cfg)
        report = harness.evaluate_report(
            cohort, result.params, TINY_AGG, cfg,
            tasks=("retrieval", "knn"), seed=0, n_boot=30,
        )
        assert set(report["tasks"]) == {"retrieval", "probes"}
        assert "knn" in report["tasks"]["probes"]
        assert "logreg" not in report["tasks"]["probes"]
        assert report["n_patients"]["test"] == 6

    def test_each_probe_fitted_once_and_only_when_requested(self, rng, monkeypatch):
        from genalign import evalkit
        cohort = tiny_cohort(rng)
        cfg = AlignConfig(epochs=1, batch_size=6, aggregator_mode="mean_pool",
                          init="random", seed=2)
        params = harness.train_align(cohort, TINY_AGG, cfg).params
        fits = []
        real_logreg_probe = evalkit.logreg_probe

        def counting_logreg_probe(*args, **kwargs):
            fits.append(args)
            return real_logreg_probe(*args, **kwargs)

        monkeypatch.setattr(evalkit, "logreg_probe", counting_logreg_probe)
        report = harness.evaluate_report(cohort, params, TINY_AGG, cfg,
                                         tasks=("knn",), n_boot=10)
        assert set(report["tasks"]["probes"]) == {"knn"}
        assert fits == []
        harness.evaluate_report(cohort, params, TINY_AGG, cfg, n_boot=10)
        assert len(fits) == 1

    def test_one_retrieve_call_per_query_block(self, rng, monkeypatch):
        from genalign import evalkit
        cohort = tiny_cohort(rng)
        cfg = AlignConfig(epochs=1, batch_size=6, aggregator_mode="mean_pool",
                          init="random", seed=2)
        params = harness.train_align(cohort, TINY_AGG, cfg).params
        calls = []
        real_retrieve = evalkit.retrieve

        def counting_retrieve(*args, **kwargs):
            calls.append(args)
            return real_retrieve(*args, **kwargs)

        monkeypatch.setattr(evalkit, "retrieve", counting_retrieve)
        report = harness.evaluate_report(cohort, params, TINY_AGG, cfg, n_boot=10)
        assert report["tasks"]["per_gene"]["genes"]
        # four cross-modal directions, slide->slide and gene->slide
        assert len(calls) == 6

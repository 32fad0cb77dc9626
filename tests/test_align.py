import json
import math

import numpy as np
import pytest

from genalign import align, gbio, ndiff, optim
from genalign.aggregator import AggregatorConfig, CellBag, init_params
from genalign.align import (
    AlignConfig,
    SupconStats,
    load_align_checkpoint,
    reconstruction_loss,
    stratified_batches,
    supcon_symmetric,
    train_align,
)
from genalign.cohort import Cohort, Patient
from genalign.karyogram import load_band_table
from genalign.ndiff import Tensor
from genalign.optim import TrainingError
from genalign.synthcohort import SynthConfig, generate

TINY_AGG = AggregatorConfig(depth=1, heads=2, embed_dim=12, mlp_dim=24,
                            input_dim=12, max_cells=16)


def unit_rows(rng, shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def supcon_oracle(za, zb, labels, tau):
    """Direct summation of the directional loss definition."""
    n = len(labels)
    total, alive = 0.0, 0
    for p in range(n):
        pos = [j for j in range(n) if j != p and labels[j] == labels[p]]
        if not pos:
            continue
        alive += 1
        inner = 0.0
        for j in pos:
            logits = [float(za[p] @ zb[q]) / tau for q in range(n)]
            m = max(logits)
            log_denom = m + math.log(sum(math.exp(l - m) for l in logits))
            inner += logits[j] - log_denom
        total += inner / len(pos)
    return -total / alive if alive else 0.0


def supcon_oracle_both(za, zb, labels, tau):
    return 0.5 * (supcon_oracle(za, zb, labels, tau) + supcon_oracle(zb, za, labels, tau))


class TestSupconDirectional:
    """``supcon_symmetric`` against the directional definition, per direction."""

    def test_two_identical_same_class(self):
        u = np.zeros((1, 8))
        u[0, 0] = 1.0
        z = Tensor(np.vstack([u, u]))
        loss = supcon_symmetric(z, Tensor(z.data.copy()), np.array([0, 0]), 0.3)
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-9)

    def test_no_positives_returns_zero_and_counts(self, rng):
        za = Tensor(unit_rows(rng, (2, 8)), requires_grad=True)
        stats = SupconStats()
        with ndiff.Tape() as tape:
            loss = supcon_symmetric(za, Tensor(unit_rows(rng, (2, 8))),
                                    np.array([0, 1]), 0.1, stats)
        assert float(loss.data) == 0.0
        assert stats.empty_anchor_count == 4
        # the zero is on the tape, so a loss made of it alone still backpropagates
        assert not tape.backward(loss)[za].any()

    def test_matches_scalar_loop_oracle(self, rng):
        za = unit_rows(rng, (3, 16))
        zb = unit_rows(rng, (3, 16))
        labels = np.array(["A", "A", "B"])
        loss = supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.5)
        assert float(loss.data) == pytest.approx(
            supcon_oracle_both(za, zb, labels, 0.5), rel=1e-9
        )

    def test_oracle_agreement_with_partial_empty_anchors(self, rng):
        # anchor 4 has no positives; it must drop out of the average
        za = unit_rows(rng, (5, 8))
        zb = unit_rows(rng, (5, 8))
        labels = np.array([0, 0, 1, 1, 2])
        stats = SupconStats()
        loss = supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.2, stats)
        assert float(loss.data) == pytest.approx(
            supcon_oracle_both(za, zb, labels, 0.2), rel=1e-9
        )
        assert stats.empty_anchor_count == 2

    def test_batch_permutation_invariance(self, rng):
        za = unit_rows(rng, (6, 8))
        zb = unit_rows(rng, (6, 8))
        labels = np.array([0, 0, 1, 1, 2, 2])
        base = float(supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.1).data)
        perm = rng.permutation(6)
        shuffled = float(
            supcon_symmetric(Tensor(za[perm]), Tensor(zb[perm]), labels[perm], 0.1).data
        )
        assert shuffled == pytest.approx(base, rel=1e-6)

    def test_rotation_invariance_and_temperature_dependence(self, rng):
        za = unit_rows(rng, (4, 8))
        zb = unit_rows(rng, (4, 8))
        labels = np.array([0, 0, 1, 1])
        base = float(supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.1).data)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        rotated = float(
            supcon_symmetric(Tensor(za @ q), Tensor(zb @ q), labels, 0.1).data
        )
        assert rotated == pytest.approx(base, rel=1e-5)
        other_temp = float(supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.5).data)
        assert abs(other_temp - base) > 1e-6

    def test_clustered_beats_shuffled_labels(self):
        e = np.eye(8)
        za = np.vstack([e[0], e[0], e[0], e[1], e[1], e[1]])
        zb = za.copy()
        clustered = np.array([0, 0, 0, 1, 1, 1])
        shuffled = np.array([0, 1, 0, 1, 0, 1])
        low = float(supcon_symmetric(Tensor(za), Tensor(zb), clustered, 0.1).data)
        high = float(supcon_symmetric(Tensor(za), Tensor(zb), shuffled, 0.1).data)
        assert low < high

    def test_rejects_small_or_unnormalized_batches(self, rng):
        with pytest.raises(ValueError, match=">= 2"):
            supcon_symmetric(Tensor(unit_rows(rng, (1, 4))),
                             Tensor(unit_rows(rng, (1, 4))), np.array([0]), 0.1)
        bad = Tensor(unit_rows(rng, (2, 4)) * 1.3)
        with pytest.raises(ValueError, match="unit-norm"):
            supcon_symmetric(bad, Tensor(unit_rows(rng, (2, 4))),
                             np.array([0, 0]), 0.1)
        with pytest.raises(ValueError, match="unit-norm"):
            supcon_symmetric(Tensor(unit_rows(rng, (2, 4))), bad,
                             np.array([0, 0]), 0.1)
        with pytest.raises(ValueError, match="shapes differ"):
            supcon_symmetric(Tensor(unit_rows(rng, (2, 4))),
                             Tensor(unit_rows(rng, (2, 8))), np.array([0, 0]), 0.1)

    def test_gradient_passes_grad_check_b4(self, rng):
        zb = unit_rows(rng, (4, 8))
        labels = np.array([0, 0, 1, 1])

        def f_anchor(raw):
            za = ndiff.l2_normalize(raw)
            return supcon_symmetric(za, Tensor(zb), labels, 0.2)

        report = ndiff.grad_check(f_anchor, Tensor(rng.standard_normal((4, 8))),
                                  eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

        za = unit_rows(rng, (4, 8))

        def f_target(raw):
            return supcon_symmetric(Tensor(za), ndiff.l2_normalize(raw),
                                    labels, 0.2)

        report = ndiff.grad_check(f_target, Tensor(rng.standard_normal((4, 8))),
                                  eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestSupconSymmetric:
    def test_equal_modalities_match_directional(self, rng):
        z = unit_rows(rng, (4, 8))
        labels = np.array([0, 0, 1, 1])
        sym = float(supcon_symmetric(Tensor(z), Tensor(z.copy()), labels, 0.1).data)
        assert sym == pytest.approx(supcon_oracle(z, z, labels, 0.1), rel=1e-9)

    def test_modality_swap_symmetry(self, rng):
        za, zb = unit_rows(rng, (5, 8)), unit_rows(rng, (5, 8))
        labels = np.array([0, 1, 0, 1, 1])
        ab = float(supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.15).data)
        ba = float(supcon_symmetric(Tensor(zb), Tensor(za), labels, 0.15).data)
        assert ab == pytest.approx(ba, rel=1e-9)

    def test_half_sum_of_oracle_directions(self, rng):
        za, zb = unit_rows(rng, (6, 8)), unit_rows(rng, (6, 8))
        labels = np.array([0, 0, 0, 1, 1, 1])
        sym = float(supcon_symmetric(Tensor(za), Tensor(zb), labels, 0.3).data)
        assert sym == pytest.approx(supcon_oracle_both(za, zb, labels, 0.3), rel=1e-9)

    def test_one_similarity_matmul_per_call(self, rng, monkeypatch):
        matmul, calls = ndiff.matmul, []

        def counting_matmul(*args):
            calls.append(args)
            return matmul(*args)

        monkeypatch.setattr(ndiff, "matmul", counting_matmul)
        za, zb = unit_rows(rng, (6, 8)), unit_rows(rng, (6, 8))
        supcon_symmetric(Tensor(za), Tensor(zb), np.array([0, 0, 0, 1, 1, 1]), 0.3)
        assert len(calls) == 1


class TestReconstruction:
    def test_zero_logits(self):
        loss = reconstruction_loss(Tensor(np.zeros((4, 7))), np.ones((4, 7)))
        assert float(loss.data) == pytest.approx(math.log(2), rel=1e-9)

    def test_saturated_logits(self):
        loss = reconstruction_loss(Tensor(np.full((2, 3), 1e4)), np.ones((2, 3)))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_oracle(self, rng):
        logits = rng.standard_normal((2, 3))
        targets = (rng.random((2, 3)) > 0.5).astype(float)
        loss = float(reconstruction_loss(Tensor(logits), targets).data)
        acc = 0.0
        for i in range(2):
            for j in range(3):
                p = 1.0 / (1.0 + math.exp(-logits[i, j]))
                y = targets[i, j]
                acc += -(y * math.log(p) + (1 - y) * math.log(1 - p))
        assert loss == pytest.approx(acc / 6, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ndiff.NdiffError):
            reconstruction_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


class TestStratifiedBatches:
    def test_partition_and_pairing(self, rng):
        labels = ["A"] * 10 + ["B"] * 9 + ["C"] * 5
        batches = stratified_batches(labels, 8, rng)
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == list(range(24))
        for batch in batches[:-1]:
            counts = {}
            for i in batch:
                counts[labels[i]] = counts.get(labels[i], 0) + 1
            # every class present in a full batch shows up at least twice
            assert all(v >= 2 for v in counts.values())

    def test_a_class_can_sit_alone_while_more_of_it_remain(self, rng):
        # dealt two per class per round, B's second pair is cut by the batch
        # boundary: B sits alone in batch 2 with two Bs still unassigned
        labels = ["A"] * 3 + ["B"] * 4 + ["C"] * 4
        batches = stratified_batches(labels, 4, np.random.default_rng(0))
        assert [[labels[i] for i in b] for b in batches] == [
            ["A", "A", "B", "B"], ["C", "C", "A", "B"], ["B", "C", "C"]]
        # its lone A and lone B anchors count as empty, in both directions
        stats = SupconStats()
        z = Tensor(unit_rows(rng, (4, 8)))
        supcon_symmetric(z, z, np.array([labels[i] for i in batches[1]]), 0.1, stats)
        assert stats.empty_anchor_count == 4

    def test_no_singleton_batches(self, rng):
        labels = ["A"] * 5
        batches = stratified_batches(labels, 2, rng)
        assert all(len(b) >= 2 for b in batches)


def make_cohort(rng, n_per_class=6, n_classes=3, dim=12, n_cells=8,
                split_last=2, drop_modality=None):
    table = load_band_table()
    patients = []
    means = rng.standard_normal((n_classes, dim)) * 2.0
    for c in range(n_classes):
        for i in range(n_per_class):
            pid = f"c{c}_{i}"
            cells = (means[c] + rng.standard_normal((n_cells, dim))).astype(np.float32)
            karyo = np.zeros(3 * len(table), dtype=np.uint8)
            karyo[c * 10 : c * 10 + 5] = 1
            mut = np.zeros(25, dtype=np.uint8)
            mut[c] = 1
            split = "test" if i >= n_per_class - split_last else "train"
            patients.append(Patient(pid, f"class{c}", split, CellBag(pid, cells),
                                    None if drop_modality == pid else karyo, mut))
    return Cohort(patients, band_table_sha256=table.sha256)


TINY_ALIGN = AlignConfig(epochs=2, batch_size=6, aggregator_mode="mean_pool",
                         init="random", seed=3)


class TestTrainAlign:
    def test_mean_pool_uses_raw_cell_average(self, rng):
        cohort = make_cohort(rng)
        result = train_align(cohort, TINY_AGG, TINY_ALIGN)
        complete = [p for p in cohort.patients if p.complete]
        for i, p in enumerate(complete):
            assert np.allclose(result.table.slide[i], p.bag.cells.mean(axis=0),
                               atol=1e-6)

    def test_projections_unit_norm(self, rng):
        cohort = make_cohort(rng)
        result = train_align(cohort, TINY_AGG, TINY_ALIGN)
        for mat in (result.table.z_slide, result.table.z_karyotype,
                    result.table.z_mutation):
            assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-4)

    def test_lambda_zero_reduces_to_supcon_sum(self, rng):
        cohort = make_cohort(rng)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "recon_weight": 0.0, "epochs": 1})
        result = train_align(cohort, TINY_AGG, cfg)
        record = result.metrics[0]
        assert record["total"] == pytest.approx(
            record["supcon_sk"] + record["supcon_sm"], rel=1e-6
        )
        assert record["recon"] == 0.0

    def test_recon_free_batch_without_a_same_class_pair_trains(self):
        # 7 + 3 training labels dealt two per class leave a batch with one
        # patient of each class; with recon off, SupCon is its whole loss
        cohort = generate(SynthConfig(
            n_patients=12, n_classes=2, karyotype_signatures=[["+8"], ["-7"]],
            mutation_rates=[[0.5] * 5, [0.2] * 5], cells_min=8, cells_max=10,
            input_dim=8, seed=0))
        agg = AggregatorConfig(depth=1, heads=2, embed_dim=8, input_dim=8, max_cells=10)
        cfg = AlignConfig(init="random", epochs=1, batch_size=2, recon_weight=0.0)
        record = train_align(cohort, agg, cfg).metrics[0]
        assert record["empty_anchors"] > 0
        assert np.isfinite(record["total"])

    def test_lr_schedule_plans_the_batches_made(self, rng, monkeypatch):
        # 33 training patients at batch size 32: the lone leftover joins the
        # last batch, so each epoch takes one step, not ceil(33 / 32) = 2
        cohort = make_cohort(rng, n_per_class=13)
        schedule, lr = [], optim.warmup_cosine_lr

        def recording_lr(step, total_steps, base_lr):
            schedule.append((step, total_steps))
            return lr(step, total_steps, base_lr)

        monkeypatch.setattr(optim, "warmup_cosine_lr", recording_lr)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "epochs": 3, "batch_size": 32})
        train_align(cohort, TINY_AGG, cfg)
        assert len([p for p in cohort.subset("train") if p.complete]) == 33
        assert schedule == [(0, 3), (1, 3), (2, 3)]

    def test_arm_resolution_width(self, rng):
        cohort = make_cohort(rng)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "karyotype_resolution": "arm"})
        result = train_align(cohort, TINY_AGG, cfg)
        assert result.params["proj_k.w1"].shape[0] == 144

    def test_missing_modality_excluded_with_warning(self, rng, caplog):
        cohort = make_cohort(rng, drop_modality="c0_0")
        with caplog.at_level("WARNING"):
            result = train_align(cohort, TINY_AGG, TINY_ALIGN)
        assert result.excluded == ["c0_0"]
        assert "c0_0" in caplog.text
        assert "c0_0" not in result.table.patient_ids

    def test_finetune_requires_checkpoint(self, rng):
        cohort = make_cohort(rng)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": "finetune",
                             "init": "pretrained"})
        with pytest.raises(TrainingError, match="stage-1"):
            train_align(cohort, TINY_AGG, cfg)

    def test_dimension_mismatch_refused(self, rng):
        cohort = make_cohort(rng)
        other = AggregatorConfig(depth=1, heads=2, embed_dim=16, mlp_dim=32,
                                 input_dim=12, max_cells=16)
        ckpt = init_params(other, rng)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": "finetune",
                             "init": "pretrained"})
        with pytest.raises(TrainingError, match=r"the stage-1 aggregator differs from the configured "
                                                r"one: tensor 'block0\.attn\.bo' has shape \[1, 16\], "
                                                r"not \[1, 12\]"):
            train_align(cohort, TINY_AGG, cfg, pretrained_aggregator=ckpt)

    @pytest.mark.parametrize("edit, message", [
        ("missing", r"no tensor 'block0\.mlp\.w1'"),
        ("extra_block", r"tensor 'block1\.attn\.bo' is not in the model"),
    ])
    def test_stage1_aggregator_of_another_model_refused(self, rng, edit, message):
        depth = 2 if edit == "extra_block" else 1
        ckpt = init_params(AggregatorConfig(**{**vars(TINY_AGG), "depth": depth}), rng)
        if edit == "missing":
            del ckpt["block0.mlp.w1"]
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": "finetune",
                             "init": "pretrained"})
        with pytest.raises(TrainingError, match="the stage-1 aggregator differs from the "
                                                f"configured one: {message}"):
            train_align(make_cohort(rng), TINY_AGG, cfg, pretrained_aggregator=ckpt)

    @pytest.mark.parametrize("mode", ["mean_pool", "finetune"])
    def test_cells_of_another_width_than_input_dim_refused(self, rng, monkeypatch, mode):
        def no_init(*args, **kwargs):
            raise AssertionError("parameters initialised before the width check")

        monkeypatch.setattr(align, "init_align_params", no_init)
        wide = AggregatorConfig(depth=1, heads=2, embed_dim=12, mlp_dim=24,
                                input_dim=64, max_cells=16)
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": mode})
        with pytest.raises(TrainingError, match="cells are 12 wide but the aggregator's input_dim is 64"):
            train_align(make_cohort(rng), wide, cfg)

    def test_finetune_step_one_taped_forward_per_batch(self, rng, monkeypatch):
        from genalign import aggregator
        cohort = make_cohort(rng)
        for i, p in enumerate(cohort.patients):
            p.bag = CellBag(p.patient_id, p.bag.cells[: 5 + i % 3])
        train = [p for p in cohort.subset("train") if p.complete]
        taped, batches = [], []
        forward, batcher = aggregator.forward, align.stratified_batches

        def counting_forward(*args):
            taped.append((ndiff._ACTIVE_TAPE is not None, len(args[-1])))
            return forward(*args)

        def recording_batches(*args):
            batches.extend(batcher(*args))
            return batches

        monkeypatch.setattr(aggregator, "forward", counting_forward)
        monkeypatch.setattr(align, "stratified_batches", recording_batches)
        cfg = AlignConfig(epochs=1, batch_size=6, aggregator_mode="finetune",
                          init="random", seed=1)
        train_align(cohort, TINY_AGG, cfg)
        lengths = [len({train[i].bag.n_cells for i in batch}) for batch in batches]
        assert len(batches) > 1 and max(lengths) > 1
        # one taped call per batch holds its bags of every length
        assert [n for is_taped, n in taped if is_taped] == [len(batch) for batch in batches]

    def test_finetune_random_init_runs(self, rng):
        cohort = make_cohort(rng, n_per_class=4)
        cfg = AlignConfig(epochs=1, batch_size=6, aggregator_mode="finetune",
                          init="random", seed=1)
        result = train_align(cohort, TINY_AGG, cfg)
        assert result.table.slide.shape[1] == TINY_AGG.embed_dim
        assert np.isfinite(result.metrics[0]["total"])

    def test_checkpoint_roundtrip_and_table_io(self, rng, tmp_path):
        cohort = make_cohort(rng)
        result = train_align(cohort, TINY_AGG, TINY_ALIGN)
        ckpt = tmp_path / "aligned.gbck"
        result.save(ckpt)
        assert set(gbio.read_gbck(ckpt)[1]["config"]) == {"stage", "aggregator", "align"}
        params, agg_cfg, align_cfg = load_align_checkpoint(ckpt)
        assert agg_cfg.embed_dim == TINY_AGG.embed_dim
        assert align_cfg.aggregator_mode == "mean_pool"
        table2 = align.embed_cohort(cohort, params, agg_cfg, align_cfg)
        assert np.allclose(table2.z_slide, result.table.z_slide, atol=1e-6)
        result.table.save(tmp_path)
        loaded = align.load_table(tmp_path)
        assert loaded.patient_ids == result.table.patient_ids
        assert np.allclose(loaded.z_karyotype, result.table.z_karyotype)

    def test_load_table_refuses_a_matrix_of_other_patients(self, rng, tmp_path):
        z = rng.standard_normal((3, 4)).astype(np.float32)
        table = align.AlignedTable(["a", "b", "c"], ["x", "y", "x"], ["train", "test", "test"],
                                   z, z, z, z)
        table.save(tmp_path)
        assert align.load_table(tmp_path).patient_ids == ["a", "b", "c"]
        # a stale projection table from another run, of other patients
        stale = tmp_path / "aligned.zk.gbm"
        gbio.write_gbm(stale, gbio.Matrix(z, ["c", "b", "a"]))
        with pytest.raises(gbio.FormatError, match=f"{stale}: patient ids differ"):
            align.load_table(tmp_path)

    @pytest.mark.parametrize("index_edit", [
        {"patient_ids": None}, {"labels": None}, {"splits": None},
        {"labels": ["x", "y", "x", "y"]}, {"splits": ["train"]}, "{not json",
    ], ids=["no_patient_ids", "no_labels", "no_splits", "extra_label", "one_split", "not_json"])
    def test_load_table_refuses_an_unreadable_index(self, rng, tmp_path, index_edit):
        z = rng.standard_normal((3, 4)).astype(np.float32)
        align.AlignedTable(["a", "b", "c"], ["x", "y", "x"], ["train", "test", "test"],
                           z, z, z, z).save(tmp_path)
        index_path = tmp_path / "aligned.index.json"
        if isinstance(index_edit, str):
            index_path.write_text(index_edit)
        else:
            index = {**json.loads(index_path.read_text()), **index_edit}
            index_path.write_text(json.dumps({k: v for k, v in index.items() if v is not None}))
        with pytest.raises(gbio.FormatError, match=f"{index_path}: (needs lists|unreadable JSON)"):
            align.load_table(tmp_path)

    @pytest.mark.parametrize("mode", ["mean_pool", "finetune"])
    def test_load_align_checkpoint_draws_no_random_model(self, rng, tmp_path, monkeypatch, mode):
        """The loader checks names and shapes against the configs' spec,
        not against a random model: it makes no generator, and still
        refuses a misshapen tensor by name."""
        ckpt = tmp_path / "aligned.gbck"
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": mode, "epochs": 1})
        train_align(make_cohort(rng), TINY_AGG, cfg).save(ckpt)
        tensors, header = gbio.read_gbck(ckpt)

        def no_rng(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        params, _, _ = load_align_checkpoint(ckpt)
        assert params.keys() == tensors.keys()
        assert all(np.array_equal(params[name].data, arr) for name, arr in tensors.items())
        tensors["proj_s.w2"] = tensors["proj_s.w2"][:, :5]
        gbio.write_gbck(ckpt, tensors, header["config"])
        with pytest.raises(gbio.FormatError, match=r"tensor 'proj_s\.w2' has shape \[256, 5\], not \[256, 128\]"):
            load_align_checkpoint(ckpt)

    @pytest.mark.parametrize("section", ["aggregator", "align"])
    def test_load_align_checkpoint_refuses_header_without_section(self, rng, tmp_path, section):
        ckpt = tmp_path / "aligned.gbck"
        train_align(make_cohort(rng), TINY_AGG, TINY_ALIGN).save(ckpt)
        tensors, header = gbio.read_gbck(ckpt)
        del header["config"][section]
        gbio.write_gbck(ckpt, tensors, header["config"])
        with pytest.raises(gbio.FormatError, match=f"{ckpt}: .* no '{section}' config section"):
            load_align_checkpoint(ckpt)

    @pytest.mark.parametrize("mode", ["mean_pool", "finetune"])
    @pytest.mark.parametrize("edit, message", [
        ("missing", r"no tensor 'proj_s\.b1'"),
        ("extra_block", r"tensor 'agg\.block1\.attn\.bo' is not in the model"),
        ("misshapen", r"tensor 'dec_k\.w1' has shape \[3, 256\], not \[128, 256\]"),
    ])
    def test_load_align_checkpoint_refuses_tensors_its_configs_do_not_declare(
            self, rng, tmp_path, mode, edit, message):
        ckpt = tmp_path / "aligned.gbck"
        cfg = AlignConfig(**{**TINY_ALIGN.to_dict(), "aggregator_mode": mode, "epochs": 1})
        train_align(make_cohort(rng), TINY_AGG, cfg).save(ckpt)
        tensors, header = gbio.read_gbck(ckpt)
        if edit == "missing":
            del tensors["proj_s.b1"]
        elif edit == "extra_block":
            tensors.update({f"agg.block1.{name[len('block0.'):]}": p.data for name, p in
                            init_params(TINY_AGG, rng).items() if name.startswith("block0.")})
        else:
            tensors["dec_k.w1"] = np.zeros((3, 256), np.float32)
        gbio.write_gbck(ckpt, tensors, header["config"])
        with pytest.raises(gbio.FormatError, match=f"{ckpt}: tensors differ from the model "
                                                   f"its header's configs declare: {message}"):
            load_align_checkpoint(ckpt)

    @pytest.mark.parametrize("name", ["proj_k.w1", "proj_m.w1"])
    @pytest.mark.parametrize("shape", [None, (5,), (0, 256)], ids=["missing", "1d", "width0"])
    def test_load_align_checkpoint_refuses_a_genetic_width_it_cannot_read(
            self, rng, tmp_path, name, shape):
        ckpt = tmp_path / "aligned.gbck"
        train_align(make_cohort(rng), TINY_AGG, TINY_ALIGN).save(ckpt)
        tensors, header = gbio.read_gbck(ckpt)
        if shape is None:
            del tensors[name]
        else:
            tensors[name] = np.zeros(shape, np.float32)
        gbio.write_gbck(ckpt, tensors, header["config"])
        with pytest.raises(gbio.FormatError,
                           match=f"{ckpt}: needs a 2-D tensor '{name}' with at least one row"):
            load_align_checkpoint(ckpt)

    def test_deterministic_given_seed(self, rng, tmp_path):
        cohort = make_cohort(rng)
        a = train_align(cohort, TINY_AGG, TINY_ALIGN)
        b = train_align(cohort, TINY_AGG, TINY_ALIGN)
        pa, pb = tmp_path / "a.gbck", tmp_path / "b.gbck"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignConfig(temperature=0.0)
        with pytest.raises(ValueError):
            AlignConfig(recon_weight=-0.1)
        with pytest.raises(ValueError):
            AlignConfig(batch_size=1)
        with pytest.raises(ValueError):
            AlignConfig(aggregator_mode="bogus")
        with pytest.raises(ValueError, match="epochs"):
            AlignConfig(epochs=0)
        # a zero backbone rate is allowed: the aggregator then stays as loaded
        assert AlignConfig(aggregator_lr=0.0).aggregator_lr == 0.0

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("lr", -1e-4), ("aggregator_lr", -1e-5), ("shared_dim", 0), ("head_hidden", 0),
        ("head_hidden", -1),
    ])
    def test_config_rejects_rates_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            AlignConfig(**{field: value})

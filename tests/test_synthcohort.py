import numpy as np
import pytest
from scipy import stats

from genalign import synthcohort as sc
from genalign.cohort import load_cohort_dir
from genalign.evalkit import knn_probe


def noiseless_config(**overrides):
    rates = [[0.0] * sc.N_GENES for _ in range(4)]
    for c in range(4):
        rates[c][c] = 1.0
    base = dict(
        n_patients=40,
        composition_noise=0.0,
        embedding_noise=0.0,
        label_noise=0.0,
        mutation_rates=rates,
        cells_min=8,
        cells_max=8,
        input_dim=16,
        n_cell_archetypes=4,
        seed=5,
    )
    base.update(overrides)
    return sc.SynthConfig(**base)


class TestGenerate:
    def test_noiseless_limit_identical_genetics_per_class(self):
        cohort = sc.generate(noiseless_config())
        by_class = {}
        for p in cohort.patients:
            by_class.setdefault(p.label, []).append(p)
        for members in by_class.values():
            first = members[0]
            for p in members[1:]:
                assert np.array_equal(p.karyotype, first.karyotype)
                assert np.array_equal(p.mutations, first.mutations)

    def test_noiseless_cells_are_archetype_rows(self):
        cohort = sc.generate(noiseless_config())
        all_cells = np.concatenate([p.bag.cells for p in cohort.patients])
        distinct = np.unique(all_cells.round(5), axis=0)
        assert len(distinct) <= 4  # n_cell_archetypes

    def test_default_class_compositions_differ_pairwise(self):
        cohort = sc.generate(sc.SynthConfig(n_patients=100, seed=1))
        means = {}
        for label in {p.label for p in cohort.patients}:
            bags = [p.bag.cells.mean(axis=0) for p in cohort.patients if p.label == label]
            means[label] = np.mean(bags, axis=0)
        labels = sorted(means)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert np.linalg.norm(means[a] - means[b]) > 0.1

    def test_split_sizes(self):
        cohort = sc.generate(sc.SynthConfig(n_patients=250, seed=0))
        assert len(cohort.subset("test")) == 50
        assert len(cohort.subset("train")) == 200

    def test_label_noise_one_decouples_mutations_from_class(self):
        cohort = sc.generate(
            sc.SynthConfig(n_patients=250, label_noise=1.0, seed=3)
        )
        classes = sorted({p.label for p in cohort.patients})
        mut = {c: np.stack([p.mutations for p in cohort.patients if p.label == c])
               for c in classes}
        p_values = []
        for gene in range(sc.N_GENES):
            tbl = np.array([
                [int(mut[c][:, gene].sum()), int((1 - mut[c][:, gene]).sum())]
                for c in classes
            ])
            if (tbl.sum(axis=0) == 0).any():
                continue
            p_values.append(stats.chi2_contingency(tbl).pvalue)
        assert min(p_values) > 1e-4

    def test_label_noise_drops_karyotype_events(self):
        full = sc.generate(sc.SynthConfig(n_patients=120, seed=2))
        noisy = sc.generate(
            sc.SynthConfig(n_patients=120, label_noise=0.6, seed=2)
        )
        assert sum(p.karyotype.sum() for p in noisy.patients) < sum(
            p.karyotype.sum() for p in full.patients
        )

    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = sc.SynthConfig(n_patients=30, seed=11)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        sc.generate(cfg).save(dir_a)
        sc.generate(cfg).save(dir_b)
        for name in ("bags.gbm", "karyotypes.gbm", "mutations.gbm", "labels.tsv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_cohort_roundtrip(self, band_table, tmp_path):
        cfg = sc.SynthConfig(n_patients=20, seed=4)
        cohort = sc.generate(cfg)
        cohort.save(tmp_path)
        loaded = load_cohort_dir(tmp_path)
        assert [p.patient_id for p in loaded.patients] == [
            p.patient_id for p in cohort.patients
        ]
        for a, b in zip(loaded.patients, cohort.patients):
            assert np.allclose(a.bag.cells, b.bag.cells)
            assert np.array_equal(a.karyotype, b.karyotype)
            assert a.label == b.label and a.split == b.split
        assert loaded.band_table_sha256 == band_table.sha256

    def test_embedding_noise_degrades_knn_monotonically(self):
        # monotone in the mean over seeds
        levels = [0.2, 1.5, 6.0]
        mean_bacc = []
        for sigma in levels:
            baccs = []
            for seed in (0, 1, 2):
                cfg = sc.SynthConfig(n_patients=80, embedding_noise=sigma,
                                     seed=seed, cells_min=16, cells_max=16,
                                     input_dim=16)
                cohort = sc.generate(cfg)
                train = cohort.subset("train")
                test = cohort.subset("test")
                tx = np.stack([p.bag.cells.mean(axis=0) for p in train])
                ty = np.array([p.label for p in train])
                vx = np.stack([p.bag.cells.mean(axis=0) for p in test])
                vy = np.array([p.label for p in test])
                baccs.append(knn_probe(tx, ty, vx, vy, k=5))
            mean_bacc.append(np.mean(baccs))
        assert mean_bacc[0] > mean_bacc[1] > mean_bacc[2]

    def test_every_signature_encodes(self, band_table):
        cohort = sc.generate(sc.SynthConfig(n_patients=12, seed=9))
        for p in cohort.patients:
            assert p.karyotype.shape == (3 * len(band_table),)

    def test_bad_signature_surfaces_karyogram_error(self):
        from genalign.karyogram import UnsupportedNomenclatureError
        cfg = sc.SynthConfig(
            n_patients=4,
            karyotype_signatures=[["+8"], ["ins(3;3)(q21q26)"], ["+8"], ["+8"]],
        )
        with pytest.raises(UnsupportedNomenclatureError):
            sc.generate(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="signature"):
            sc.SynthConfig(karyotype_signatures=[["+8"]])
        with pytest.raises(ValueError, match="label_noise"):
            sc.SynthConfig(label_noise=1.5)
        with pytest.raises(ValueError, match="rates"):
            sc.SynthConfig(mutation_rates=[[2.0] * 25] * 4)

    @pytest.mark.parametrize("field,value", [
        ("n_patients", 0), ("n_patients", -2),
        ("test_fraction", 1.0), ("test_fraction", 1.5), ("test_fraction", -0.1),
        ("mutation_rates", [[0.5] * 25] * 3 + [[0.5] * 24]),
        ("n_cell_archetypes", 0), ("n_classes", 0), ("input_dim", 0),
    ])
    def test_config_rejects_cohorts_that_cannot_be_used(self, field, value):
        # n_classes = 0 comes with as many (zero) signatures and rate rows
        agreeing = {"karyotype_signatures": [], "mutation_rates": []} if field == "n_classes" else {}
        with pytest.raises(ValueError, match=f"^{field} must"):
            sc.SynthConfig(**agreeing, **{field: value})

    def test_smallest_accepted_cohort_saves(self, tmp_path):
        cfg = sc.SynthConfig(n_patients=1, test_fraction=0.0, cells_min=2, cells_max=2, input_dim=4)
        sc.generate(cfg).save(tmp_path)
        assert [p.split for p in load_cohort_dir(tmp_path).patients] == ["train"]


class TestOracleReport:
    def test_noiseless_frequencies_equal_configured(self):
        cfg = noiseless_config()
        cohort = sc.generate(cfg)
        report = sc.oracle_report(cohort, cfg)
        for c in range(4):
            got = report["mutation_frequencies"][f"class{c}"]
            assert got == pytest.approx(cfg.mutation_rates[c])

    def test_default_seed_within_binomial_ci(self):
        cfg = sc.SynthConfig(n_patients=300, seed=6)
        cohort = sc.generate(cfg)
        report = sc.oracle_report(cohort, cfg)
        for c in range(cfg.n_classes):
            label = f"class{c}"
            n_c = sum(1 for p in cohort.patients if p.label == label)
            for gene, rate in enumerate(cfg.mutation_rates[c]):
                got = report["mutation_frequencies"][label][gene]
                half_width = 4 * np.sqrt(max(rate * (1 - rate), 0.01) / n_c)
                assert abs(got - rate) <= half_width, (label, gene)

    def test_band_frequencies_cover_signature(self, band_table):
        cfg = sc.SynthConfig(n_patients=60, seed=8)
        cohort = sc.generate(cfg)
        report = sc.oracle_report(cohort, cfg)
        # class3 carries +8: gain frequencies must be 1.0 on its bands
        gains = report["band_event_frequencies"]["class3"]["gain"]
        assert all(v == 1.0 for v in gains.values())
        assert len(gains) == len(band_table.chromosome_indices("8"))

    def test_empty_cohort_rejected(self):
        from genalign.cohort import Cohort
        with pytest.raises(ValueError, match="empty"):
            sc.oracle_report(Cohort([]), sc.SynthConfig())

    def test_mapping_included_with_config(self):
        cfg = sc.SynthConfig(n_patients=8, seed=1)
        report = sc.oracle_report(sc.generate(cfg), cfg)
        assert report["class_to_genetics"]["class0"]["karyotype_signature"] == [
            "t(15;17)(q24;q21)"
        ]

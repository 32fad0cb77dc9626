import numpy as np
import pytest

from genalign import gbio
from genalign.aggregator import CellBag
from genalign.cohort import (
    KARYOTYPES_FILE, LABELS_FILE, Cohort, Patient, load_cohort, load_cohort_dir,
)


def saved_cohort(tmp_path, rng, karyotype_width, band_table_sha256=None):
    patients = [
        Patient(pid, "A", split, CellBag(pid, rng.standard_normal((3, 4))),
                np.zeros(karyotype_width, np.uint8), np.zeros(2, np.uint8))
        for pid, split in (("p0", "train"), ("p1", "train"), ("p2", "test"))
    ]
    Cohort(patients, band_table_sha256=band_table_sha256).save(tmp_path)
    return tmp_path / LABELS_FILE


def test_bag_without_label_row_rejected(tmp_path, rng, band_table):
    labels = saved_cohort(tmp_path, rng, 3 * len(band_table))
    labels.write_text("p0\tA\ttrain\np2\tA\ttest\n")
    with pytest.raises(ValueError, match="'p1'"):
        load_cohort_dir(tmp_path)
    # without a labels file every bag still loads as an unlabelled train patient
    unlabelled = load_cohort(tmp_path / "bags.gbm")
    assert {(p.label, p.split) for p in unlabelled.patients} == {("unknown", "train")}


def test_unknown_split_rejected(tmp_path, rng, band_table):
    labels = saved_cohort(tmp_path, rng, 3 * len(band_table))
    labels.write_text("p0\tA\ttrain\np1\tA\tvalidation\np2\tA\ttest\n")
    with pytest.raises(ValueError, match="'p1'.*'validation'"):
        load_cohort_dir(tmp_path)


def test_karyotypes_from_another_band_table_rejected(tmp_path, rng, band_table):
    saved_cohort(tmp_path, rng, 3 * len(band_table), band_table_sha256="0" * 64)
    with pytest.raises(gbio.FormatError, match=f"{KARYOTYPES_FILE}.*band table"):
        load_cohort_dir(tmp_path)


def test_karyotype_width_must_match_band_table(tmp_path, rng, band_table):
    saved_cohort(tmp_path, rng, 3 * len(band_table) - 3, band_table.sha256)
    with pytest.raises(gbio.FormatError, match=f"{KARYOTYPES_FILE}.*columns"):
        load_cohort_dir(tmp_path)
    # the right width loads, also without a recorded table checksum
    saved_cohort(tmp_path, rng, 3 * len(band_table))
    assert load_cohort_dir(tmp_path).band_table_sha256 is None

import numpy as np
import pytest

from genalign.aggregator import CellBag
from genalign.cohort import LABELS_FILE, Cohort, Patient, load_cohort, load_cohort_dir


def saved_cohort(tmp_path, rng):
    patients = [
        Patient(pid, "A", split, CellBag(pid, rng.standard_normal((3, 4))),
                np.zeros(6, np.uint8), np.zeros(2, np.uint8))
        for pid, split in (("p0", "train"), ("p1", "train"), ("p2", "test"))
    ]
    Cohort(patients).save(tmp_path)
    return tmp_path / LABELS_FILE


def test_bag_without_label_row_rejected(tmp_path, rng):
    labels = saved_cohort(tmp_path, rng)
    labels.write_text("p0\tA\ttrain\np2\tA\ttest\n")
    with pytest.raises(ValueError, match="'p1'"):
        load_cohort_dir(tmp_path)
    # without a labels file every bag still loads as an unlabelled train patient
    unlabelled = load_cohort(tmp_path / "bags.gbm")
    assert {(p.label, p.split) for p in unlabelled.patients} == {("unknown", "train")}


def test_unknown_split_rejected(tmp_path, rng):
    labels = saved_cohort(tmp_path, rng)
    labels.write_text("p0\tA\ttrain\np1\tA\tvalidation\np2\tA\ttest\n")
    with pytest.raises(ValueError, match="'p1'.*'validation'"):
        load_cohort_dir(tmp_path)

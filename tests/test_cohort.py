import tracemalloc

import numpy as np
import pytest

from genalign import gbio
from genalign.aggregator import CellBag
from genalign.cohort import (
    KARYOTYPES_FILE, LABELS_FILE, MUTATIONS_FILE, Cohort, Patient, load_cohort, load_cohort_dir,
)
from test_gbio import disk_full_after


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


def test_second_bag_for_a_patient_rejected(tmp_path, rng, band_table):
    saved_cohort(tmp_path, rng, 3 * len(band_table))
    bags = gbio.read_gbm(tmp_path / "bags.gbm")
    bags.patient_ids[2] = "p0"
    gbio.write_gbm(tmp_path / "bags.gbm", bags)
    with pytest.raises(gbio.FormatError, match=r"bags\.gbm: repeated patient id 'p0'"):
        load_cohort(tmp_path / "bags.gbm")


def test_second_label_row_rejected(tmp_path, rng, band_table):
    labels = saved_cohort(tmp_path, rng, 3 * len(band_table))
    labels.write_text(labels.read_text() + "\np0\tA\ttest\n")
    with pytest.raises(gbio.FormatError) as refused:
        load_cohort_dir(tmp_path)
    # the blank line 4 is skipped, and still counted
    assert str(refused.value) == f"{labels}:5: second row for patient 'p0' (first on line 1)"


@pytest.mark.parametrize("row", ["p1\tA", "p1\tA\ttrain\textra"], ids=["two", "four"])
def test_label_row_with_another_field_count_rejected(tmp_path, rng, band_table, row):
    labels = saved_cohort(tmp_path, rng, 3 * len(band_table))
    labels.write_text(f"p0\tA\ttrain\n{row}\np2\tA\ttest\n")
    with pytest.raises(gbio.FormatError, match=f"^{labels}:2: expected 3 tab-separated fields, got"):
        load_cohort_dir(tmp_path)


def test_second_mutation_row_rejected(tmp_path, rng, band_table):
    saved_cohort(tmp_path, rng, 3 * len(band_table))
    gbio.write_gbm(tmp_path / MUTATIONS_FILE,
                   gbio.Matrix(np.zeros((4, 2), np.uint8), ["p0", "p1", "p2", "p1"]))
    with pytest.raises(gbio.FormatError, match=f"{MUTATIONS_FILE}: repeated patient id 'p1'"):
        load_cohort_dir(tmp_path)


@pytest.mark.parametrize("name", [KARYOTYPES_FILE, MUTATIONS_FILE])
def test_row_ranges_on_genetic_matrix_rejected(tmp_path, rng, band_table, name):
    # two rows per patient with matching row ranges: row i is not patient i's
    saved_cohort(tmp_path, rng, 3 * len(band_table))
    matrix = gbio.read_gbm(tmp_path / name)
    gbio.write_gbm(tmp_path / name, gbio.Matrix(
        np.repeat(matrix.data, 2, axis=0), matrix.patient_ids,
        band_table_sha256=matrix.band_table_sha256,
        row_ranges=[(2 * i, 2 * i + 2) for i in range(len(matrix.patient_ids))]))
    with pytest.raises(gbio.FormatError, match=f"{name}.*one row per patient"):
        load_cohort_dir(tmp_path)


@pytest.mark.parametrize("name", [KARYOTYPES_FILE, MUTATIONS_FILE])
def test_genetic_entries_other_than_0_and_1_rejected(tmp_path, rng, band_table, name):
    saved_cohort(tmp_path, rng, 3 * len(band_table))
    matrix = gbio.read_gbm(tmp_path / name)
    matrix.data[1, -1] = 2
    gbio.write_gbm(tmp_path / name, matrix)
    with pytest.raises(gbio.FormatError, match=f"{name}.*'p1'.*other than 0 and 1"):
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


def test_failed_labels_write_keeps_previous_file(tmp_path, rng, band_table, monkeypatch):
    labels = saved_cohort(tmp_path, rng, 3 * len(band_table))
    previous = labels.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    cohort = load_cohort_dir(tmp_path)
    for p in cohort.patients:
        p.split = "test"
    with monkeypatch.context() as m:
        m.setattr(gbio, "write_gbm", lambda path, matrix: None)  # write labels.tsv only
        disk_full_after(m, len(previous) // 2)
        with pytest.raises(OSError, match="No space"):
            cohort.save(tmp_path)
    assert labels.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_cells_saved_without_a_copy(tmp_path):
    # 16 MB of cells in 16 bags: concatenating them would show as a traced
    # peak of their size
    patients = [Patient(f"p{i}", "A", "train", CellBag(f"p{i}", np.full((2**14, 16), i, np.float32)),
                        np.zeros(3, np.uint8), np.zeros(2, np.uint8)) for i in range(16)]
    nbytes = sum(p.bag.cells.nbytes for p in patients)
    cohort = Cohort(patients)
    tracemalloc.start()
    try:
        cohort.save(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * nbytes
    bags = gbio.read_gbm(tmp_path / "bags.gbm")
    assert np.array_equal(bags.data, np.concatenate([p.bag.cells for p in patients]))

"""Patient cohort container: bags, genetic vectors, labels, splits.

On disk a cohort is a directory of ``bags.gbm`` (f32 cells with per-patient
row ranges), ``karyotypes.gbm`` (u8, 3 columns per band of the shipped band
table; a recorded ``band_table_sha256`` must be that table's),
``mutations.gbm`` (u8) and ``labels.tsv`` (``patient_id<TAB>label<TAB>split``,
split ``train`` or ``test``; every bag needs a row).  ``gbio`` refuses a
patient id twice in any of these files; the loader refuses row ranges in a
genetic file, and karyotype or mutation entries other than 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gbio
from .aggregator import CellBag
from .karyogram import load_band_table

BAGS_FILE = "bags.gbm"
KARYOTYPES_FILE = "karyotypes.gbm"
MUTATIONS_FILE = "mutations.gbm"
LABELS_FILE = "labels.tsv"
SPLITS = ("train", "test")


@dataclass
class Patient:
    patient_id: str
    label: str
    split: str  # train | test
    bag: CellBag
    karyotype: np.ndarray | None  # (3 * n_bands,) u8
    mutations: np.ndarray | None  # (n_genes,) u8

    @property
    def complete(self) -> bool:
        return self.karyotype is not None and self.mutations is not None


@dataclass
class Cohort:
    patients: list[Patient]
    band_table_sha256: str | None = None

    def __post_init__(self):
        ids = [p.patient_id for p in self.patients]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate patient ids in cohort")

    def __len__(self) -> int:
        return len(self.patients)

    def subset(self, split: str) -> list[Patient]:
        return [p for p in self.patients if p.split == split]

    def save(self, out_dir: str | Path) -> list[Path]:
        out_dir = Path(out_dir)
        ids = [p.patient_id for p in self.patients]
        ranges = []
        start = 0
        for p in self.patients:
            ranges.append((start, start + p.bag.n_cells))
            start += p.bag.n_cells
        paths = []
        paths.append(out_dir / BAGS_FILE)
        # the bags' own arrays, written one after another without a copy
        gbio.write_gbm(paths[-1], gbio.Matrix([p.bag.cells for p in self.patients], ids,
                                              row_ranges=ranges))
        paths.append(out_dir / KARYOTYPES_FILE)
        gbio.write_gbm(
            paths[-1],
            gbio.Matrix(
                np.stack([p.karyotype for p in self.patients]).astype(np.uint8),
                ids,
                band_table_sha256=self.band_table_sha256,
            ),
        )
        paths.append(out_dir / MUTATIONS_FILE)
        gbio.write_gbm(
            paths[-1],
            gbio.Matrix(np.stack([p.mutations for p in self.patients]).astype(np.uint8), ids),
        )
        paths.append(out_dir / LABELS_FILE)
        gbio.write_tsv(paths[-1], ([p.patient_id, p.label, p.split] for p in self.patients))
        return paths


def _binary_rows(m: gbio.Matrix, path: str | Path) -> dict[str, np.ndarray]:
    """Each patient's row of a 0/1 karyotype or mutation matrix."""
    if m.row_ranges is not None:
        raise gbio.FormatError(f"{path}: genetic matrices hold one row per patient, not row_ranges")
    binary = ((m.data == 0) | (m.data == 1)).all(axis=1)
    for pid, ok in zip(m.patient_ids, binary):
        if not ok:
            raise gbio.FormatError(f"{path}: patient {pid!r} has entries other than 0 and 1")
    return dict(zip(m.patient_ids, m.data))


def load_cohort(
    bags_path: str | Path,
    karyotypes_path: str | Path | None = None,
    mutations_path: str | Path | None = None,
    labels_path: str | Path | None = None,
) -> Cohort:
    bags_m = gbio.read_gbm(bags_path)
    if bags_m.row_ranges is None:
        raise gbio.FormatError(f"{bags_path}: bag file needs per-patient row ranges")
    ids = bags_m.patient_ids
    bags = {pid: CellBag(pid, bags_m.data[start:stop])
            for pid, (start, stop) in zip(ids, bags_m.row_ranges)}
    karyotypes: dict[str, np.ndarray] = {}
    sha = None
    if karyotypes_path is not None:
        m = gbio.read_gbm(karyotypes_path)
        table = load_band_table()
        sha = m.band_table_sha256
        if sha is not None and sha != table.sha256:
            raise gbio.FormatError(
                f"{karyotypes_path}: encoded against band table {sha[:12]}..., "
                f"not the shipped table {table.sha256[:12]}..."
            )
        if m.data.shape[1] != 3 * len(table):
            raise gbio.FormatError(
                f"{karyotypes_path}: {m.data.shape[1]} columns; the shipped band "
                f"table needs 3 x {len(table)} = {3 * len(table)}"
            )
        karyotypes = _binary_rows(m, karyotypes_path)
    mutations: dict[str, np.ndarray] = {}
    if mutations_path is not None:
        mutations = _binary_rows(gbio.read_gbm(mutations_path), mutations_path)
    labels = {pid: ["unknown", "train"] for pid in ids}
    if labels_path is not None:
        labels = gbio.read_patient_rows(labels_path, 3)
        for pid in ids:
            if pid not in labels:
                raise ValueError(f"{labels_path}: no row for patient {pid!r}")
            if labels[pid][1] not in SPLITS:
                raise ValueError(
                    f"{labels_path}: patient {pid!r} has split {labels[pid][1]!r};"
                    f" expected one of {SPLITS}"
                )
    patients = [
        Patient(
            patient_id=pid,
            label=labels[pid][0],
            split=labels[pid][1],
            bag=bags[pid],
            karyotype=karyotypes.get(pid),
            mutations=mutations.get(pid),
        )
        for pid in ids
    ]
    return Cohort(patients, band_table_sha256=sha)


def load_cohort_dir(cohort_dir: str | Path) -> Cohort:
    d = Path(cohort_dir)
    return load_cohort(
        d / BAGS_FILE, d / KARYOTYPES_FILE, d / MUTATIONS_FILE, d / LABELS_FILE
    )

"""Synthetic cohorts with a controllable morphology/genetics coupling.

Each class is a point on the cell-archetype simplex plus a karyotype
signature (ISCN aberration tokens) and per-gene mutation rates.  A patient
draws composition weights near the class prototype, samples cells as noisy
archetype means, keeps each signature event with probability
``1 - label_noise``, and draws mutations from rates blended toward the
class-average by ``label_noise``.  Everything derives from one seed, with
per-patient child generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregator import CellBag
from .cohort import Cohort, Patient
from .karyogram import EVENT_KINDS, encode_karyotype, load_band_table, parse_iscn

N_GENES = 25

DEFAULT_SIGNATURES = [
    ["t(15;17)(q24;q21)"],
    ["inv(16)(p13.1q22)"],
    ["t(8;21)(q22;q22)"],
    ["+8"],
]


def default_mutation_rates(n_classes: int) -> list[list[float]]:
    """Three high-rate marker genes per class on a low shared background."""
    rates = []
    for c in range(n_classes):
        row = [0.05] * N_GENES
        for j, r in zip(range(3 * c, 3 * c + 3), (0.8, 0.6, 0.5)):
            row[j % N_GENES] = r
        row[20] = 0.3  # shared across classes
        rates.append(row)
    return rates


@dataclass
class SynthConfig:
    n_patients: int = 250
    n_classes: int = 4
    cells_min: int = 48
    cells_max: int = 64
    input_dim: int = 64
    n_cell_archetypes: int = 8
    composition_noise: float = 0.05
    embedding_noise: float = 0.5
    karyotype_signatures: list[list[str]] = field(default_factory=lambda: [list(s) for s in DEFAULT_SIGNATURES])
    mutation_rates: list[list[float]] = field(default_factory=lambda: default_mutation_rates(4))
    label_noise: float = 0.0
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "n_classes", "input_dim", "n_cell_archetypes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if len(self.karyotype_signatures) != self.n_classes:
            raise ValueError("need one karyotype signature per class")
        if len(self.mutation_rates) != self.n_classes:
            raise ValueError("need one mutation-rate row per class")
        if len({len(row) for row in self.mutation_rates}) != 1:
            raise ValueError("mutation_rates must hold rows of one length")
        for row in self.mutation_rates:
            if any(not 0.0 <= r <= 1.0 for r in row):
                raise ValueError("mutation rates must lie in [0, 1]")
        if self.composition_noise < 0 or self.embedding_noise < 0:
            raise ValueError("noise levels must be >= 0")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        if not 1 <= self.cells_min <= self.cells_max:
            raise ValueError("bad cells_per_patient range")

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @property
    def n_genes(self) -> int:
        return len(self.mutation_rates[0])


def _signature_string(tokens: list[str]) -> str:
    return ",".join(["46", "XX"] + list(tokens))


def _split_assignment(
    class_of: np.ndarray, test_fraction: float, rng: np.random.Generator
) -> list[str]:
    """Stratified split; largest-remainder allocation hits the global test
    count exactly."""
    n = len(class_of)
    target = int(round(test_fraction * n))
    classes = np.unique(class_of)
    exact = {c: test_fraction * (class_of == c).sum() for c in classes}
    counts = {c: int(np.floor(v)) for c, v in exact.items()}
    remainder = sorted(classes, key=lambda c: exact[c] - counts[c], reverse=True)
    i = 0
    while sum(counts.values()) < target and i < len(remainder):
        counts[remainder[i]] += 1
        i += 1
    splits = ["train"] * n
    for c in classes:
        members = np.flatnonzero(class_of == c)
        picked = rng.permutation(members)[: counts[c]]
        for idx in picked:
            splits[idx] = "test"
    return splits


def generate(config: SynthConfig) -> Cohort:
    table = load_band_table()
    root = np.random.SeedSequence(config.seed)
    global_rng = np.random.default_rng(root.spawn(1)[0])
    archetypes = global_rng.standard_normal(
        (config.n_cell_archetypes, config.input_dim)
    ).astype(np.float64)
    prototypes = global_rng.dirichlet(
        np.full(config.n_cell_archetypes, 2.0), size=config.n_classes
    )
    class_of = global_rng.integers(0, config.n_classes, size=config.n_patients)
    splits = _split_assignment(class_of, config.test_fraction, global_rng)
    # parsed up front so a bad signature fails fast; kept per event for
    # signature dropout
    signature_events = [
        parse_iscn(_signature_string(sig), table)
        for sig in config.karyotype_signatures
    ]
    rates = np.asarray(config.mutation_rates, dtype=np.float64)
    mean_rates = rates.mean(axis=0)
    patient_seeds = root.spawn(config.n_patients)
    patients = []
    for i in range(config.n_patients):
        rng = np.random.default_rng(patient_seeds[i])
        c = int(class_of[i])
        weights = prototypes[c] + rng.standard_normal(config.n_cell_archetypes) * config.composition_noise
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        weights = weights / total if total > 0 else np.full_like(weights, 1.0 / len(weights))
        n_cells = int(rng.integers(config.cells_min, config.cells_max + 1))
        picks = rng.choice(config.n_cell_archetypes, size=n_cells, p=weights)
        cells = archetypes[picks] + rng.standard_normal((n_cells, config.input_dim)) * config.embedding_noise
        kept = [
            ev for ev in signature_events[c]
            if config.label_noise == 0.0 or rng.random() >= config.label_noise
        ]
        karyotype = encode_karyotype(kept, table)
        effective = (1.0 - config.label_noise) * rates[c] + config.label_noise * mean_rates
        mutations = (rng.random(len(effective)) < effective).astype(np.uint8)
        patients.append(
            Patient(
                patient_id=f"synth{i:04d}",
                label=f"class{c}",
                split=splits[i],
                bag=CellBag(f"synth{i:04d}", cells.astype(np.float32)),
                karyotype=karyotype,
                mutations=mutations,
            )
        )
    return Cohort(patients, band_table_sha256=table.sha256)


def oracle_report(cohort: Cohort, config: SynthConfig) -> dict:
    """Ground-truth tables: per-class empirical mutation and band-event
    frequencies, plus the configured class-to-genetics mapping."""
    if len(cohort) == 0:
        raise ValueError("empty cohort")
    labels = sorted({p.label for p in cohort.patients})
    report: dict = {"n_patients": len(cohort), "classes": labels}
    mutation_freqs = {}
    band_freqs = {}
    for label in labels:
        members = [p for p in cohort.patients if p.label == label]
        mut = np.stack([p.mutations for p in members]).astype(np.float64)
        mutation_freqs[label] = mut.mean(axis=0).round(6).tolist()
        karyo = np.stack([p.karyotype for p in members]).astype(np.float64)
        segments = karyo.reshape(len(members), len(EVENT_KINDS), -1).mean(axis=0)
        freqs = {}
        for kind, segment in zip(EVENT_KINDS, segments):
            nonzero = {int(i): round(float(v), 6) for i, v in enumerate(segment) if v > 0}
            if nonzero:
                freqs[kind] = nonzero
        band_freqs[label] = freqs
    report["mutation_frequencies"] = mutation_freqs
    report["band_event_frequencies"] = band_freqs
    report["class_to_genetics"] = {
        f"class{c}": {
            "karyotype_signature": config.karyotype_signatures[c],
            "mutation_rates": list(map(float, config.mutation_rates[c])),
        }
        for c in range(config.n_classes)
    }
    return report

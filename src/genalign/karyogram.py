"""Karyotype (ISCN) parsing and per-cytoband binary encoding.

A karyotype string such as ``46,XX,t(15;17)(q24;q21)`` is parsed into a list
of loss/gain/fusion events over cytobands, then encoded as a binary vector
laid out as ``[loss | gain | fusion]``, one bit per band and channel.  The
band inventory is a versioned resource shipped with the package
(``resources/band_table_v1.tsv``, 368 bands); encodings are only comparable
between files produced with the same table, which is why the table's SHA-256
goes into every encoded matrix header.

Supported nomenclature subset: modal number and sex-chromosome field,
whole-chromosome ``+N`` / ``-N``, ``del(N)(q11)`` (terminal) and
``del(N)(q11q22)`` (interstitial), ``t(A;B)(band;band)`` balanced
translocations and ``inv(N)(bandband)`` inversions (both set fusion bits at
the breakpoint bands only), clone separators ``/`` (events are unioned) and
``[n]`` cell counts (ignored).  Anything else raises
:class:`UnsupportedNomenclatureError`.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np

CHROMOSOMES = tuple(str(i) for i in range(1, 23)) + ("X", "Y")
EVENT_KINDS = ("loss", "gain", "fusion")

BAND_TABLE_RESOURCE = "band_table_v1.tsv"


class KaryogramError(ValueError):
    pass


class BandTableError(KaryogramError):
    """Malformed or inconsistent band table resource."""


class UnsupportedNomenclatureError(KaryogramError):
    """Karyotype token outside the supported ISCN subset."""

    def __init__(self, token: str):
        super().__init__(f"unsupported karyotype token: {token!r}")
        self.token = token


class UnknownBandError(KaryogramError):
    """Band label that does not resolve against the band table."""

    def __init__(self, chromosome: str, label: str):
        super().__init__(f"unknown band {label!r} on chromosome {chromosome}")
        self.chromosome = chromosome
        self.label = label


@dataclass(frozen=True)
class Band:
    chromosome: str
    arm: str
    label: str  # includes the arm letter, e.g. "q21.3"
    index: int


class CytobandTable:
    """Ordered cytoband inventory with per-arm index spans."""

    def __init__(self, bands: list[Band], source_text: str):
        self.bands = bands
        self.sha256 = hashlib.sha256(source_text.encode("utf-8")).hexdigest()
        self._by_chromosome: dict[str, list[Band]] = {c: [] for c in CHROMOSOMES}
        # (chromosome, arm) -> (first index, last index), inclusive; bands
        # arrive in index order, so insertion order is first-index order
        self.arm_spans: dict[tuple[str, str], tuple[int, int]] = {}
        for band in bands:
            self._by_chromosome[band.chromosome].append(band)
            key = (band.chromosome, band.arm)
            lo, _ = self.arm_spans.get(key, (band.index, band.index))
            self.arm_spans[key] = (lo, band.index)
        self._validate()

    def _validate(self) -> None:
        if not self.bands:
            raise BandTableError("band table is empty")
        seen = set()
        for band in self.bands:
            key = (band.chromosome, band.label)
            if key in seen:
                raise BandTableError(
                    f"duplicate band {band.chromosome}{band.label}"
                )
            seen.add(key)
        for chrom, bands in self._by_chromosome.items():
            if not bands:
                raise BandTableError(f"chromosome {chrom} has no bands")
            arms = [b.arm for b in bands]
            if arms != sorted(arms):  # "p" < "q"
                raise BandTableError(f"q band precedes p band on chromosome {chrom}")
            idx = [b.index for b in bands]
            if idx != list(range(idx[0], idx[0] + len(idx))):
                raise BandTableError(f"chromosome {chrom} rows are not contiguous")

    def __len__(self) -> int:
        return len(self.bands)

    def chromosome_indices(self, chromosome: str) -> list[int]:
        if chromosome not in self._by_chromosome:
            raise UnknownBandError(chromosome, "*")
        return [b.index for b in self._by_chromosome[chromosome]]

    def resolve_label(self, chromosome: str, label: str) -> list[int]:
        """Indices matching a band label, hierarchically.

        An exact label matches itself; a parent label such as ``q13`` also
        matches its sub-bands ``q13.1``, ``q13.2``, ... when the table stores
        the finer resolution.
        """
        if chromosome not in self._by_chromosome:
            raise UnknownBandError(chromosome, label)
        prefix = label + "."
        hits = [
            b.index
            for b in self._by_chromosome[chromosome]
            if b.label == label or b.label.startswith(prefix)
        ]
        if not hits:
            raise UnknownBandError(chromosome, label)
        return hits


@dataclass(frozen=True)
class KaryotypeEvent:
    kind: str  # loss | gain | fusion
    region: frozenset[int]

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise KaryogramError(f"bad event kind {self.kind!r}")
        if not self.region:
            raise KaryogramError("event region is empty")


def load_band_table(text: str | None = None) -> CytobandTable:
    """Parse a band table resource (``chromosome<TAB>arm<TAB>label`` lines).

    With no argument, loads the table shipped with the package.
    """
    if text is None:
        text = (
            importlib_resources.files("genalign.resources")
            .joinpath(BAND_TABLE_RESOURCE)
            .read_text(encoding="utf-8")
        )
    bands: list[Band] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise BandTableError(f"line {lineno}: expected 3 tab-separated fields")
        chrom, arm, label = parts
        if chrom not in CHROMOSOMES:
            raise BandTableError(f"line {lineno}: bad chromosome {chrom!r}")
        if arm not in ("p", "q"):
            raise BandTableError(f"line {lineno}: bad arm {arm!r}")
        if not re.fullmatch(r"[pq]\d+(\.\d+)?", label) or not label.startswith(arm):
            raise BandTableError(f"line {lineno}: bad band label {label!r}")
        bands.append(Band(chrom, arm, label, len(bands)))
    return CytobandTable(bands, text)


_BAND = r"[pq]\d+(?:\.\d+)?"
_CHROM = r"(?:[0-9]{1,2}|X|Y)"
_RE_GAIN = re.compile(rf"\+({_CHROM})")
_RE_LOSS = re.compile(rf"-({_CHROM})")
_RE_DEL = re.compile(rf"del\(({_CHROM})\)\(({_BAND})({_BAND})?\)")
_RE_T = re.compile(rf"t\(({_CHROM});({_CHROM})\)\(({_BAND});({_BAND})\)")
_RE_INV = re.compile(rf"inv\(({_CHROM})\)\(({_BAND})({_BAND})\)")
_RE_SEX = re.compile(r"[XY]{1,4}")
_RE_CELLCOUNT = re.compile(r"\[\d+\]$")


def _parse_token(token: str, table: CytobandTable) -> list[KaryotypeEvent]:
    m = _RE_GAIN.fullmatch(token)
    if m:
        return [KaryotypeEvent("gain", frozenset(table.chromosome_indices(m.group(1))))]
    m = _RE_LOSS.fullmatch(token)
    if m:
        return [KaryotypeEvent("loss", frozenset(table.chromosome_indices(m.group(1))))]
    m = _RE_DEL.fullmatch(token)
    if m:
        chrom, first, second = m.group(1), m.group(2), m.group(3)
        start = table.resolve_label(chrom, first)
        if second is None:
            # terminal deletion: breakpoint band through the arm's distal end
            arm = first[0]
            lo, hi = table.arm_spans[(chrom, arm)]
            region = range(lo, max(start) + 1) if arm == "p" else range(min(start), hi + 1)
        else:
            stop = table.resolve_label(chrom, second)
            both = start + stop
            region = range(min(both), max(both) + 1)
        return [KaryotypeEvent("loss", frozenset(region))]
    m = _RE_T.fullmatch(token)
    if m:
        chrom_a, chrom_b, band_a, band_b = m.groups()
        return [
            KaryotypeEvent("fusion", frozenset(table.resolve_label(chrom_a, band_a))),
            KaryotypeEvent("fusion", frozenset(table.resolve_label(chrom_b, band_b))),
        ]
    m = _RE_INV.fullmatch(token)
    if m:
        chrom, band_a, band_b = m.groups()
        return [
            KaryotypeEvent("fusion", frozenset(table.resolve_label(chrom, band_a))),
            KaryotypeEvent("fusion", frozenset(table.resolve_label(chrom, band_b))),
        ]
    raise UnsupportedNomenclatureError(token)


def _clone_events(
    clone: str,
    table: CytobandTable,
    skipped: list[str] | None,
) -> list[KaryotypeEvent]:
    clone = _RE_CELLCOUNT.sub("", clone.strip())
    fields = [f.strip() for f in clone.split(",") if f.strip()]
    if not fields:
        raise UnsupportedNomenclatureError(clone)
    if not fields[0].isdigit():
        raise UnsupportedNomenclatureError(fields[0])
    rest = fields[1:]
    # optional sex-chromosome field carries no events in this subset
    if rest and _RE_SEX.fullmatch(rest[0]):
        rest = rest[1:]
    events: list[KaryotypeEvent] = []
    for token in rest:
        try:
            events.extend(_parse_token(token, table))
        except (UnsupportedNomenclatureError, UnknownBandError):
            if skipped is None:
                raise
            skipped.append(token)
    return events


def _parse(
    karyotype: str, table: CytobandTable, skipped: list[str] | None
) -> list[KaryotypeEvent]:
    events: list[KaryotypeEvent] = []
    for clone in karyotype.split("/"):
        for event in _clone_events(clone, table, skipped):
            if event not in events:
                events.append(event)
    return events


def parse_iscn(karyotype: str, table: CytobandTable) -> list[KaryotypeEvent]:
    """Parse an ISCN karyotype string into loss/gain/fusion events.

    Clones separated by ``/`` contribute the union of their events; repeated
    events are kept once, in first-occurrence order.  Raises
    :class:`UnsupportedNomenclatureError` or :class:`UnknownBandError` on
    input outside the supported subset.
    """
    return _parse(karyotype, table, skipped=None)


def parse_iscn_lenient(
    karyotype: str, table: CytobandTable
) -> tuple[list[KaryotypeEvent], list[str]]:
    """Like :func:`parse_iscn` but skips unparseable tokens.

    Returns ``(events, skipped_tokens)``.  A malformed modal-number field
    still raises: with no recognizable clone structure there is nothing to
    salvage.
    """
    skipped: list[str] = []
    return _parse(karyotype, table, skipped), skipped


def encode_karyotype(
    events: list[KaryotypeEvent], table: CytobandTable
) -> np.ndarray:
    """Encode events as a ``[loss | gain | fusion]`` binary vector (u8): the
    flattened ``(len(EVENT_KINDS), n_bands)`` array of one bit per kind and band."""
    n = len(table)
    bits = np.zeros((len(EVENT_KINDS), n), dtype=np.uint8)
    for event in events:
        lo, hi = min(event.region), max(event.region)
        if lo < 0 or hi >= n:
            raise KaryogramError(f"band index {lo if lo < 0 else hi} out of range")
        bits[EVENT_KINDS.index(event.kind), list(event.region)] = 1
    return bits.reshape(-1)


def rollup_to_arms(vectors: np.ndarray, table: CytobandTable) -> np.ndarray:
    """Collapse band-level 0/1 vectors to arm level (OR over each arm's bands).

    Takes any ``(..., 3 * n_bands)`` stack and returns ``(..., 3 * n_arms)``
    in the band-level layout: ``[loss | gain | fusion]`` with one bit per
    chromosome arm, arms in table order.
    """
    n = len(table)
    if vectors.shape[-1:] != (len(EVENT_KINDS) * n,):
        raise KaryogramError(
            f"expected vectors of length {len(EVENT_KINDS) * n}, got shape {vectors.shape}"
        )
    # Reducing from each arm's first band to the next arm's is the OR over
    # that arm only because _validate refuses a table whose chromosomes or
    # arms are not contiguous runs.
    starts = [lo for lo, _ in table.arm_spans.values()]
    by_kind = vectors.reshape(*vectors.shape[:-1], len(EVENT_KINDS), n)
    arms = np.maximum.reduceat(by_kind, starts, axis=-1)
    return arms.reshape(*vectors.shape[:-1], -1)

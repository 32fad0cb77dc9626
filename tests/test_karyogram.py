"""Karyotype parser and encoder tests.

The conformance corpus (shared via ``iscn_corpus``) checks parsed encodings
against bit vectors expanded by hand: expected bands are written out as
explicit label lists and resolved against an independent read of the shipped
table (plain TSV scan, no parser code involved).
"""

import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genalign import karyogram as kg
from iscn_corpus import (
    CONFORMANCE,
    N_ARMS,
    N_BANDS,
    RAW,
    UNSUPPORTED,
    expand,
    make_vector,
    whole,
)


class TestBandTable:
    def test_shipped_table_shape(self, band_table):
        assert len(band_table) == N_BANDS
        assert len(band_table.arm_spans) == N_ARMS
        assert [b.index for b in band_table.bands] == list(range(N_BANDS))

    def test_shipped_table_loads_from_zipped_package(self, tmp_path):
        package = Path(kg.__file__).parent
        archive = tmp_path / "genalign.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in package.rglob("*"):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, Path("genalign") / path.relative_to(package))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import genalign; assert genalign.__file__.startswith(sys.argv[1]); "
            "from genalign.karyogram import load_band_table; "
            "print(len(load_band_table()))"
        )
        done = subprocess.run([sys.executable, "-c", code, str(archive)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(N_BANDS)

    def test_matches_raw_resource(self, band_table):
        assert [(b.chromosome, b.arm, b.label) for b in band_table.bands] == [
            tuple(row) for row in RAW
        ]

    def test_arm_spans_contiguous_and_ordered(self, band_table):
        for (chrom, arm), (lo, hi) in band_table.arm_spans.items():
            assert lo <= hi
            for i in range(lo, hi + 1):
                band = band_table.bands[i]
                assert (band.chromosome, band.arm) == (chrom, arm)
        for chrom in kg.CHROMOSOMES:
            p_lo, p_hi = band_table.arm_spans[(chrom, "p")]
            q_lo, q_hi = band_table.arm_spans[(chrom, "q")]
            assert p_hi + 1 == q_lo

    def test_empty_resource_rejected(self):
        with pytest.raises(kg.BandTableError):
            kg.load_band_table("")

    def test_duplicate_band_rejected(self):
        with pytest.raises(kg.BandTableError, match="duplicate"):
            kg.load_band_table("1\tp\tp11\n1\tp\tp11\n")

    def test_missing_chromosome_named(self):
        with pytest.raises(kg.BandTableError, match="chromosome 2 has no bands"):
            kg.load_band_table("1\tp\tp11\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(kg.BandTableError, match="line 2"):
            kg.load_band_table("1\tp\tp11\nnot-a-row\n")


class TestParseConformance:
    @pytest.mark.parametrize("karyotype,expected", CONFORMANCE,
                             ids=[k for k, _ in CONFORMANCE])
    def test_corpus(self, band_table, karyotype, expected):
        events = kg.parse_iscn(karyotype, band_table)
        vec = kg.encode_karyotype(events, band_table)
        assert np.array_equal(vec, expected)

    def test_normal_karyotype_no_events(self, band_table):
        assert kg.parse_iscn("46,XX", band_table) == []

    def test_trisomy8_sets_exactly_chr8_gain_bits(self, band_table):
        vec = kg.encode_karyotype(kg.parse_iscn("47,XY,+8", band_table), band_table)
        assert vec.sum() == len(whole("8"))
        assert vec[N_BANDS : 2 * N_BANDS].sum() == vec.sum()

    @pytest.mark.parametrize("bad", UNSUPPORTED)
    def test_unsupported_tokens_raise(self, band_table, bad):
        with pytest.raises(kg.UnsupportedNomenclatureError) as err:
            kg.parse_iscn(bad, band_table)
        assert err.value.token in bad

    def test_unknown_band_raises(self, band_table):
        with pytest.raises(kg.UnknownBandError):
            kg.parse_iscn("46,XX,del(5)(q99)", band_table)
        with pytest.raises(kg.UnknownBandError):
            kg.parse_iscn("47,XX,+30", band_table)

    @pytest.mark.parametrize("bad", ["", "abc", "XX,46"])
    def test_headerless_strings_raise(self, band_table, bad):
        with pytest.raises(kg.KaryogramError):
            kg.parse_iscn(bad, band_table)

    def test_lenient_skips_and_reports(self, band_table):
        events, skipped = kg.parse_iscn_lenient(
            "46,XX,add(5)(q31),t(15;17)(q24;q21),+mar", band_table
        )
        assert skipped == ["add(5)(q31)", "+mar"]
        vec = kg.encode_karyotype(events, band_table)
        expected = make_vector(fusion=expand("15", ["q24"]) + expand("17", ["q21"]))
        assert np.array_equal(vec, expected)

    def test_multi_clone_unions_duplicates_once(self, band_table):
        events = kg.parse_iscn("47,XY,+8[5]/47,XY,+8[15]", band_table)
        assert len(events) == 1

    def test_parser_deterministic(self, band_table):
        s = "46,XX,t(15;17)(q24;q21),del(5)(q13q33)/47,XX,+8"
        first = kg.parse_iscn(s, band_table)
        for _ in range(3):
            assert kg.parse_iscn(s, band_table) == first


class TestEncode:
    def test_empty_events_zero_vector(self, band_table):
        vec = kg.encode_karyotype([], band_table)
        assert vec.shape == (3 * N_BANDS,)
        assert not vec.any()

    def test_idempotent_under_duplicates(self, band_table):
        ev = kg.KaryotypeEvent("loss", frozenset({12}))
        single = kg.encode_karyotype([ev], band_table)
        double = kg.encode_karyotype([ev, ev], band_table)
        assert np.array_equal(single, double)
        assert single.sum() == 1

    def test_out_of_range_index_rejected(self, band_table):
        for index in (N_BANDS, -1):
            ev = kg.KaryotypeEvent("gain", frozenset({3, index}))
            with pytest.raises(kg.KaryogramError, match=f"band index {index} out of range"):
                kg.encode_karyotype([ev], band_table)


@st.composite
def random_events(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    events = []
    for _ in range(n):
        kind = draw(st.sampled_from(kg.EVENT_KINDS))
        region = draw(st.sets(st.integers(0, N_BANDS - 1), min_size=1, max_size=12))
        events.append(kg.KaryotypeEvent(kind, frozenset(region)))
    return events


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(random_events(), st.randoms())
    def test_event_permutation_invariance(self, band_table, events, pyrandom):
        base = kg.encode_karyotype(events, band_table)
        shuffled = list(events)
        pyrandom.shuffle(shuffled)
        assert np.array_equal(base, kg.encode_karyotype(shuffled, band_table))

    @settings(deadline=None, max_examples=60)
    @given(random_events())
    def test_rollup_matches_arm_granularity_encoding(self, band_table, events):
        rolled = kg.rollup_to_arms(
            kg.encode_karyotype(events, band_table), band_table
        )
        # oracle: encode each event directly at arm granularity
        expected = np.zeros(3 * N_ARMS, dtype=np.uint8)
        arm_pos = {key: i for i, key in enumerate(band_table.arm_spans)}
        for ev in events:
            k = kg.EVENT_KINDS.index(ev.kind)
            for idx in ev.region:
                band = band_table.bands[idx]
                expected[k * N_ARMS + arm_pos[(band.chromosome, band.arm)]] = 1
        assert np.array_equal(rolled, expected)
        # a stack rolls up in one call to what its rows roll up to one by one
        stacks = [
            np.stack([kg.encode_karyotype(events, band_table)]
                     + [kg.encode_karyotype([ev], band_table) for ev in events]),
            np.stack([vec for _, vec in CONFORMANCE]),
        ]
        for stack in stacks:
            row_by_row = np.stack([kg.rollup_to_arms(row, band_table) for row in stack])
            assert np.array_equal(kg.rollup_to_arms(stack, band_table), row_by_row)
            assert np.array_equal(kg.rollup_to_arms(stack[None], band_table), row_by_row[None])

    def test_whole_chromosome_gain_band_count(self, band_table):
        for chrom in kg.CHROMOSOMES:
            vec = kg.encode_karyotype(
                kg.parse_iscn(f"47,XX,+{chrom}", band_table), band_table
            )
            assert vec.sum() == len(whole(chrom))
            assert vec[N_BANDS : 2 * N_BANDS].sum() == vec.sum()


class TestRollup:
    def test_zero_vector(self, band_table):
        out = kg.rollup_to_arms(np.zeros(3 * N_BANDS, dtype=np.uint8), band_table)
        assert out.shape == (3 * N_ARMS,)
        assert not out.any()

    def test_single_band_gain_maps_to_single_arm(self, band_table):
        idx = expand("8", ["q22"])[0]
        vec = make_vector(gain=[idx])
        out = kg.rollup_to_arms(vec, band_table)
        assert out.sum() == 1
        arm_pos = list(band_table.arm_spans).index(("8", "q"))
        assert out[N_ARMS + arm_pos] == 1

    def test_two_bands_same_arm_collapse(self, band_table):
        idx = expand("5", ["q13.1", "q33.3"])
        out = kg.rollup_to_arms(make_vector(gain=idx), band_table)
        assert out.sum() == 1

    def test_wrong_length_rejected(self, band_table):
        for shape in [(10,), (2, 3 * N_BANDS - 1), (3 * N_BANDS, 2)]:
            with pytest.raises(kg.KaryogramError):
                kg.rollup_to_arms(np.zeros(shape, dtype=np.uint8), band_table)

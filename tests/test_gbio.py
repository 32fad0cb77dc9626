import errno
import json
import platform
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from genalign import gbio, harness


def rewrite_gbm_header(path, **changes):
    """Replace header fields of a written .gbm, keeping its payload."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + length])
    header.update(changes)
    new = json.dumps(header).encode()
    path.write_bytes(b"GBM1" + struct.pack("<I", len(new)) + new + blob[8 + length :])


class TestGbm:
    def test_roundtrip_u8(self, tmp_path):
        data = (np.arange(12, dtype=np.uint8) % 2).reshape(3, 4)
        m = gbio.Matrix(data, ["p1", "p2", "p3"], band_table_sha256="ab" * 32)
        path = tmp_path / "k.gbm"
        gbio.write_gbm(path, m)
        back = gbio.read_gbm(path)
        assert np.array_equal(back.data, data)
        assert back.patient_ids == ["p1", "p2", "p3"]
        assert back.band_table_sha256 == "ab" * 32
        assert back.row_ranges is None

    def test_roundtrip_f32_with_ranges(self, tmp_path, rng):
        data = rng.standard_normal((7, 5)).astype(np.float32)
        m = gbio.Matrix(data, ["a", "b"], row_ranges=[(0, 4), (4, 7)])
        path = tmp_path / "bags.gbm"
        gbio.write_gbm(path, m)
        back = gbio.read_gbm(path)
        assert np.array_equal(back.data, data)
        assert back.row_ranges == [(0, 4), (4, 7)]

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.gbm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(gbio.FormatError, match="magic"):
            gbio.read_gbm(path)

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "t.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((4, 4), np.float32), ["x"]))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(gbio.FormatError, match="truncated"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("ranges", [[[0, 5]], [[-1, 1]], [[2, 1]], [[0, 1], [1, 2]], [[0, 1.5]]],
                             ids=["past-end", "negative", "reversed", "count", "non-integer"])
    def test_bad_row_ranges_rejected(self, tmp_path, ranges):
        path = tmp_path / "bags.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["p"], row_ranges=[(0, 2)]))
        rewrite_gbm_header(path, row_ranges=ranges)
        with pytest.raises(gbio.FormatError, match=r"bags\.gbm: row"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("shape", [{"rows": "2"}, {"cols": 1.5}, {"rows": -2, "cols": -3},
                                       {"rows": True}],
                             ids=["string", "float", "negative", "boolean"])
    def test_bad_rows_or_cols_rejected(self, tmp_path, shape):
        path = tmp_path / "m.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["a", "b"]))
        rewrite_gbm_header(path, **shape)
        with pytest.raises(gbio.FormatError, match=r"m\.gbm: rows .* are not non-negative integers"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("ids", [5, "ab", ["a", 2]], ids=["integer", "string", "non-string-id"])
    def test_patient_ids_must_be_strings(self, tmp_path, ids):
        path = tmp_path / "m.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["a", "b"]))
        rewrite_gbm_header(path, patient_ids=ids)
        with pytest.raises(gbio.FormatError, match=r"m\.gbm: patient_ids is not a list of strings"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("ids", [["a", "b", "c"], ["a"]], ids=["more", "fewer"])
    def test_one_id_per_row_without_ranges(self, tmp_path, ids):
        path = tmp_path / "mutations.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.uint8), ["a", "b"]))
        rewrite_gbm_header(path, patient_ids=ids)
        with pytest.raises(gbio.FormatError, match=rf"mutations\.gbm: {len(ids)} patient ids for 2 rows"):
            gbio.read_gbm(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        data = rng.standard_normal((5, 3)).astype(np.float32)
        a, b = tmp_path / "a.gbm", tmp_path / "b.gbm"
        gbio.write_gbm(a, gbio.Matrix(data, ["p1"]))
        gbio.write_gbm(b, gbio.Matrix(data.copy(), ["p1"]))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(gbio.FormatError, match="dtype"):
            gbio.write_gbm(tmp_path / "x.gbm",
                           gbio.Matrix(np.zeros((2, 2), np.int32), ["p"]))


class TestGbck:
    def test_roundtrip(self, tmp_path, rng):
        tensors = {
            "w": rng.standard_normal((4, 6)).astype(np.float32),
            "b": rng.standard_normal((1, 6)).astype(np.float32),
            "scalar": np.float32(3.5).reshape(()),
        }
        path = tmp_path / "c.gbck"
        gbio.write_gbck(path, tensors, config={"depth": 2}, epoch=7, seed=11)
        back, header = gbio.read_gbck(path)
        assert header["epoch"] == 7 and header["seed"] == 11
        assert header["config"] == {"depth": 2}
        for name, arr in tensors.items():
            assert np.array_equal(back[name], arr), name

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "t.gbck"
        gbio.write_gbck(path, {"a": np.zeros(3, np.float32),
                               "w": np.ones((4, 4), np.float32)}, {}, 0, 0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(gbio.FormatError, match=r"t\.gbck: tensor 'w'"):
            gbio.read_gbck(path)

    @pytest.mark.parametrize("blob", [b"GBCK", b"GBCK\x40\x00\x00\x00{}"],
                             ids=["no-length", "short-header"])
    def test_truncated_header_detected(self, tmp_path, blob):
        path = tmp_path / "short.gbck"
        path.write_bytes(blob)
        with pytest.raises(gbio.FormatError, match=r"short\.gbck: truncated header"):
            gbio.read_gbck(path)

    def test_header_without_tensors_rejected(self, tmp_path):
        path = tmp_path / "bare.gbck"
        header = b'{"config":{},"epoch":0,"seed":0}'
        path.write_bytes(b"GBCK" + struct.pack("<I", len(header)) + header)
        with pytest.raises(gbio.FormatError, match=r"bare\.gbck: header missing 'tensors'"):
            gbio.read_gbck(path)

    @pytest.mark.parametrize("entry", [
        {"name": "w"},
        {"shape": [2], "offset": 0},
        {"name": "w", "shape": 2, "offset": 0},
        {"name": "w", "shape": [2.0], "offset": 0},
        {"name": "w", "shape": [2], "offset": "0"},
        "w",
    ], ids=["no-shape", "no-name", "scalar-shape", "float-shape", "string-offset", "not-an-object"])
    def test_bad_tensor_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "odd.gbck"
        header = json.dumps({"config": {}, "epoch": 0, "seed": 0, "tensors": [entry]}).encode()
        path.write_bytes(b"GBCK" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(gbio.FormatError, match=r"odd\.gbck: tensor entry"):
            gbio.read_gbck(path)

    def test_tensors_must_be_a_list(self, tmp_path):
        path = tmp_path / "odd.gbck"
        header = json.dumps({"config": {}, "epoch": 0, "seed": 0, "tensors": 5}).encode()
        path.write_bytes(b"GBCK" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(gbio.FormatError, match=r"odd\.gbck: tensors is not a list"):
            gbio.read_gbck(path)

    def test_inspect_detects_kinds(self, tmp_path):
        gbm = tmp_path / "m.gbm"
        gbio.write_gbm(gbm, gbio.Matrix(np.zeros((1, 1), np.float32), ["p"]))
        gbck = tmp_path / "c.gbck"
        gbio.write_gbck(gbck, {"x": np.zeros(2, np.float32)}, {}, 0, 0)
        assert gbio.inspect_header(gbm)["kind"] == "gbm"
        info = gbio.inspect_header(gbck)
        assert info["kind"] == "gbck"
        assert info["header"]["tensors"][0]["name"] == "x"
        with pytest.raises(gbio.FormatError):
            (tmp_path / "junk").write_bytes(b"????1234")
            gbio.inspect_header(tmp_path / "junk")


class _FullDisk:
    """File whose writes fail once ``budget`` characters or bytes are
    written, storing what fits first, as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def disk_full_after(monkeypatch, budget):
    """Make every ``Path.open`` for writing fail after ``budget`` units."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh, budget) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_)


@dataclass
class Knobs:
    count: int = 1
    rate: float = 0.5
    name: str = "a"
    items: list = field(default_factory=list)
    rows: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass
class Located:
    where: str
    note: str = ""


class TestConfigFrom:
    def test_builds_from_the_fields_given(self):
        assert gbio.config_from(Knobs, {"count": 2, "rate": 1, "items": [3]}, "c.json", "knobs") \
            == Knobs(count=2, rate=1, items=[3])

    def test_list_elements_take_the_declared_type(self):
        # an integer fills a float element, as it fills a float field
        assert gbio.config_from(Knobs, {"rows": [[1, 0.5], []]}, "c.json").rows == [[1, 0.5], []]

    @pytest.mark.parametrize("value,message", [
        ([1], r"c\.json, section 'knobs' is not a JSON object"),
        ({"cuont": 2}, r"c\.json, section 'knobs': unknown keys \['cuont'\]"),
        ({"count": "2"}, r"'count' must be int, got '2'"),
        ({"count": 2.0}, r"'count' must be int, got 2\.0"),
        ({"count": True}, r"'count' must be int, got True"),
        ({"rate": False}, r"'rate' must be float, got False"),
        ({"name": 3}, r"'name' must be str, got 3"),
        ({"items": "ab"}, r"'items' must be list, got 'ab'"),
        ({"rows": [1.0, 2.0]}, r"'rows' must be list\[list\[float\]\], got \[1\.0, 2\.0\]"),
        ({"rows": [[0.5, "1"]]}, r"'rows' must be list\[list\[float\]\], got \[\[0\.5, '1'\]\]"),
        ({"rows": [[True]]}, r"'rows' must be list\[list\[float\]\]"),
        ({"count": -1}, r"c\.json, section 'knobs': count must be >= 0"),
    ], ids=["not-an-object", "unknown-key", "str-for-int", "float-for-int", "bool-for-int",
            "bool-for-float", "int-for-str", "str-for-list", "flat-for-nested-list",
            "str-element", "bool-element", "value-the-class-refuses"])
    def test_refused_naming_file_section_and_field(self, value, message):
        with pytest.raises(gbio.FormatError, match=message):
            gbio.config_from(Knobs, value, "c.json", "knobs")

    def test_field_without_default_required(self):
        assert gbio.config_from(Located, {"where": "x"}, "c.json") == Located("x")
        with pytest.raises(gbio.FormatError, match=r"^c\.json: 'where' is required$"):
            gbio.config_from(Located, {"note": "y"}, "c.json")

    def test_top_level_config_names_the_file_alone(self):
        with pytest.raises(gbio.FormatError, match=r"^c\.json is not a JSON object$"):
            gbio.config_from(Knobs, [], "c.json")

    def test_read_json_names_a_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"count": 2}')
        assert gbio.read_json(path) == {"count": 2}
        path.write_text("{not json")
        with pytest.raises(gbio.FormatError, match=f"{path}: unreadable JSON"):
            gbio.read_json(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("write", [
        lambda path, fill: gbio.write_gbm(path, gbio.Matrix(np.full((4, 4), fill, np.float32), ["x"])),
        lambda path, fill: gbio.write_gbck(path, {"w": np.full((4, 4), fill, np.float32)}, {}, 0, 0),
    ], ids=["gbm", "gbck"])
    def test_failed_payload_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out.bin"
        write(path, 0.0)
        previous = path.read_bytes()
        header_bytes = len(previous) - 16 * 4  # everything before the payload
        with monkeypatch.context() as m:
            disk_full_after(m, header_bytes)
            with pytest.raises(OSError, match="No space"):
                write(path, 1.0)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("name,write", [
        ("metrics.jsonl", lambda path, fill: gbio.write_metrics(path, [{"loss": fill}] * 8)),
        ("manifest_synth.json", lambda path, fill: gbio.write_manifest(
            path.parent, "synth", {"fill": fill}, 0, [], time.perf_counter())),
        ("report.json", lambda path, fill: harness.save_report({"fill": [fill] * 8}, path)),
    ], ids=["metrics", "manifest", "report"])
    def test_failed_text_write_keeps_previous_file(self, tmp_path, monkeypatch, name, write):
        path = tmp_path / name
        write(path, 0.0)
        previous = path.read_bytes()
        with monkeypatch.context() as m:
            disk_full_after(m, len(previous) // 2)
            with pytest.raises(OSError, match="No space"):
                write(path, 1.0)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestHashes:
    def test_config_hash_key_order_independent(self):
        assert gbio.config_hash({"a": 1, "b": 2}) == gbio.config_hash({"b": 2, "a": 1})

    def test_manifest_contains_artifact_checksums(self, tmp_path):
        art = tmp_path / "out.gbm"
        gbio.write_gbm(art, gbio.Matrix(np.zeros((1, 2), np.float32), ["p"]))
        path = gbio.write_manifest(tmp_path, "synth", {"n": 3}, 5, [art], time.perf_counter())
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == 5
        assert manifest["artifacts"]["out.gbm"] == gbio.file_sha256(art)
        assert 0 <= manifest["wall_time_s"] < 60
        environment = manifest["environment"]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert set(environment["blas_threads"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert isinstance(environment["blas"]["name"], str) and environment["blas"]["name"]

    def test_manifest_blas_null_without_show_config_dicts(self, tmp_path, monkeypatch):
        def old_show_config():  # numpy < 1.26 takes no mode and only prints
            return None

        monkeypatch.setattr(np, "show_config", old_show_config)
        path = gbio.write_manifest(tmp_path, "synth", {}, 0, [], time.perf_counter())
        assert json.loads(path.read_text())["environment"]["blas"] is None

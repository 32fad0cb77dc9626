import errno
import hashlib
import json
import platform
import re
import struct
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from genalign import gbio, harness


def rewrite_header(path, **changes):
    """Replace header fields of a written .gbm or .gbck, keeping its payload."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + length])
    header.update(changes)
    new = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + length :])


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

    def test_header_claiming_more_rows_than_the_file_holds(self, tmp_path):
        path = tmp_path / "t.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((4, 4), np.float32), ["x"] * 4))
        rewrite_header(path, rows=2**40)
        with pytest.raises(gbio.FormatError, match="truncated payload"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_zero_row_roundtrip(self, tmp_path, dtype):
        path = tmp_path / "empty.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((0, 5), dtype), []))
        back = gbio.read_gbm(path)
        assert back.data.shape == (0, 5) and back.data.dtype == dtype
        assert back.patient_ids == []

    def test_payload_written_and_read_without_a_copy(self, tmp_path):
        # 16 MB of f32: a copy of the payload would show as a traced peak
        # of its size on top of the array itself
        data = np.arange(4 * 2**20, dtype=np.float32).reshape(-1, 64)
        path = tmp_path / "big.gbm"
        tracemalloc.start()
        try:
            gbio.write_gbm(path, gbio.Matrix(data, ["p"], row_ranges=[(0, data.shape[0])]))
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = gbio.read_gbm(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, data)
        assert write_peak <= 0.1 * data.nbytes
        assert read_peak <= 1.1 * data.nbytes

    @pytest.mark.parametrize("ranges", [[[0, 5]], [[-1, 1]], [[2, 1]], [[0, 1], [1, 2]], [[0, 1.5]]],
                             ids=["past-end", "negative", "reversed", "count", "non-integer"])
    def test_bad_row_ranges_rejected(self, tmp_path, ranges):
        path = tmp_path / "bags.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["p"], row_ranges=[(0, 2)]))
        rewrite_header(path, row_ranges=ranges)
        with pytest.raises(gbio.FormatError, match=r"bags\.gbm: row"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("shape", [{"rows": "2"}, {"cols": 1.5}, {"rows": -2, "cols": -3},
                                       {"rows": True}],
                             ids=["string", "float", "negative", "boolean"])
    def test_bad_rows_or_cols_rejected(self, tmp_path, shape):
        path = tmp_path / "m.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["a", "b"]))
        rewrite_header(path, **shape)
        with pytest.raises(gbio.FormatError, match=r"m\.gbm: matrix has shape .*, not a list of non-negative integers"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("ids", [5, "ab", ["a", 2]], ids=["integer", "string", "non-string-id"])
    def test_patient_ids_must_be_strings(self, tmp_path, ids):
        path = tmp_path / "m.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.float32), ["a", "b"]))
        rewrite_header(path, patient_ids=ids)
        with pytest.raises(gbio.FormatError, match=r"m\.gbm: patient_ids is not a list of strings"):
            gbio.read_gbm(path)

    @pytest.mark.parametrize("ids", [["a", "b", "c"], ["a"]], ids=["more", "fewer"])
    def test_one_id_per_row_without_ranges(self, tmp_path, ids):
        path = tmp_path / "mutations.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((2, 3), np.uint8), ["a", "b"]))
        rewrite_header(path, patient_ids=ids)
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

    def test_row_blocks_written_as_their_concatenation(self, tmp_path, rng):
        blocks = [rng.standard_normal((n, 3)).astype(np.float32) for n in (2, 0, 4)]
        a, b = tmp_path / "a.gbm", tmp_path / "b.gbm"
        gbio.write_gbm(a, gbio.Matrix(blocks, ["p", "q"], row_ranges=[(0, 2), (2, 6)]))
        gbio.write_gbm(b, gbio.Matrix(np.concatenate(blocks), ["p", "q"], row_ranges=[(0, 2), (2, 6)]))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("blocks", [[np.zeros((2, 3)), np.zeros((2, 4))], [np.zeros(3)], []],
                             ids=["widths", "1-D", "none"])
    def test_row_blocks_of_one_width_required(self, tmp_path, blocks):
        blocks = [b.astype(np.float32) for b in blocks]
        with pytest.raises(gbio.FormatError, match="2-D blocks of one width"):
            gbio.write_gbm(tmp_path / "x.gbm", gbio.Matrix(blocks, ["p"]))

    @pytest.mark.parametrize("row_ranges", [None, [(0, 1), (1, 2), (2, 3)]], ids=["rows", "bags"])
    def test_repeated_patient_id_refused(self, tmp_path, row_ranges):
        path = tmp_path / "m.gbm"
        gbio.write_gbm(path, gbio.Matrix(np.zeros((3, 2), np.float32), ["a", "b", "a"],
                                         row_ranges=row_ranges))
        with pytest.raises(gbio.FormatError, match=r"^.*m\.gbm: repeated patient id 'a'$"):
            gbio.read_gbm(path)


class TestGbck:
    def test_roundtrip(self, tmp_path, rng):
        tensors = {
            "w": rng.standard_normal((4, 6)).astype(np.float32),
            "b": rng.standard_normal((1, 6)).astype(np.float32),
            "scalar": np.float32(3.5).reshape(()),
        }
        path = tmp_path / "c.gbck"
        gbio.write_gbck(path, tensors, config={"depth": 2})
        back, header = gbio.read_gbck(path)
        assert header == {"config": {"depth": 2}, "tensors": header["tensors"]}
        for name, arr in tensors.items():
            assert np.array_equal(back[name], arr), name

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "t.gbck"
        gbio.write_gbck(path, {"a": np.zeros(3, np.float32),
                               "w": np.ones((4, 4), np.float32)}, {})
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

    @pytest.mark.parametrize("entry, message", [
        ({"name": "w"}, "tensor 'w' has shape None, not a list of non-negative integers"),
        ({"shape": [2], "offset": 0}, "tensor entry {'shape': [2], 'offset': 0} has no name"),
        ({"name": "w", "shape": 2, "offset": 0},
         "tensor 'w' has shape 2, not a list of non-negative integers"),
        ({"name": "w", "shape": [2.0], "offset": 0},
         "tensor 'w' has shape [2.0], not a list of non-negative integers"),
        ({"name": "w", "shape": [2], "offset": "0"},
         "tensor 'w' has offset '0', not a non-negative integer"),
        ("w", "tensor entry w has no name"),
        ({"name": "w", "shape": [-1], "offset": 0},
         "tensor 'w' has shape [-1], not a list of non-negative integers"),
        ({"name": "w", "shape": [2, -3], "offset": 0},
         "tensor 'w' has shape [2, -3], not a list of non-negative integers"),
        ({"name": "w", "shape": [-2, -3], "offset": 0},
         "tensor 'w' has shape [-2, -3], not a list of non-negative integers"),
        ({"name": "w", "shape": [2], "offset": -4},
         "tensor 'w' has offset -4, not a non-negative integer"),
        ({"name": "w", "shape": [2, 3], "offset": 4},
         "tensor 'w' runs past the end of the file (truncated payload)"),
    ], ids=["no-shape", "no-name", "scalar-shape", "float-shape", "string-offset", "not-an-object",
            "negative-shape", "negative-dim", "negative-dims", "negative-offset", "past-payload"])
    def test_bad_tensor_entry_rejected(self, tmp_path, entry, message):
        # the payload holds six floats, as many as a (2, 3) tensor at offset 0
        path = tmp_path / "odd.gbck"
        header = json.dumps({"config": {}, "tensors": [entry]}).encode()
        path.write_bytes(b"GBCK" + struct.pack("<I", len(header)) + header + b"\x00" * 24)
        with pytest.raises(gbio.FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            gbio.read_gbck(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "twice.gbck"
        gbio.write_gbck(path, {"w": np.zeros(2, np.float32)}, {})
        entry = {"name": "w", "shape": [2], "offset": 0}
        rewrite_header(path, tensors=[entry, entry])
        with pytest.raises(gbio.FormatError, match=rf"^{re.escape(str(path))}: tensor 'w' appears twice$"):
            gbio.read_gbck(path)

    def test_header_with_epoch_and_seed_still_loads(self, tmp_path):
        # checkpoints written before the header dropped its epoch and seed
        path = tmp_path / "old.gbck"
        gbio.write_gbck(path, {"w": np.arange(3, dtype=np.float32)},
                        {"stage": "x", "knobs": {"count": 2}})
        rewrite_header(path, epoch=7, seed=11)
        tensors, configs = gbio.read_checkpoint(path, "x", {"knobs": Knobs})
        assert np.array_equal(tensors["w"], np.arange(3)) and configs == {"knobs": Knobs(count=2)}

    def test_payload_written_and_read_without_a_copy(self, tmp_path):
        # 16 MB of f32 in two tensors: a copy of the payload would show as a
        # traced peak of its size on top of the arrays themselves
        tensors = {name: np.arange(2 * 2**20, dtype=np.float32).reshape(-1, 64) + i
                   for i, name in enumerate(("a", "b"))}
        nbytes = sum(t.nbytes for t in tensors.values())
        path = tmp_path / "big.gbck"
        tracemalloc.start()
        try:
            gbio.write_gbck(path, tensors, {})
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back, _ = gbio.read_gbck(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(back[name], t) for name, t in tensors.items())
        assert write_peak <= 0.1 * nbytes
        assert read_peak <= 1.1 * nbytes

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
        gbio.write_gbck(gbck, {"x": np.zeros(2, np.float32)}, {})
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
        lambda path, fill: gbio.write_gbck(path, {"w": np.full((4, 4), fill, np.float32)}, {}),
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

    def test_text_write_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        gbio.write_text(path, "x\n")
        assert path.read_text() == "x\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


class TestJson:
    def test_write_json_is_sorted_indented_json_with_a_final_newline(self, tmp_path):
        value = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
        path = tmp_path / "out.json"
        gbio.write_json(path, value)
        assert path.read_bytes() == (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


class TestHashes:
    def test_file_sha256_reads_in_blocks(self, tmp_path):
        path = tmp_path / "big.bin"
        blob = np.arange(2**22, dtype=np.uint32).tobytes()  # 16 MB
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            digest = gbio.file_sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(blob).hexdigest()
        assert peak <= 0.1 * len(blob)

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

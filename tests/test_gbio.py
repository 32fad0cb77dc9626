import errno
import json
import struct

import numpy as np
import pytest

from genalign import gbio


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
        assert np.array_equal(back.rows_for("b"), data[4:7])

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
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + length])
        header["row_ranges"] = ranges
        new = json.dumps(header).encode()
        path.write_bytes(b"GBM1" + struct.pack("<I", len(new)) + new + blob[8 + length :])
        with pytest.raises(gbio.FormatError, match=r"bags\.gbm: row"):
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
    """Binary file whose writes fail once ``budget`` bytes are written."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


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
            m.setattr(gbio, "open", lambda *a, **k: _FullDisk(open(*a, **k), header_bytes),
                      raising=False)
            with pytest.raises(OSError, match="No space"):
                write(path, 1.0)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestHashes:
    def test_config_hash_key_order_independent(self):
        assert gbio.config_hash({"a": 1, "b": 2}) == gbio.config_hash({"b": 2, "a": 1})

    def test_manifest_contains_artifact_checksums(self, tmp_path):
        art = tmp_path / "out.gbm"
        gbio.write_gbm(art, gbio.Matrix(np.zeros((1, 2), np.float32), ["p"]))
        import time
        path = gbio.write_manifest(tmp_path, "synth", {"n": 3}, 5, [art], time.time())
        import json
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == 5
        assert manifest["artifacts"]["out.gbm"] == gbio.file_sha256(art)

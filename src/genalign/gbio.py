"""Binary containers for matrices (.gbm) and checkpoints (.gbck).

Both formats are a 4-byte magic, a little-endian u32 header length, a UTF-8
JSON header, then a raw little-endian payload.  Headers are serialized with
sorted keys and no whitespace so identical content produces identical bytes.

.gbm header keys: ``rows``, ``cols``, ``dtype`` ("u8" or "f32"),
``patient_ids``; optional ``band_table_sha256`` (karyotype matrices) and
``row_ranges`` (cell-bag files, one ``[start, stop)`` row range per patient).

.gbck header keys: ``config``, ``epoch``, ``seed``, ``tensors`` (list of
``{name, shape, offset}``, byte offsets into the f32 blob section).

Both are written to a temporary file in the target's directory and renamed
over the target, so a failed write leaves any previous file intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

GBM_MAGIC = b"GBM1"
GBCK_MAGIC = b"GBCK"

_DTYPES = {"u8": np.dtype("<u1"), "f32": np.dtype("<f4")}


class FormatError(ValueError):
    pass


def _dump_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_container(path: Path, magic: bytes, header: dict, payload: Iterable[bytes]) -> None:
    blob = _dump_header(header)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for chunk in payload:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _ints(value) -> bool:
    """A JSON list of integers (booleans excluded)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def _read_prefixed(fh, magic: bytes, path: Path, keys: tuple[str, ...] = ()) -> dict:
    """Header of a container; ``keys`` must all be present."""
    got = fh.read(4)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    prefix = fh.read(4)
    if len(prefix) != 4:
        raise FormatError(f"{path}: truncated header length")
    (length,) = struct.unpack("<I", prefix)
    blob = fh.read(length)
    if len(blob) != length:
        raise FormatError(f"{path}: truncated header ({len(blob)} of {length} bytes)")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    for key in keys:
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
    return header


@dataclass
class Matrix:
    data: np.ndarray  # (rows, cols)
    patient_ids: list[str]
    band_table_sha256: str | None = None
    row_ranges: list[tuple[int, int]] | None = None

    def rows_for(self, patient_id: str) -> np.ndarray:
        """Rows belonging to one patient (requires row_ranges)."""
        if self.row_ranges is None:
            raise FormatError("matrix has no per-patient row ranges")
        i = self.patient_ids.index(patient_id)
        start, stop = self.row_ranges[i]
        return self.data[start:stop]


def write_gbm(path: str | Path, matrix: Matrix) -> None:
    path = Path(path)
    data = np.ascontiguousarray(matrix.data)
    if data.ndim != 2:
        raise FormatError(f"matrix must be 2-D, got shape {data.shape}")
    if data.dtype == np.uint8:
        dtype = "u8"
    elif data.dtype == np.float32:
        dtype = "f32"
    else:
        raise FormatError(f"unsupported dtype {data.dtype}; use u8 or f32")
    header: dict[str, Any] = {
        "rows": int(data.shape[0]),
        "cols": int(data.shape[1]),
        "dtype": dtype,
        "patient_ids": list(matrix.patient_ids),
    }
    if matrix.band_table_sha256 is not None:
        header["band_table_sha256"] = matrix.band_table_sha256
    if matrix.row_ranges is not None:
        header["row_ranges"] = [[int(a), int(b)] for a, b in matrix.row_ranges]
    _write_container(path, GBM_MAGIC, header,
                     [data.astype(_DTYPES[dtype], copy=False).tobytes(order="C")])


def read_gbm(path: str | Path) -> Matrix:
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_prefixed(fh, GBM_MAGIC, path, ("rows", "cols", "dtype", "patient_ids"))
        if header["dtype"] not in _DTYPES:
            raise FormatError(f"{path}: bad dtype {header['dtype']!r}")
        rows, cols = header["rows"], header["cols"]
        dt = _DTYPES[header["dtype"]]
        payload = fh.read(rows * cols * dt.itemsize)
        if len(payload) != rows * cols * dt.itemsize:
            raise FormatError(f"{path}: truncated payload")
        data = np.frombuffer(payload, dtype=dt).reshape(rows, cols).copy()
    ranges = header.get("row_ranges")
    if ranges is not None and not (isinstance(ranges, list) and len(ranges) == len(header["patient_ids"])):
        raise FormatError(f"{path}: row_ranges does not hold one range per patient")
    for r in ranges or ():
        if not (_ints(r) and len(r) == 2 and 0 <= r[0] <= r[1] <= rows):
            raise FormatError(f"{path}: row range {r} is not [start, stop] within {rows} rows")
    return Matrix(
        data=data,
        patient_ids=list(header["patient_ids"]),
        band_table_sha256=header.get("band_table_sha256"),
        row_ranges=[(a, b) for a, b in ranges] if ranges is not None else None,
    )


def write_gbck(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    config: dict,
    epoch: int,
    seed: int,
) -> None:
    path = Path(path)
    directory = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        src = np.asarray(tensors[name])
        arr = np.ascontiguousarray(src, dtype="<f4")
        directory.append({"name": name, "shape": list(src.shape), "offset": offset})
        blobs.append(arr.tobytes(order="C"))
        offset += len(blobs[-1])
    header = {
        "config": config,
        "epoch": int(epoch),
        "seed": int(seed),
        "tensors": directory,
    }
    _write_container(path, GBCK_MAGIC, header, blobs)


def read_gbck(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors, header)."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_prefixed(fh, GBCK_MAGIC, path, ("config", "epoch", "seed", "tensors"))
        blob = fh.read()
    tensors = {}
    for entry in header["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _ints(entry.get("shape")) and type(entry.get("offset")) is int):
            raise FormatError(f"{path}: tensor entry {entry} needs a name, an integer shape and offset")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start < 0 or start + 4 * count > len(blob):
            raise FormatError(
                f"{path}: tensor {entry['name']!r} runs past the end of the payload"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
        tensors[entry["name"]] = arr.reshape(shape).astype(np.float32)
    return tensors, header


def inspect_header(path: str | Path) -> dict:
    """Header JSON of any .gbm/.gbck file, plus the detected kind."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        fh.seek(0)
        if magic == GBM_MAGIC:
            header = _read_prefixed(fh, GBM_MAGIC, path)
            kind = "gbm"
        elif magic == GBCK_MAGIC:
            header = _read_prefixed(fh, GBCK_MAGIC, path)
            kind = "gbck"
        else:
            raise FormatError(f"{path}: unrecognized magic {magic!r}")
    return {"kind": kind, "header": header}


def config_hash(config: dict) -> str:
    return hashlib.sha256(_dump_header(config)).hexdigest()


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_metrics(path: str | Path, records: list[dict]) -> None:
    """JSON-lines log holding exactly ``records``, one per line; any
    earlier content of the file is replaced."""
    Path(path).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    seed: int,
    artifacts: list[str | Path],
    started: float,
) -> Path:
    """Run manifest: config hash, seed, artifact checksums, wall time."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_sha256": config_hash(config),
        "seed": int(seed),
        "artifacts": {
            str(Path(p).name): file_sha256(p) for p in artifacts
        },
        "wall_time_s": round(time.time() - started, 3),
    }
    path = out_dir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path

"""Binary containers for matrices (.gbm) and checkpoints (.gbck).

Both formats are a 4-byte magic, a little-endian u32 header length, a UTF-8
JSON header, then a raw little-endian payload.  Headers are serialized with
sorted keys and no whitespace so identical content produces identical bytes.

.gbm header keys: ``rows``, ``cols``, ``dtype`` ("u8" or "f32"),
``patient_ids`` (one per row); optional ``band_table_sha256`` (karyotype
matrices) and ``row_ranges`` (cell-bag files, one ``[start, stop)`` row range
per patient instead of one row each).

.gbck header keys: ``config``, ``epoch``, ``seed``, ``tensors`` (list of
``{name, shape, offset}``, byte offsets into the f32 blob section); a
training checkpoint's ``config`` holds ``stage``, ``aggregator`` and the
stage's own section.  Every JSON input and config section is read here.

Both, and every text output (``write_text``), are written to a temporary
file in the target's directory and renamed over the target, so a failed
write leaves any previous file intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import struct
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, get_args, get_origin, get_type_hints

import numpy as np

from . import BLAS_THREAD_VARS

GBM_MAGIC = b"GBM1"
GBCK_MAGIC = b"GBCK"

_DTYPES = {"u8": np.dtype("<u1"), "f32": np.dtype("<f4")}


class FormatError(ValueError):
    pass


def _dump_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temporary file in ``path``'s directory and
    rename it over ``path``; on any failure the temporary file is removed
    and a previous ``path`` keeps its bytes."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_container(path: Path, magic: bytes, header: dict, payload: list[bytes]) -> None:
    blob = _dump_header(header)
    _write_atomic(path, [magic, struct.pack("<I", len(blob)), blob, *payload])


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with the UTF-8 ``text`` atomically, like the containers."""
    _write_atomic(Path(path), [text.encode("utf-8")])


def _parse_json(blob: bytes, path, what: str) -> Any:
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable {what}: {exc}") from exc


def read_json(path: str | Path) -> Any:
    """The JSON value in the file at ``path``; a file that is not JSON is
    refused with ``FormatError`` naming it."""
    return _parse_json(Path(path).read_bytes(), path, "JSON")


def _where(path, section: str | None) -> str:
    return str(path) if section is None else f"{path}, section {section!r}"


def json_object(value, keys, path, section: str | None = None) -> dict:
    """``value`` if it is a JSON object whose keys all lie in ``keys``;
    otherwise ``FormatError`` naming the file and the section."""
    if not isinstance(value, dict):
        raise FormatError(f"{_where(path, section)} is not a JSON object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise FormatError(f"{_where(path, section)}: unknown keys {unknown}")
    return value


def _fits(item, kind) -> bool:
    """Whether a JSON value has the type ``kind``: an integer also fills a
    float, a boolean no number, and every element of a ``list[X]`` must
    fit X."""
    if get_origin(kind) is list:
        return type(item) is list and all(_fits(v, get_args(kind)[0]) for v in item)
    return type(item) is kind or (kind is float and type(item) is int)


def config_from(config_cls, value, path, section: str | None = None):
    """``config_cls``, a config dataclass, from a JSON object of its fields.
    Each value must have the type its field declares (``_fits``), each
    field without a default must be given, and the class must accept the
    values; otherwise ``FormatError`` names the file, the section and the
    field."""
    kinds = get_type_hints(config_cls)
    where = _where(path, section)
    value = json_object(value, kinds, path, section)
    for f in fields(config_cls):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{where}: {f.name!r} is required")
    for name, item in value.items():
        kind = kinds[name]
        if not _fits(item, kind):
            shown = kind if get_origin(kind) else kind.__name__  # list[str], int
            raise FormatError(f"{where}: {name!r} must be {shown}, got {item!r}")
    try:
        return config_cls(**value)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


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
    header = _parse_json(blob, path, "header")
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
        if not (_ints([rows, cols]) and rows >= 0 and cols >= 0):
            raise FormatError(f"{path}: rows {rows!r} and cols {cols!r} are not non-negative integers")
        dt = _DTYPES[header["dtype"]]
        payload = fh.read(rows * cols * dt.itemsize)
        if len(payload) != rows * cols * dt.itemsize:
            raise FormatError(f"{path}: truncated payload")
        data = np.frombuffer(payload, dtype=dt).reshape(rows, cols).copy()
    ids = header["patient_ids"]
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: patient_ids is not a list of strings")
    ranges = header.get("row_ranges")
    if ranges is None and len(ids) != rows:
        raise FormatError(f"{path}: {len(ids)} patient ids for {rows} rows without row_ranges")
    if ranges is not None and not (isinstance(ranges, list) and len(ranges) == len(ids)):
        raise FormatError(f"{path}: row_ranges does not hold one range per patient")
    for r in ranges or ():
        if not (_ints(r) and len(r) == 2 and 0 <= r[0] <= r[1] <= rows):
            raise FormatError(f"{path}: row range {r} is not [start, stop] within {rows} rows")
    return Matrix(
        data=data,
        patient_ids=ids,
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
    if not isinstance(header["tensors"], list):
        raise FormatError(f"{path}: tensors is not a list of tensor entries")
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


def write_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], stage: str,
                     agg_config, config, epoch: int, **extra) -> None:
    """A training checkpoint: its header config holds ``stage``, the
    ``aggregator`` section, the stage's ``config`` as the section named
    ``stage``, and any ``extra`` keys; the header seed is ``config.seed``."""
    sections = {"stage": stage, "aggregator": agg_config.to_dict(), stage: config.to_dict()}
    write_gbck(path, tensors, {**sections, **extra}, epoch, config.seed)


def read_checkpoint(path: str | Path, stages: dict[str, dict[str, type]]) -> tuple[str, dict, dict]:
    """``(stage, tensors, configs)`` of a training checkpoint.  ``stages``
    maps each stage the caller takes to the config classes of the sections
    it reads; another stage, or a header without one of those sections, is
    refused, and each section is read through ``config_from``."""
    tensors, header = read_gbck(path)
    config = header["config"]
    if not isinstance(config, dict):
        raise FormatError(f"{path}: checkpoint config is not a JSON object")
    stage = config.get("stage")
    if not (isinstance(stage, str) and stage in stages):
        raise FormatError(f"{path}: stage {stage!r} is not {' or '.join(map(repr, stages))}")
    configs = {}
    for section, config_cls in stages[stage].items():
        if section not in config:
            raise FormatError(f"{path}: checkpoint header has no {section!r} config section")
        configs[section] = config_from(config_cls, config[section], path, section)
    return stage, tensors, configs


def inspect_header(path: str | Path) -> dict:
    """Header JSON of any .gbm/.gbck file, plus the detected kind."""
    path = Path(path)
    kinds = {GBM_MAGIC: "gbm", GBCK_MAGIC: "gbck"}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic not in kinds:
            raise FormatError(f"{path}: unrecognized magic {magic!r}")
        fh.seek(0)
        return {"kind": kinds[magic], "header": _read_prefixed(fh, magic, path)}


def config_hash(config: dict) -> str:
    return hashlib.sha256(_dump_header(config)).hexdigest()


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_metrics(path: str | Path, records: list[dict]) -> None:
    """JSON-lines log holding exactly ``records``, one per line; any
    earlier content of the file is replaced."""
    write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _blas_library() -> dict | None:
    """The BLAS numpy was built against as ``{name, version}``; None where
    numpy cannot report it (``show_config(mode=...)`` is newer than 1.24)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    seed: int,
    artifacts: list[str | Path],
    started: float,
) -> Path:
    """Run manifest: config hash, seed, artifact checksums, the environment
    (Python and numpy versions, the BLAS library and its thread variables)
    and the wall time since ``started``, a ``time.perf_counter()`` reading."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_sha256": config_hash(config),
        "seed": int(seed),
        "artifacts": {
            str(Path(p).name): file_sha256(p) for p in artifacts
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_library(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    path = out_dir / f"manifest_{command}.json"
    write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path

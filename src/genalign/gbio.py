"""Every file format: matrices (.gbm), checkpoints (.gbck), JSON and
patient-keyed TSV.  Both binary formats are a 4-byte magic, a little-endian
u32 header length, a UTF-8 JSON header (sorted keys, no whitespace, so
identical content produces identical bytes), then a raw little-endian payload.

.gbm header keys: ``rows``, ``cols``, ``dtype`` ("u8" or "f32"),
``patient_ids`` (one per row, no id twice); optional ``band_table_sha256``
(karyotype matrices) and ``row_ranges`` (cell-bag files, one ``[start,
stop)`` row range per patient instead of one row each).

.gbck header keys: ``config`` and ``tensors`` (list of ``{name, shape,
offset}``, no name twice; byte offsets into the f32 payload); a training
checkpoint's ``config`` holds ``stage``, ``aggregator`` and the stage's own
section, and its loaders refuse tensors that differ by name or shape from the
model those sections declare (``check_tensors``).  Other keys (``epoch`` and
``seed`` in older files) are ignored.

Every output is written to a temporary file in the target's directory,
which is created if missing, and renamed over the target, so a failed write
leaves any previous file intact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import platform
import struct
import time
from collections import Counter
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


def _write_atomic(path: Path, chunks: Iterable) -> None:
    """Write ``chunks`` (bytes, or 1-D u8 arrays) to a temporary file in
    ``path``'s directory and rename it over ``path``; on any failure the
    temporary file is removed and a previous ``path`` keeps its bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_container(path: Path, magic: bytes, header: dict, payload: list) -> None:
    blob = _dump_header(header)
    _write_atomic(path, [magic, struct.pack("<I", len(blob)), blob, *payload])


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with the UTF-8 ``text`` atomically, like the containers."""
    _write_atomic(Path(path), [text.encode("utf-8")])


def write_json(path: str | Path, value) -> None:
    """``value`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(value, sort_keys=True, indent=2) + "\n")


def write_tsv(path: str | Path, rows: Iterable[list[str]]) -> None:
    """Tab-separated ``rows``, as ``read_patient_rows`` reads them back."""
    text = io.StringIO()
    csv.writer(text, delimiter="\t", lineterminator="\n").writerows(rows)
    write_text(path, text.getvalue())


def read_patient_rows(path: str | Path, n_fields: int) -> dict[str, list[str]]:
    """Each patient's fields after its id, in file order, from a
    tab-separated file of ``n_fields`` fields a row, the patient id first.
    Blank lines are skipped; a row with another field count, or a second row
    for a patient, is refused with ``FormatError`` naming ``file:line``."""
    rows, first_line = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if not row:
                continue
            if len(row) != n_fields:
                raise FormatError(f"{where}: expected {n_fields} tab-separated fields, got {len(row)}")
            if row[0] in rows:
                raise FormatError(f"{where}: second row for patient {row[0]!r} "
                                  f"(first on line {first_line[row[0]]})")
            first_line[row[0]] = reader.line_num
            rows[row[0]] = row[1:]
    return rows


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


def check_finite_floats(config) -> None:
    """Refuse, with ``ValueError`` naming the field, a float field of the
    config dataclass ``config`` that holds NaN or an infinity: NaN passes
    every ``<`` and ``<=`` check, and JSON's ``NaN`` and ``Infinity`` parse."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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


def _read_array(fh, path: Path, what: str, shape, dtype: np.dtype, start: int,
                offset: Any = 0) -> np.ndarray:
    """The ``shape`` array of ``dtype`` at ``offset`` bytes into the payload
    that begins at byte ``start`` of ``fh``.  A shape that is not a list of
    non-negative integers, an offset that is not a non-negative integer, or
    a file too short to hold the array is refused before any allocation."""
    if not (_ints(shape) and all(n >= 0 for n in shape)):
        raise FormatError(f"{path}: {what} has shape {shape!r}, not a list of non-negative integers")
    if not (type(offset) is int and offset >= 0):
        raise FormatError(f"{path}: {what} has offset {offset!r}, not a non-negative integer")
    nbytes = math.prod(shape) * dtype.itemsize
    fh.seek(start + offset)
    # allocated only once the file is seen to hold the array
    fits = os.fstat(fh.fileno()).st_size >= start + offset + nbytes
    data = np.empty(shape, dtype) if fits else None
    if data is None or fh.readinto(data) != nbytes:
        raise FormatError(f"{path}: {what} runs past the end of the file (truncated payload)")
    return data


@dataclass
class Matrix:
    data: np.ndarray | list[np.ndarray]  # (rows, cols), or row blocks of one width
    patient_ids: list[str]
    band_table_sha256: str | None = None
    row_ranges: list[tuple[int, int]] | None = None


def write_gbm(path: str | Path, matrix: Matrix) -> None:
    """``matrix`` as a .gbm; a list of 2-D blocks as ``data`` is written as
    their rows one after another, the matrix they concatenate to, without
    building it."""
    path = Path(path)
    blocks = matrix.data if isinstance(matrix.data, list) else [matrix.data]
    blocks = [np.asarray(b, order="C") for b in blocks]
    if not blocks or {(b.ndim, b.shape[1:]) for b in blocks} != {(2, blocks[0].shape[1:])}:
        raise FormatError(f"matrix must be 2-D blocks of one width, got shapes {[b.shape for b in blocks]}")
    kinds = {b.dtype.name for b in blocks}
    dtype = next((name for name, dt in _DTYPES.items() if kinds == {dt.name}), None)
    if dtype is None:
        raise FormatError(f"unsupported dtype {sorted(kinds)}; use u8 or f32")
    header: dict[str, Any] = {
        "rows": sum(b.shape[0] for b in blocks),
        "cols": int(blocks[0].shape[1]),
        "dtype": dtype,
        "patient_ids": list(matrix.patient_ids),
    }
    if matrix.band_table_sha256 is not None:
        header["band_table_sha256"] = matrix.band_table_sha256
    if matrix.row_ranges is not None:
        header["row_ranges"] = [[int(a), int(b)] for a, b in matrix.row_ranges]
    # each contiguous block's own bytes, as a view: written without a copy
    _write_container(path, GBM_MAGIC, header, [
        b.astype(_DTYPES[dtype], copy=False).reshape(-1).view(np.uint8) for b in blocks])


def read_gbm(path: str | Path) -> Matrix:
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_prefixed(fh, GBM_MAGIC, path, ("rows", "cols", "dtype", "patient_ids"))
        if header["dtype"] not in _DTYPES:
            raise FormatError(f"{path}: bad dtype {header['dtype']!r}")
        data = _read_array(fh, path, "matrix", [header["rows"], header["cols"]],
                           _DTYPES[header["dtype"]], fh.tell())
    rows = data.shape[0]
    ids = header["patient_ids"]
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: patient_ids is not a list of strings")
    repeated = [pid for pid, n in Counter(ids).items() if n > 1]
    if repeated:
        raise FormatError(f"{path}: repeated patient id {repeated[0]!r}")
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


def write_gbck(path: str | Path, tensors: dict[str, np.ndarray], config: dict) -> None:
    """``tensors`` as f32 in name order, each written from its own bytes."""
    directory = []
    payload = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f4", order="C")
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.append(arr.reshape(-1).view(np.uint8))
        offset += arr.nbytes
    _write_container(Path(path), GBCK_MAGIC, {"config": config, "tensors": directory}, payload)


def read_gbck(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors, header), each tensor read straight into its array."""
    path = Path(path)
    tensors = {}
    with open(path, "rb") as fh:
        header = _read_prefixed(fh, GBCK_MAGIC, path, ("config", "tensors"))
        if not isinstance(header["tensors"], list):
            raise FormatError(f"{path}: tensors is not a list of tensor entries")
        start = fh.tell()
        for entry in header["tensors"]:
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
                raise FormatError(f"{path}: tensor entry {entry} has no name")
            name = entry["name"]
            if name in tensors:
                raise FormatError(f"{path}: tensor {name!r} appears twice")
            tensors[name] = _read_array(fh, path, f"tensor {name!r}", entry.get("shape"),
                                        _DTYPES["f32"], start, entry.get("offset"))
    return tensors, header


def write_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], stage: str,
                     agg_config, config) -> None:
    """A training checkpoint: its header config holds ``stage``, the
    ``aggregator`` section and the stage's ``config`` as the section named
    ``stage``."""
    sections = {"stage": stage, "aggregator": agg_config.to_dict(), stage: config.to_dict()}
    write_gbck(path, tensors, sections)


def read_checkpoint(path: str | Path, stage: str, sections: dict[str, type]) -> tuple[dict, dict]:
    """``(tensors, configs)`` of a training checkpoint of ``stage``;
    ``sections`` maps each config section the caller reads to its class.
    Another stage, or a header without one of those sections, is refused,
    and each section is read through ``config_from``."""
    tensors, header = read_gbck(path)
    config = header["config"]
    if not isinstance(config, dict):
        raise FormatError(f"{path}: checkpoint config is not a JSON object")
    if config.get("stage") != stage:
        raise FormatError(f"{path}: stage {config.get('stage')!r} is not {stage!r}")
    configs = {}
    for section, config_cls in sections.items():
        if section not in config:
            raise FormatError(f"{path}: checkpoint header has no {section!r} config section")
        configs[section] = config_from(config_cls, config[section], path, section)
    return tensors, configs


MODEL_MISMATCH = "tensors differ from the model its header's configs declare"


def check_tensors(tensors: dict, expected: dict, context: str, error: type = FormatError) -> None:
    """Raise ``error`` after ``context`` at the first name at which
    ``tensors`` and ``expected`` differ by presence or shape."""
    for name in sorted(tensors.keys() | expected.keys()):
        if name not in tensors:
            raise error(f"{context}: no tensor {name!r}")
        if name not in expected:
            raise error(f"{context}: tensor {name!r} is not in the model")
        got, want = list(tensors[name].shape), list(expected[name].shape)
        if got != want:
            raise error(f"{context}: tensor {name!r} has shape {got}, not {want}")


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
    """SHA-256 of a file, read through one 1 MiB buffer so that no copy of
    the whole file is held."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(1 << 20))
    with open(path, "rb") as fh:
        while n := fh.readinto(block):
            digest.update(block[:n])
    return digest.hexdigest()


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
    path = Path(out_dir) / f"manifest_{command}.json"
    write_json(path, manifest)
    return path

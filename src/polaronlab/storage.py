"""Deterministic on-disk artifacts: binary operator files and JSON helpers.

An operator file is a little-endian header ``(dimension, nnz, flags)`` as
three unsigned 64-bit words, followed by one record per stored entry:
``(row: int64, col: int64, value: float64)``.  The records are the stored
entries of a ``SparseOperator``'s canonical CSR arrays in storage order,
each row index read off ``indptr``: strictly ascending by row, then column,
with no zero value.  Every operator is symmetric, so ``flags`` is
always 1 and the sidecar always says ``"hermitian": true``.  The JSON
sidecar also carries the assembly parameters and the SHA-256 of the binary
payload; every load re-hashes and refuses corrupted files.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Tuple

from .errors import CacheCorruptionError

# numpy and the Fock layer load only in the functions that touch array or
# operator data, so hashing and JSON need the standard library only; no
# function here loads scipy
if TYPE_CHECKING:
    from .fock import SparseOperator

_HEADER = struct.Struct("<QQQ")
#: numpy dtype fields of one stored entry
_RECORD_FIELDS = [("row", "<i8"), ("col", "<i8"), ("value", "<f8")]
_FLAG_HERMITIAN = 1


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of ``data``: the content hash of artifacts and configs."""
    return hashlib.sha256(data).hexdigest()


def jsonable(value: Any) -> Any:
    """Map numpy scalars and arrays to JSON built-ins, recursively.

    Keys become strings and non-finite floats become ``None``, so the result
    always passes ``json.dumps(..., allow_nan=False)``.
    """
    import numpy as np

    def walk(value):
        if isinstance(value, dict):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        if isinstance(value, np.ndarray):
            return [walk(v) for v in value.tolist()]
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, float):
            return float(value) if math.isfinite(value) else None
        return value

    return walk(value)


def json_dumps(payload: Dict[str, Any]) -> str:
    """Canonical JSON used for all artifacts (sorted keys, stable floats)."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def read_json(path: Path) -> Dict[str, Any]:
    """Parse a JSON artifact; one that does not parse is corrupt."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise CacheCorruptionError(f"{path} is not valid JSON: {exc}") from exc


def config_hash(payload: Dict[str, Any]) -> str:
    """Content hash of a JSON-serializable configuration."""
    return sha256_bytes(json.dumps(payload, sort_keys=True).encode())


def operator_bytes(op: SparseOperator) -> bytes:
    """Serialize an operator's CSR arrays to the binary format, one record
    per stored entry, its row taken from ``indptr``."""
    import numpy as np

    records = np.empty(op.nnz, dtype=_RECORD_FIELDS)
    records["row"] = np.repeat(np.arange(op.dim), np.diff(op.indptr))
    records["col"] = op.indices
    records["value"] = op.data
    return _HEADER.pack(op.dim, op.nnz, _FLAG_HERMITIAN) + records.tobytes()


def operator_payload(op: SparseOperator, meta: Dict[str, Any]) -> Tuple[bytes, Dict[str, Any]]:
    """Binary blob plus sidecar dict for an operator, without touching disk."""
    blob = operator_bytes(op)
    sidecar = {
        "dimension": op.dim,
        "nnz": op.nnz,
        "hermitian": True,
        "sha256": sha256_bytes(blob),
        "meta": meta,
    }
    return blob, sidecar


def load_operator(base: Path) -> Tuple[SparseOperator, Dict[str, Any]]:
    """Load an operator, verifying its content hash and its layout: the
    header must match the sidecar, carry the flag word 1 and hold exactly
    ``nnz`` records, and the records must be strictly ascending by row,
    then column, inside ``[0, dim)``, with no zero value: a canonical CSR
    matrix, whose ``indptr`` they give.  Any mismatch raises
    ``CacheCorruptionError``."""
    import numpy as np

    from .fock import SparseOperator

    base = Path(base)
    bin_path = base.with_suffix(".bin")
    sidecar = read_json(base.with_suffix(".json"))
    blob = bin_path.read_bytes()
    if sha256_bytes(blob) != sidecar.get("sha256"):
        raise CacheCorruptionError(f"content hash mismatch for {bin_path}")
    if len(blob) < _HEADER.size:
        raise CacheCorruptionError(f"truncated operator file {bin_path}")
    dim, nnz, flags = _HEADER.unpack_from(blob)
    if (dim, nnz) != (sidecar.get("dimension"), sidecar.get("nnz")):
        raise CacheCorruptionError(f"header of {bin_path} disagrees with its sidecar")
    if flags != _FLAG_HERMITIAN:
        raise CacheCorruptionError(f"flag word of {bin_path} is {flags}, not {_FLAG_HERMITIAN}")
    record = np.dtype(_RECORD_FIELDS)
    if len(blob) - _HEADER.size != nnz * record.itemsize:
        raise CacheCorruptionError(f"record count mismatch in {bin_path}")
    records = np.frombuffer(blob, dtype=record, offset=_HEADER.size)
    rows, cols = records["row"].astype(np.int64), records["col"].astype(np.int64)
    values = records["value"].astype(np.float64)
    step_row, step_col = np.diff(rows), np.diff(cols)
    ascending = np.all((step_row > 0) | ((step_row == 0) & (step_col > 0)))
    inside = np.all((rows >= 0) & (rows < dim) & (cols >= 0) & (cols < dim))
    if not (ascending and inside and np.all(values != 0)):
        raise CacheCorruptionError(f"records of {bin_path} are not a canonical CSR matrix")
    op = SparseOperator(int(dim), np.searchsorted(rows, np.arange(dim + 1)), cols, values)
    return op, sidecar

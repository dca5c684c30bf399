"""Result serialization: CSV time series and JSON run summaries.

Numbers are written with 17 significant digits so that a double survives
the round trip exactly; nothing time- or host-dependent is ever written,
which is what makes byte-identical reruns possible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import IOFailure

NUMBER_FORMAT = "%.17g"


def format_number(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return NUMBER_FORMAT % float(value)


def check_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Raise IOFailure, naming ``path``, for a table ``write_csv`` refuses:
    a header that does not fit the columns, ragged columns, a non-finite value."""
    if len(header) != len(columns):
        raise IOFailure(
            f"{path}: {len(header)} header fields for {len(columns)} columns")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise IOFailure(f"{path}: ragged columns with lengths {sorted(lengths)}")
    for name, col in zip(header, columns):
        arr = np.asarray(col)
        if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
            raise IOFailure(f"{path}: column {name!r} holds a non-finite value")


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> Path:
    """Write aligned columns under a header row.

    The table must pass ``check_csv``; values go through the 17-digit
    formatter.
    """
    check_csv(path, header, columns)
    lines = [",".join(header)]
    for i in range(len(columns[0]) if columns else 0):
        lines.append(",".join(format_number(col[i]) for col in columns))
    text = "\n".join(lines) + "\n"
    try:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise IOFailure(f"cannot write {path}: {err}") from err
    return path


def _jsonable(obj, path, key: str = ""):
    """JSON-ready copy of obj, the summary bound for ``path``; raises
    IOFailure naming the path and the key of the first non-finite float."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, path, f"{key}.{k}" if key else str(k))
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, path, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real, path, key),
                "im": _jsonable(obj.imag, path, key)}
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise IOFailure(f"{path}: key {key!r} holds a non-finite value")
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist(), path, key)
    return obj


def write_summary(path, payload: dict) -> Path:
    """Write the run summary document (sorted keys, no timestamps); a
    non-finite float raises IOFailure before anything is written."""
    doc = _jsonable(payload, path)
    try:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as err:
        raise IOFailure(f"cannot write {path}: {err}") from err
    return path


def operator_table(label_pairs: list[tuple[str, np.ndarray]]
                   ) -> tuple[list[str], list[np.ndarray]]:
    """Flattened operator dump as ``write_csv``'s (header, columns): row,
    col, then re/im per labeled matrix."""
    if not label_pairs:
        raise IOFailure("operator table: nothing to write")
    dim = label_pairs[0][1].shape[0]
    rows, cols = np.indices((dim, dim))
    header = ["row", "col"]
    columns: list[np.ndarray] = [rows.ravel(), cols.ravel()]
    for label, op in label_pairs:
        if op.shape != (dim, dim):
            raise IOFailure(f"operator table: {label} has shape {op.shape}")
        header.extend([f"{label}_re", f"{label}_im"])
        columns.extend([op.real.ravel(), op.imag.ravel()])
    return header, columns


def operator_csv(path, label_pairs: list[tuple[str, np.ndarray]]) -> Path:
    """Write ``operator_table(label_pairs)`` to ``path``."""
    return write_csv(path, *operator_table(label_pairs))

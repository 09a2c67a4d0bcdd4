"""Machine-readable output documents (JSON and CSV) for all analyses."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = ["OutputDocument", "emit_heatmap_csv", "format_float", "write_atomic"]


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def format_float(x: float) -> str:
    """The text a JSON document writes for x: the shortest repr of x rounded
    to 12 significant digits, such as ``1.0``, ``0.00641025641026`` or
    ``1e-14``."""
    return repr(_round12(x))


def _jsonable(value):
    if isinstance(value, (np.floating, float)):
        return _round12(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, complex):
        return {"re": _round12(value.real), "im": _round12(value.imag)}
    return value


@dataclass(frozen=True)
class OutputDocument:
    """Metadata plus payload of one analysis run.

    All floats are serialized with 12 significant digits, so a serialized
    document re-parses to exactly the payload it was built from.
    """

    metadata: dict
    payload: dict

    def to_json(self) -> str:
        body = {"metadata": _jsonable(self.metadata), "payload": _jsonable(self.payload)}
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def metadata_comment_lines(self) -> list[str]:
        """'#'-prefixed metadata header used by the CSV output format."""
        return [f"# {key}: {_header_text(value)}" for key, value in sorted(_flat(self.metadata))]


def _header_text(value) -> str:
    """A metadata value as the CSV header writes it: floats, in lists too,
    as the JSON document writes them."""
    if isinstance(value, (np.floating, float)):
        return format_float(value)
    if isinstance(value, list):
        return "[" + ", ".join(_header_text(v) for v in value) + "]"
    return str(value)


def _flat(meta: dict, prefix: str = ""):
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flat(value, prefix=f"{name}.")
        else:
            yield name, value


def emit_heatmap_csv(matrix: np.ndarray, row_ids, col_ids) -> str:
    """Labeled CSV of a matrix: header of target ids, one row per initial node."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise ValueError("matrix shape does not match the id labels")
    lines = [",".join(["l"] + [str(c) for c in col_ids])]
    for rid, row in zip(row_ids, matrix):
        lines.append(",".join([str(rid)] + [format_float(v) for v in row]))
    return "\n".join(lines)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename.  The file
    gets the mode ``open(path, "w")`` would create it with, 0o666 less the
    umask, not the 0o600 of the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

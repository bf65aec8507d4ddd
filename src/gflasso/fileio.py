"""CSV/JSON file formats shared by the library and the CLI; the only module that opens files.

Matrices are CSV with a header row of column ids and one row per sample, written with %.17g so float64
values round-trip exactly. Matrices and edge lists are read by :func:`read_csv_lines` in one dialect: UTF-8, a
leading byte-order mark ignored, plain comma-separated cells, no quoting, blank and whitespace-only lines skipped but
counted. Writes go through :func:`atomic_write_text`, a UTF-8 temp-file-then-rename that leaves no partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via a temp file in the same directory + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_csv_text(M: np.ndarray, header: list[str]) -> str:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {M.shape}")
    if len(header) != M.shape[1]:
        raise ValueError(f"header has {len(header)} names for {M.shape[1]} columns")
    row_format = ",".join(["%.17g"] * M.shape[1])
    return "\n".join([",".join(header), *(row_format % tuple(row) for row in M.tolist())]) + "\n"


def write_matrix_csv(path, M: np.ndarray, header: list[str]) -> None:
    atomic_write_text(path, matrix_csv_text(M, header))


def read_csv_lines(path) -> list[tuple[int, str]]:
    """(file line, text) of every line of ``path`` that is not blank or whitespace-only; an empty or non-UTF-8 file is refused."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip() != ""]
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # the decoder counts bytes, not lines: find the first line that does not decode
            for i, raw in enumerate(fh.read().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}: line {i} is not UTF-8: {exc}") from None
        raise
    if not lines:
        raise ValueError(f"{path}: empty file")
    return lines


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Parse a matrix CSV; malformed or non-finite cells are reported with their file line and column."""
    lines = read_csv_lines(path)
    header = [h.strip() for h in lines[0][1].split(",")]
    width = len(header)
    rows = []
    for i, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{path}: line {i} has {len(cells)} cells, expected {width}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            for j, c in enumerate(cells, start=1):
                try:
                    float(c)
                except ValueError:
                    raise ValueError(f"{path}: non-numeric cell at line {i}, column {j}: {c!r}") from None
            raise
    if not rows:
        raise ValueError(f"{path}: no data rows")
    M = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        (i, line), j = lines[bad[0][0] + 1], bad[0][1]
        raise ValueError(f"{path}: non-finite cell at line {i}, column {j + 1}: {line.split(',')[j]!r}")
    return M, header


def default_headers(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def json_text(obj) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError instead of being written."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()

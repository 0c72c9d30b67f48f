"""Bit-stable result emission: CSV/JSON writers with atomic file replacement."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np


def fmt(value) -> str:
    """Render a number with 15 significant digits and a '.' decimal separator."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.15g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the same directory, then rename into place.

    The file gets mode 0o666 & ~umask, as open(path, "w") would create it;
    mkstemp alone would leave it 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)  # the only way to read it sets it; it is restored at once
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_format(kinds: tuple[type, ...]) -> str | None:
    """printf format rendering a row of cells of these types as fmt() does; None if one is boolean."""
    specs = []
    for kind in kinds:
        if issubclass(kind, (bool, np.bool_)):
            return None
        if issubclass(kind, str):
            specs.append("%s")
        elif issubclass(kind, (int, np.integer)):
            specs.append("%d")
        else:
            specs.append("%.15g")
    return ",".join(specs)


def write_csv(path: str, header: list[str], rows=(), config_hash: str | None = None, columns=None) -> None:
    """Comma-separated table with a header row and a provenance comment line.

    The table is given either as rows, an iterable of rows, or as columns,
    a sequence of equal-length numeric, non-boolean numpy arrays.  Strings
    are written as they are and every other cell as fmt() renders it.  Rows
    go through one printf format per distinct row of cell types; columns,
    whose types do not vary down a column, through one printf of the same
    format, repeated once per row, over the whole table.
    """
    lines = []
    if config_hash is not None:
        lines.append(f"# config-hash: {config_hash}")
    lines.append(",".join(header))
    if columns is not None:
        form = _row_format(tuple(column.dtype.type for column in columns))
        cells = [None] * sum(column.size for column in columns)
        for k, column in enumerate(columns):
            cells[k :: len(columns)] = column.tolist()
        body = ((form + "\n") * columns[0].size) % tuple(cells)
        atomic_write_text(path, "\n".join(lines) + "\n" + body)
        return
    formats: dict[tuple[type, ...], str | None] = {}
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = _row_format(kinds)
        form = formats[kinds]
        if form is None:
            lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
        else:
            lines.append(form % tuple(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload, config_hash: str | None = None) -> None:
    """UTF-8 JSON with sorted keys; the config hash rides inside the payload."""
    if config_hash is not None and isinstance(payload, dict):
        payload = {**payload, "config_hash": config_hash}
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n")

"""The one CSV format of every table: an optional ``# key=value ...`` line, a header
and rows of ``:.17g`` floats, which read back bit for bit (``-0.0``, subnormals, ``inf``,
``nan``) and print integral values, such as counts and indices, without a decimal point."""

import numpy as np

from .errors import ScenarioError

# Rows formatted per block, so a large table never holds its values twice over.
_BLOCK_ROWS = 4096


def write_table(header: list[str], data, meta: dict[str, float] | None = None) -> str:
    """``meta`` as a ``#`` line, then ``header`` and the rows of the float matrix ``data``."""
    lines = [] if meta is None else ["# " + " ".join(f"{k}={v:.17g}" for k, v in meta.items())]
    lines.append(",".join(header))
    data, row = np.asarray(data, float), ",".join(["{:.17g}"] * len(header))
    for start in range(0, len(data), _BLOCK_ROWS):
        lines += [row.format(*r) for r in data[start : start + _BLOCK_ROWS].tolist()]
    return "\n".join(lines) + "\n"


def read_table(text: str, what: str, layout: str, header_ok, meta_keys=(), min_rows: int = 0,
               count: str | None = None) -> tuple[dict[str, float], list[str], np.ndarray]:
    """(meta, header, data) of a ``what`` table whose header ``header_ok`` accepts.

    Blank and ``#`` lines are skipped; the first ``#`` line holds the ``meta_keys`` values.
    Text the reader cannot use, such as fewer than ``min_rows`` data rows or a ``count``
    cell that is not a non-negative integer, raises ``ScenarioError`` naming the line.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    rows = [(no, ln) for no, ln in lines if not ln.startswith("#")]
    if not rows:
        raise ScenarioError(f"{what} CSV is empty")
    header = [name.strip() for name in rows[0][1].split(",")]
    if not header_ok(header):
        raise ScenarioError(f"{what} CSV line {rows[0][0]}: header must be the columns {layout}")
    meta_no, meta_ln = next(((no, ln) for no, ln in lines if ln.startswith("#")), (rows[0][0], ""))
    tokens = dict(token.partition("=")[::2] for token in meta_ln.lstrip("#").split())
    if missing := [key for key in meta_keys if key not in tokens]:
        raise ScenarioError(f"{what} CSV line {meta_no} has no {missing[0]}= entry")
    meta = dict(zip(meta_keys, _floats([tokens[key] for key in meta_keys], what, meta_no)))
    data = np.empty((len(rows) - 1, len(header)))
    if len(data) < min_rows:
        raise ScenarioError(f"{what} CSV has {len(data) or 'no'} data rows; it needs {min_rows}")
    j = header.index(count) if count else None
    for row, (no, ln) in zip(data, rows[1:]):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ScenarioError(f"{what} CSV line {no} has {len(cells)} fields, the header {len(header)}")
        row[:] = _floats(cells, what, no)
        if j is not None and not (0 <= row[j] < 2**63 and row[j] % 1 == 0):
            raise ScenarioError(f"{what} CSV line {no}: {count} must be a non-negative integer")
    return meta, header, data


def _floats(cells: list[str], what: str, no: int) -> list[float]:
    try:
        return [float(x) for x in cells]
    except ValueError:
        raise ScenarioError(f"{what} CSV line {no} holds a value that is not a number") from None

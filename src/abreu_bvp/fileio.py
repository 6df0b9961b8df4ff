"""Plain-text writers and readers for field files, node tables, and reports.

Field files are whitespace-separated columns, one grid node per row, with a
single header line naming the columns and a trailing 0/1 flag marking
boundary nodes.  Values are written with `%.17g` so a write/read cycle is
bit-exact for doubles.  Reports are nested `key: value` text with two-space
indentation.
"""

from __future__ import annotations

import numpy as np

FIELD_HEADER = "# columns: x y u w d residual"
TABLE_HEADER = "# columns: x y value"

_FMT = "%.17g"


def _read_table(path, header, what, n_columns) -> np.ndarray:
    """The rows of a table file under `header`, with n_columns columns."""
    with open(path) as handle:
        found = handle.readline().strip()
        if found != header:
            raise ValueError(f"unexpected {what} header: {found!r}")
        data = np.loadtxt(handle, ndmin=2)
    if data.shape[1] != n_columns:
        raise ValueError(f"expected {n_columns} columns, found "
                         f"{data.shape[1]}")
    return data


def write_fields(path, grid, u, w, d, residual) -> None:
    flags = np.zeros(grid.n_nodes)
    flags[grid.n_interior:] = 1
    np.savetxt(path, np.column_stack([grid.points, u, w, d, residual, flags]),
               fmt=[_FMT] * 6 + ["%d"], header=FIELD_HEADER, comments="")


def read_fields(path) -> dict:
    data = _read_table(path, FIELD_HEADER, "field file", 7)
    names = ("x", "y", "u", "w", "d", "residual")
    out = {name: data[:, i].copy() for i, name in enumerate(names)}
    out["boundary"] = data[:, 6].astype(int)
    return out


def write_node_table(path, points, values) -> None:
    np.savetxt(path, np.column_stack([points, values]), fmt=_FMT,
               header=TABLE_HEADER, comments="")


def read_node_table(path):
    data = _read_table(path, TABLE_HEADER, "node table", 3)
    return data[:, :2].copy(), data[:, 2].copy()


def _format_scalar(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(mapping, indent, lines) -> None:
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            _emit(value, indent + "  ", lines)
        elif isinstance(value, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in value):
                body = ", ".join(_format_scalar(v) for v in value)
                lines.append(f"{indent}{key}: [{body}]")
            else:
                lines.append(f"{indent}{key}:")
                for i, item in enumerate(value, 1):
                    if isinstance(item, dict):
                        lines.append(f"{indent}  {i}:")
                        _emit(item, indent + "    ", lines)
                    else:
                        lines.append(f"{indent}  {i}: "
                                     f"{_format_scalar(item)}")
        else:
            lines.append(f"{indent}{key}: {_format_scalar(value)}")


def format_report(mapping: dict) -> str:
    lines = []
    _emit(mapping, "", lines)
    return "\n".join(lines) + "\n"


def write_report(path, mapping: dict) -> None:
    with open(path, "w") as handle:
        handle.write(format_report(mapping))

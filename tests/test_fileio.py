import numpy as np
import pytest

from abreu_bvp.fileio import (
    FIELD_HEADER,
    format_report,
    read_fields,
    read_node_table,
    write_fields,
    write_node_table,
    write_report,
)


# Values a %.17g round trip must keep: nan, both infinities, a negative
# zero, a subnormal and values near both ends of the exponent range.
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-320, 1e-300, -1e300])


def same_doubles(back, ref):
    return (np.array_equal(back, ref, equal_nan=True)
            and np.array_equal(np.signbit(back), np.signbit(ref)))


def test_fields_round_trip_is_bitwise(disk32, tmp_path, rng):
    g = disk32
    u = rng.normal(size=g.n_nodes)
    w = np.abs(rng.normal(size=g.n_nodes)) + 1e-3
    d = np.abs(rng.normal(size=g.n_nodes))
    r = rng.normal(size=g.n_nodes) * 1e-9
    u[:SPECIAL.size] = SPECIAL
    r[-SPECIAL.size:] = SPECIAL
    path = tmp_path / "fields.txt"
    write_fields(str(path), g, u, w, d, r)
    back = read_fields(str(path))
    # %.17g prints doubles exactly
    for name, ref in (("u", u), ("w", w), ("d", d), ("residual", r)):
        assert same_doubles(back[name], ref), name
    assert np.array_equal(back["x"], g.points[:, 0])
    assert np.array_equal(back["y"], g.points[:, 1])
    flags = back["boundary"]
    assert np.all(flags[: g.n_interior] == 0)
    assert np.all(flags[g.n_interior:] == 1)


def test_fields_header_is_validated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# wrong\n0 0 0 0 0 0 0\n")
    with pytest.raises(ValueError, match="header"):
        read_fields(str(path))


def test_fields_column_count_is_validated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(FIELD_HEADER + "\n1 2 3\n")
    with pytest.raises(ValueError):
        read_fields(str(path))


def test_node_table_round_trip(tmp_path, rng):
    pts = rng.normal(size=(17, 2))
    vals = rng.normal(size=17)
    vals[:SPECIAL.size] = SPECIAL
    pts[-SPECIAL.size:, 1] = SPECIAL
    path = tmp_path / "table.txt"
    write_node_table(str(path), pts, vals)
    xy, back = read_node_table(str(path))
    assert same_doubles(xy, pts)
    assert same_doubles(back, vals)


def test_report_formatting():
    text = format_report({
        "command": "solve",
        "count": 3,
        "ratio": 0.5,
        "flag": True,
        "off": False,
        "missing": None,
        "nested": {"a": 1, "b": [1.0, 2.0]},
        "steps": [{"t": 0.5, "ok": True}, {"t": 1.0, "ok": False}],
    })
    lines = text.splitlines()
    assert "command: solve" in lines
    assert "flag: true" in lines
    assert "off: false" in lines
    assert "missing: n/a" in lines
    assert "nested:" in lines
    assert "  a: 1" in lines
    assert "  b: [1.0, 2.0]" in lines
    assert "steps:" in lines
    assert "  1:" in lines
    assert "    t: 0.5" in lines
    assert "  2:" in lines


def test_report_written_to_disk(tmp_path):
    path = tmp_path / "report.txt"
    write_report(str(path), {"value": 1.25})
    assert path.read_text() == "value: 1.25\n"

"""The tolerance gate of scripts/compare_tables.py on synthetic CSV tables."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import compare_tables  # noqa: E402

HEADER = "scheme,k,n,T,metric,value,order"
ROWS = [
    "rsv,2,512,0.1,l2,3.20e-08,",
    "rsv,2,1024,0.1,l2,4.00e-09,3.00",
    "lsv,3,512,0.1,iface_rms,4.00e-14,",
    "lsv,3,1024,0.1,iface_rms,9.93e-15,2.01",
]


def _table(rows=ROWS) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


def _moved(index: int, value: str | None = None, order: str | None = None) -> str:
    rows = list(ROWS)
    cells = rows[index].split(",")
    if value is not None:
        cells[5] = value
    if order is not None:
        cells[6] = order
    rows[index] = ",".join(cells)
    return _table(rows)


def test_identical_tables_match():
    assert compare_tables.compare_csv(_table(), _table()) == []


def test_value_moved_inside_the_tolerance_matches():
    assert compare_tables.compare_csv(_table(), _moved(0, value="3.23e-08")) == []


def test_value_moved_beyond_the_tolerance_differs():
    problems = compare_tables.compare_csv(_table(), _moved(0, value="3.30e-08"))
    assert problems == ["rsv,2,512,0.1,l2 value 3.20e-08 -> 3.30e-08"]


def test_roundoff_level_value_may_move():
    assert compare_tables.compare_csv(_table(), _moved(3, value="9.95e-15")) == []
    assert compare_tables.compare_csv(_table(), _moved(2, value="8.00e-14")) == []


def test_value_crossing_the_floor_differs():
    problems = compare_tables.compare_csv(_table(), _moved(3, value="5.00e-09"))
    assert problems == ["lsv,3,1024,0.1,iface_rms value 9.93e-15 -> 5.00e-09"]


def test_order_moved_by_a_roundoff_value_is_not_compared():
    moved = _moved(3, value="5.08e-15", order="2.98")
    assert compare_tables.compare_csv(_table(), moved) == []


def test_order_above_the_floor_is_compared():
    # ln 2 turns two 1% errors into 0.029 of order, plus one printed digit.
    assert compare_tables.compare_csv(_table(), _moved(1, order="3.03")) == []
    problems = compare_tables.compare_csv(_table(), _moved(1, order="3.05"))
    assert problems == ["rsv,2,1024,0.1,l2 order 3.00 -> 3.05"]


def test_structural_differences_are_reported():
    assert compare_tables.compare_csv(_table(), _table(ROWS[:3])) != []
    renamed = _table([ROWS[0].replace("rsv", "lsv"), *ROWS[1:]])
    assert compare_tables.compare_csv(_table(), renamed) != []
    assert compare_tables.compare_csv(_table(), _moved(1, order="")) != []
    assert compare_tables.compare_csv(_table(), _moved(0, value="nan")) != []

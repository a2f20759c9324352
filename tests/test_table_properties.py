"""Property tests of the CSV table format: write_table then read_table gives
back every int64 and float column bit for bit, and columns of unequal length
raise without touching the file they would have replaced.
"""

import numpy as np
import pytest

from epigrid import ingest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

INT64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1)
# signed zeros, the smallest and largest subnormals and normals, near-overflow magnitudes
FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf)

int64s = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-(2**63), 2**63 - 1))
floats = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False))


@st.composite
def tables(draw, min_rows=0):
    """A dtype of 1-4 int64 or float columns and the columns of one table of it."""
    kinds = draw(st.lists(st.sampled_from((np.int64, np.float64)), min_size=1, max_size=4))
    n = draw(st.integers(min_rows, 8))
    dtype = np.dtype([(f"c{k}", kind) for k, kind in enumerate(kinds)])
    columns = {
        name: np.array(draw(st.lists(int64s if kind is np.int64 else floats, min_size=n, max_size=n)),
                       dtype=kind)
        for name, kind in zip(dtype.names, kinds)
    }
    return dtype, columns


@given(tables())
def test_round_trip_is_bit_for_bit(tmp_path_factory, table):
    dtype, columns = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    ingest.write_table(path, columns)
    back = ingest.read_table(path, dtype)
    assert back.dtype == dtype and len(back) == len(next(iter(columns.values())))
    for name, column in columns.items():
        assert back[name].tobytes() == column.tobytes(), name


@given(tables(min_rows=1), st.data())
def test_ragged_column_raises_and_keeps_the_file(tmp_path_factory, table, data):
    _, columns = table
    name = data.draw(st.sampled_from(sorted(columns)))
    columns[name] = data.draw(st.one_of(st.just(columns[name][:-1]), st.just(np.append(columns[name], 0))))
    if len(columns) == 1:
        columns["other"] = np.zeros(len(columns[name]) + 1)
    path = tmp_path_factory.getbasetemp() / "kept.csv"
    path.write_text("previous\n")
    with pytest.raises(ValueError):
        ingest.write_table(path, columns)
    assert path.read_text() == "previous\n"
    assert not path.with_name("kept.csv.tmp").exists()

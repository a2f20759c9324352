"""Property tests of the CSV table format: write_table then read_table gives
back every int64 and float column bit for bit, columns of unequal length
raise without touching the file they would have replaced, and write_table and
write_ascii_grid write the bytes of their value-by-value references in
oracles.py.
"""

import numpy as np
import oracles
import pytest

from epigrid import ingest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
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


# NaNs of other signs and payloads, quiet and signalling, as the bits of each float width
NAN_BITS = {np.float64: (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),
            np.float32: (0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FFFFFFF)}
FLOAT32_EDGES = (0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 1.1754944e-38, 3.4028235e38, -3.4028235e38,
                 np.inf, -np.inf)
UNSIGNED = {np.float64: np.uint64, np.float32: np.uint32}


def float_bits(dtype, values):
    """The bits, as ints, of a float of dtype that values draws or of a NaN of NAN_BITS."""
    return values.map(lambda x: int(np.array(x, dtype).view(UNSIGNED[dtype]))) | st.sampled_from(NAN_BITS[dtype])


# a float column's pool holds bits, so that NaN payloads survive; the other pools hold values
POOLS = {
    np.float64: float_bits(np.float64, floats),
    np.float32: float_bits(np.float32, st.sampled_from(FLOAT32_EDGES) | st.floats(width=32)),
    np.int64: int64s,
    np.int32: st.integers(-(2**31), 2**31 - 1),
    np.bool_: st.booleans(),
    # a list column, as lisa.csv, metrics.csv and importance.csv pass: fields csv.writer may have to quote
    list: st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
                    st.text(st.sampled_from('a1 ,"\r\n.é'), max_size=4)),
}
LENGTHS = (0, 1, 2, 7, ingest._WRITE_BLOCK, ingest._WRITE_BLOCK + 1)


@st.composite
def tied_columns(draw, n):
    """One column of n entries drawn from a pool of 1-6 values, so that most entries tie: a list, or a
    numpy array of one of the POOLS dtypes, the array sometimes a strided view as features.csv passes."""
    kind = draw(st.sampled_from(list(POOLS)))
    pool = draw(st.lists(POOLS[kind], min_size=1, max_size=6))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    if kind is list:
        return [pool[k] for k in picks]
    column = np.array(pool, dtype=UNSIGNED.get(kind, kind))[picks].view(kind)
    return np.stack([column, column], axis=1)[:, 0] if draw(st.booleans()) else column


@st.composite
def artifacts(draw):
    """The columns of one table: 0-4 names that csv.writer may have to quote, each naming a column of
    one of the LENGTHS."""
    names = draw(st.lists(st.text(st.sampled_from('ab ,"\r\n'), max_size=3), max_size=4, unique=True))
    n = draw(st.sampled_from(LENGTHS))
    return {name: draw(tied_columns(n)) for name in names}


def from_bits(values, dtype):
    return np.array(values, dtype=UNSIGNED[dtype]).view(dtype)


@given(artifacts())
@example({"x": np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324])})
@example({"x": from_bits(NAN_BITS[np.float64] * 2, np.float64), "y": from_bits(NAN_BITS[np.float32] * 2, np.float32)})
@example({"i": np.array([-(2**63), 2**63 - 1, -(2**63), -1, 0], dtype=np.int64)})
@example({"only": [None]})
@example({"": [""]})
@example({})
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path_factory, table):
    base = tmp_path_factory.getbasetemp()
    ingest.write_table(base / "fast.csv", table)
    oracles.write_table(base / "reference.csv", table)
    assert (base / "fast.csv").read_bytes() == (base / "reference.csv").read_bytes()


@given(st.integers(1, 5), st.sampled_from((1, 7, 300, ingest._WRITE_BLOCK + 1)), st.data())
def test_write_ascii_grid_writes_the_bytes_of_one_repr_per_cell(tmp_path_factory, nrows, ncols, data):
    values = data.draw(tied_columns(nrows * ncols).filter(lambda c: isinstance(c, np.ndarray)))
    grid = ingest.RasterGrid(ncols, nrows, 0.5, -1.0, 0.25, -9999.0, values.reshape(nrows, ncols))
    base = tmp_path_factory.getbasetemp()
    ingest.write_ascii_grid(grid, base / "fast.asc")
    oracles.write_ascii_grid(grid, base / "reference.asc")
    assert (base / "fast.asc").read_bytes() == (base / "reference.asc").read_bytes()

"""Property tests of the C fast path of the numeric text readers.

ingest._loadtxt either raises ValueError or returns exactly the bytes of the
Python path it stands in for: ingest._float_tokens on ASCII grid bodies and
ingest._table_rows on CSV tables of int64 and float columns. The inputs mix
the grid parser's token sets with the fast path's traps: '#', blank and
whitespace-only lines, rows wrapped or ragged across lines, header-only tables,
int64 edge values and tokens that float() or int() accepts but loadtxt does not.
"""

import warnings
from contextlib import closing

import numpy as np
import pytest

from epigrid import ingest
from epigrid.errors import ParseError

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_ingest_properties import BAD_TOKENS, INLINE_SPACE, NEWLINES, SPECIAL_TOKENS  # noqa: E402

# what float() or int() accepts and loadtxt rejects, or what loadtxt must not skip
TRAP_TOKENS = ("#", "#1", "1#", "1_0", "١", "４", "1.0", "", "\x00", '"1"', "+-1", "1.0f", "0x1p3", "nan(123)")
INT64_TOKENS = ("0", "-0", "+3", "00012", str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1),
                "1.0", "1e3", "1_0", "١")

float_token = st.one_of(st.floats().map(repr), st.sampled_from(SPECIAL_TOKENS + BAD_TOKENS + TRAP_TOKENS),
                        st.integers(-10**6, 10**6).map(str))
int_token = st.one_of(st.integers(-(2**63), 2**63 - 1).map(str), st.sampled_from(INT64_TOKENS + TRAP_TOKENS))
padding = st.sampled_from(("",) + INLINE_SPACE)


def padded(token):
    return st.tuples(padding, token, padding).map("".join)


@st.composite
def grid_body(draw):
    """Data lines of an ASCII grid: rows of one width or ragged, with blank and whitespace-only lines."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("row", "row", "row", "ragged", "blank")))
        if kind == "blank":
            lines.append(draw(st.lists(st.sampled_from(INLINE_SPACE), max_size=2).map("".join)))
            continue
        n = width if kind == "row" else draw(st.integers(1, 5))
        tokens = draw(st.lists(float_token.filter(bool), min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from(INLINE_SPACE), min_size=n - 1, max_size=n - 1))
        lines.append(draw(padding) + "".join(t + s for t, s in zip(tokens, seps + [""])) + draw(padding))
    return lines


@given(grid_body())
def test_grid_fast_path_declines_or_equals_the_python_path(body):
    try:
        fast = ingest._loadtxt(body, float, None)
    except ValueError:
        return
    python = ingest._float_tokens("body.asc", body, 0)
    assert fast.dtype == python.dtype and fast.tobytes() == python.tobytes()


@st.composite
def csv_table(draw):
    """(dtype, file text) of a CSV table: a header, then rows of int64 and float fields, padded,
    ragged, blank or whitespace-only, ending in any line break; no row at all is a header-only table."""
    kinds = draw(st.lists(st.sampled_from((np.int64, np.float64)), min_size=1, max_size=3))
    dtype = np.dtype([(f"c{k}", kind) for k, kind in enumerate(kinds)])
    newline = draw(st.sampled_from(NEWLINES))
    lines = [",".join(dtype.names)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("row", "row", "row", "ragged", "blank")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("",) + INLINE_SPACE)))
            continue
        row = [draw(padded(int_token if column is np.int64 else float_token)) for column in kinds]
        if kind == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    return dtype, "".join(line + newline for line in lines)


def fast_path(path, dtype):
    """_loadtxt on the lines read_table gives it, or None where it raises ValueError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            fh.readline()
            return ingest._loadtxt(fh, dtype, ",")
    except ValueError:
        return None


def python_path(path, dtype):
    """_table_rows on the rows after the header, or the ParseError it raises."""
    with closing(ingest.csv_rows(path)) as rows:
        next(rows)
        try:
            return ingest._table_rows(path, rows, dtype)
        except ParseError as exc:
            return exc


@given(csv_table())
def test_table_fast_path_declines_or_equals_the_python_path(tmp_path_factory, table):
    dtype, text = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fast = fast_path(path, dtype)
    python = python_path(path, dtype)
    if fast is not None:
        assert isinstance(python, np.ndarray)
        assert (fast.dtype, fast.shape, fast.tobytes()) == (dtype, python.shape, python.tobytes())
    if not text.endswith("\n"):  # \r line ends: read_table's cut-short check rejects the file first
        with pytest.raises(ParseError, match="cut short"):
            ingest.read_table(path, dtype)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a header-only table must not reach loadtxt, which warns on it
        try:
            read = ingest.read_table(path, dtype)
        except ParseError as exc:
            assert str(exc) == str(python)
            return
    assert (read.dtype, read.shape, read.tobytes()) == (dtype, python.shape, python.tobytes())

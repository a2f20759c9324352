"""Property tests of the ASCII grid parser and the surveillance ingest.

Any bytes either parse to a grid of the declared shape or raise ParseError.
On valid grids the parsed values equal float() of each token bit for bit,
and a bad token is reported at its line and field, where a line ends only
at a line break (\\n, \\r\\n or \\r), as in text-mode iteration.

On generated surveillance CSVs, parse_surveillance_csv and build_panel give
the panel, the reports, the warnings and the ParseError of the row-by-row
oracle.
"""

import warnings
from datetime import date

import numpy as np
import pytest

import oracles
from conftest import square_region
from epigrid import ingest
from epigrid.errors import ParseError

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value")

# spellings float() accepts beyond plain decimals
SPECIAL_TOKENS = ("nan", "NaN", "-nan", "inf", "-Infinity", "+inf", "-0.0", "0.0", "1_0",
                  "1e5", "1E-3", "+3", ".5", "5.", "-9999", "1e400", "-1e-400")
BAD_TOKENS = ("oops", "1.2.3", "0x10", "1__0", "--1", "1e", "nan1", "_1", "١٢x")
NEWLINES = ("\n", "\r\n", "\r")
# whitespace that str.split() splits on but that does not end a line
INLINE_SPACE = (" ", "  ", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2028")


def _write_bytes(tmp_path_factory, data: bytes):
    path = tmp_path_factory.getbasetemp() / "property.asc"
    path.write_bytes(data)
    return path


finite_floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
data_token = st.one_of(finite_floats, st.sampled_from(SPECIAL_TOKENS), st.integers(-10**6, 10**6).map(str))


@st.composite
def grid_text(draw):
    """(lines without their breaks, line breaks, data tokens, nrows, ncols) of a valid grid."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    tokens = draw(st.lists(data_token, min_size=nrows * ncols, max_size=nrows * ncols))
    header = [f"{k} {v}" for k, v in zip(HEADER_KEYS, (ncols, nrows, "-1.5", "2", "0.25", "-9999"))]
    # wrap the tokens into lines of any length, rows crossing line breaks
    lines, at = [], 0
    while at < len(tokens):
        take = draw(st.integers(1, len(tokens) - at))
        seps = draw(st.lists(st.sampled_from(INLINE_SPACE), min_size=take - 1, max_size=take - 1))
        line = tokens[at]
        for sep, tok in zip(seps, tokens[at + 1 : at + take]):
            line += sep + tok
        lines.append(line)
        at += take
    breaks = draw(st.lists(st.sampled_from(NEWLINES), min_size=len(header) + len(lines),
                           max_size=len(header) + len(lines)))
    return header + lines, breaks, tokens, nrows, ncols


def _join(lines, breaks) -> str:
    return "".join(line + brk for line, brk in zip(lines, breaks))


@given(
    st.one_of(
        st.binary(max_size=300),
        st.tuples(grid_text(), st.binary(max_size=40)).map(
            lambda g: _join(*g[0][:2]).encode("utf-8") + g[1]
        ),
        st.tuples(st.sampled_from(HEADER_KEYS), st.text(max_size=12)).map(
            lambda kv: (f"{kv[0]} {kv[1]}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "NODATA_value -9999\n1\n").encode("utf-8", "surrogatepass")
        ),
    )
)
def test_any_bytes_parse_or_raise_parse_error(tmp_path_factory, data):
    path = _write_bytes(tmp_path_factory, data)
    try:
        grid = ingest.parse_ascii_grid(path)
    except ParseError:
        return
    assert grid.values.shape == (grid.nrows, grid.ncols)


@given(grid_text())
def test_values_equal_float_of_each_token_bit_for_bit(tmp_path_factory, generated):
    lines, breaks, tokens, nrows, ncols = generated
    path = _write_bytes(tmp_path_factory, _join(lines, breaks).encode("utf-8"))
    grid = ingest.parse_ascii_grid(path)
    want = np.array([float(tok) for tok in tokens]).reshape(nrows, ncols)
    assert (grid.nrows, grid.ncols) == (nrows, ncols)
    assert np.array_equal(grid.values.view(np.uint64), want.view(np.uint64))


@given(grid_text(), st.sampled_from(BAD_TOKENS), st.data())
def test_bad_token_names_its_line_and_field(tmp_path_factory, generated, bad, data):
    lines, breaks, _, _, _ = generated
    line_idx = data.draw(st.integers(len(HEADER_KEYS), len(lines) - 1))
    words = lines[line_idx].split()
    field = data.draw(st.integers(1, len(words)))
    words[field - 1] = bad
    lines = lines[:line_idx] + [" ".join(words)] + lines[line_idx + 1 :]
    path = _write_bytes(tmp_path_factory, _join(lines, breaks).encode("utf-8"))
    with pytest.raises(ParseError) as info:
        ingest.parse_ascii_grid(path)
    assert str(info.value) == f"{path}: unparsable token {bad!r} at line {line_idx + 1}, field {field}"


SURVEILLANCE_HEADER = "Year,Week,Country,Province,District,Disease,Number of cases,Number of deaths\n"
# weeks in and out of a window from 2019-01-01; 2019-w53 and 2020-w1 share serial week 53
YEAR_WEEKS = ((2019, 1), (2019, 2), (2019, 52), (2019, 53), (2020, 1), (2020, 2), (2018, 52), (2019, 60))
# a row each per-row check rejects, then one that int() takes but a numpy reader would not
BAD_ROWS = ("2019,1,C,P,D0,m,x,0", "2019,0,C,P,D0,m,1,0", "2019,1,C", "0,1,C,P,D0,m,1,0", "2019,1,C,P,D0,m,-1,0",
            "2019,1,C,P,D0,m,1,99999999999999999999", "2019,1,C,P,D0,m,1e3,0", '"2019",1_0, C ,P,D1,m, 7 ,0')
big = st.sampled_from((2**62 - 1, 2**62, 2**63 - 1))
counts = st.one_of(st.integers(0, 9), big)
surveillance_row = st.one_of(
    st.builds(
        lambda yw, country, province, district, disease, cases, deaths: ",".join(
            map(str, (*yw, country, province, district, disease, cases, deaths))),
        st.sampled_from(YEAR_WEEKS),
        st.sampled_from(("C", " c", "X")),
        st.sampled_from(("P", "p ")),
        st.sampled_from(("D0", "d0", " D0 ", "D1", "d1 ", "D2", "Nowhere", "nowhere ")),  # only case or spaces apart
        st.sampled_from(("m", "M", " m", "c")),
        counts,
        st.integers(0, 12),
    ),
    st.sampled_from(BAD_ROWS),
    # two rows of one district in serial week 53, so that big counts pass 2**63 - 1
    st.builds("2019,53,C,P,D{0},m,{1},0\n2020,1,C,P,D{0},m,{2},0".format, st.integers(0, 2), big, big),
)


def _outcome(parse, build, path, n_weeks: int):
    """What parse and build give on path, warnings and a ParseError included, with the panel's counts as bytes."""
    districts = [square_region(i + 1, i, 0.0, name=f"D{i}") for i in range(3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, parsed = parse(path)
        try:
            counts, built = build(rows, districts, date(2019, 1, 1), n_weeks, "m")
        except ParseError as exc:
            counts, built = str(exc), None
    built = built and (list(built.unmatched_names.items()), built.dropped_out_of_range, built.matched_rows)
    counts = counts if isinstance(counts, str) else (counts.dtype, counts.shape, counts.tobytes())
    return counts, built, parsed.row_errors, parsed.duplicates, parsed.deaths_exceed_cases, [
        (w.category, str(w.message)) for w in caught]


def _columns(rows, districts, start, n_weeks, disease):
    panel, report = ingest.build_panel(rows, districts, start, n_weeks, disease)
    return panel.counts, report


@given(st.lists(surveillance_row, max_size=30), st.integers(50, 56))
@example([f"2019,53,C,P,D{d},m,{2**62},0\n2020,1,C,P,D{d},m,{2**62},0" for d in (2, 0)], 53)  # adm_id 3 passes first
def test_columns_match_the_row_by_row_oracle(tmp_path_factory, rows, n_weeks):
    path = tmp_path_factory.getbasetemp() / "surveillance.csv"
    path.write_text(SURVEILLANCE_HEADER + "".join(row + "\n" for row in rows), encoding="utf-8")
    want = _outcome(oracles.surveillance_rows, oracles.panel_counts, path, n_weeks)
    assert _outcome(ingest.parse_surveillance_csv, _columns, path, n_weeks) == want
